"""Vectorized whole-space tables (digits, weights and the weight order, each
built at most once per context and cached), profile weights and poset ideals
used by code analytics, verification and the isometry layer.

All tables index vectors by their lexicographic rank: coordinate tuples
are read as base-m digits, most significant first, matching the order of
`SpaceContext.vectors`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .poset import Poset
from .space import DEFAULT_VECTOR_BUDGET, SpaceContext

_ROWS = 1 << 16  # vectors per step of a weight table build


def check_vector_budget(ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET) -> None:
    if ctx.size > budget:
        raise BudgetError(f"space has {ctx.size} vectors, budget {budget}")


def digit_table(ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET) -> np.ndarray:
    """(size, n) array: row v holds the coordinates of the vector with rank v.

    Cached per context and returned read-only.
    """
    check_vector_budget(ctx, budget)
    return _digit_table(ctx)


@lru_cache(maxsize=32)
def _digit_table(ctx: SpaceContext) -> np.ndarray:
    table = digit_rows(ctx.m, ctx.n)
    table.flags.writeable = False
    return table


def digit_rows(m: int, width: int) -> np.ndarray:
    """(m**width, width) int32 array: row r holds the base-m digits of r, most
    significant first, so the rows run in the order of
    `itertools.product(range(m), repeat=width)`."""
    ranks = np.arange(m**width, dtype=np.int64)
    table = np.empty((m**width, width), dtype=np.int32)
    for pos in range(width - 1, -1, -1):
        table[:, pos] = ranks % m
        ranks //= m
    return table


@lru_cache(maxsize=128)
def rank_powers(ctx: SpaceContext) -> np.ndarray:
    """Read-only place values m^(n-1-pos) of the ranks: int64, or Python integers past int64."""
    wide = np.int64 if ctx.size <= np.iinfo(np.int64).max else object
    powers = np.array([ctx.m ** (ctx.n - 1 - pos) for pos in range(ctx.n)], dtype=wide)
    powers.flags.writeable = False
    return powers


def distinct_rows(keys: np.ndarray, inverse: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """For an integer (N, w) array: the index of one row per distinct row, in
    lexicographic order of the rows, and for each row the position of its
    distinct row among those (None when `inverse` is False)."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    if not inverse:
        return order[new], None
    positions = np.empty(len(keys), dtype=np.int64)
    positions[order] = np.cumsum(new) - 1
    return order[new], positions


def block_max_table(ctx: SpaceContext, digits: np.ndarray) -> np.ndarray:
    """(len(digits), s) array of block-max scalar weights, in the smallest
    unsigned type that holds `max_weight`."""
    scalar = np.asarray(ctx.weight_fn.table, dtype=np.min_scalar_type(ctx.max_weight))[digits]
    out = np.empty((len(digits), ctx.s), dtype=scalar.dtype)
    for i in range(ctx.s):
        block_max = out[:, i]
        block_max[:] = scalar[:, ctx.offsets[i]]
        for c in range(ctx.offsets[i] + 1, ctx.offsets[i + 1]):
            np.maximum(block_max, scalar[:, c], out=block_max)
    return out


def weight_table(ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET) -> np.ndarray:
    """(size,) array: entry v is the weight of the vector with rank v.

    Cached per context and returned read-only.
    """
    check_vector_budget(ctx, budget)
    return _weight_table(ctx)


@lru_cache(maxsize=32)
def _weight_table(ctx: SpaceContext) -> np.ndarray:
    digits = _digit_table(ctx)
    weights = np.empty(ctx.size, dtype=np.int64)
    for start in range(0, ctx.size, _ROWS):
        rows = digits[start:start + _ROWS]
        weights[start:start + _ROWS] = profile_weights(ctx, block_max_table(ctx, rows))
    weights.flags.writeable = False
    return weights


def weight_order(
    ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The ranks sorted stably by weight, their weights in that order, and the
    bounds of the runs of equal weight (the shells), from 0 to `ctx.size`.

    `searchsorted(weights, r, side="right")` is the volume |B(0, r)|.
    Cached per context; the arrays are read-only.
    """
    check_vector_budget(ctx, budget)
    return _weight_order(ctx)


@lru_cache(maxsize=32)
def _weight_order(ctx: SpaceContext) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    weights = _weight_table(ctx)
    order = np.argsort(weights, kind="stable")
    ranked = weights[order]
    for table in (order, ranked):
        table.flags.writeable = False
    shells = (0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), ctx.size)
    return order, ranked, shells


def profile_weights(
    ctx: SpaceContext, profiles: np.ndarray, closure: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """(N,) array: the weight of each row of the (N, s) block-max profiles.

    A profile's support is the set of its nonzero entries.  The weight is
    `max_weight` for each non-maximal element of the support's down-closure
    plus the profile's entries on its maximal elements, as in
    `SpaceContext.weight_of_profile`; `ideals` gives both sets for all rows,
    unless the caller passes them as `closure`.
    """
    ideal, maximal = ideals(ctx.poset, profiles > 0) if closure is None else closure
    covered = (ideal & ~maximal) @ np.full(ctx.s, ctx.max_weight, dtype=np.int64)
    return covered + (profiles * maximal) @ np.ones(ctx.s, dtype=np.int64)


def ideals(poset: Poset, supports: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The down-closure of each boolean (..., s) support and its maximal elements,
    as two boolean arrays of the same shape.

    With the order matrix B, B[j, i] = 1 when i <= j, (x @ B)[i] counts the
    members of x at or above i: the closure is where that count is positive,
    and an element of the closure is maximal where it counts only itself.  The
    counts are at most s, so float32 products are exact.
    """
    below = _order_matrix(poset)
    ideal = supports.reshape(-1, poset.s).astype(np.float32) @ below > 0
    maximal = ideal.astype(np.float32) @ below == 1
    return ideal.reshape(supports.shape), maximal.reshape(supports.shape)


@lru_cache(maxsize=32)
def _order_matrix(poset: Poset) -> np.ndarray:
    """(s, s) float32 array, read-only: row j marks the elements below j."""
    below = np.array([[down >> i & 1 for i in range(poset.s)] for down in poset.down], np.float32)
    below.flags.writeable = False
    return below
