"""Vectorized whole-space tables and profile weights used by code analytics
and verification.

All tables index vectors by their lexicographic rank: coordinate tuples
are read as base-m digits, most significant first, matching the order of
`SpaceContext.vectors`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BudgetError
from .space import DEFAULT_VECTOR_BUDGET, SpaceContext


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
    ranks = np.arange(ctx.size, dtype=np.int64)
    cols = []
    for pos in range(ctx.n):
        shift = ctx.m ** (ctx.n - 1 - pos)
        cols.append(ranks // shift % ctx.m)
    table = np.stack(cols, axis=1).astype(np.int32)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=128)
def rank_powers(ctx: SpaceContext) -> np.ndarray:
    powers = np.array([ctx.m ** (ctx.n - 1 - pos) for pos in range(ctx.n)], dtype=np.int64)
    powers.flags.writeable = False
    return powers


def support_mask_table(ctx: SpaceContext, digits: np.ndarray) -> np.ndarray:
    """(size,) array of 0-based block-support bitmasks."""
    masks = np.zeros(len(digits), dtype=np.int64)
    for i in range(1, ctx.s + 1):
        nonzero = digits[:, ctx.block_slice(i)].any(axis=1)
        masks |= nonzero.astype(np.int64) << (i - 1)
    return masks


def block_max_table(ctx: SpaceContext, digits: np.ndarray) -> np.ndarray:
    """(size, s) array of block-max scalar weights."""
    scalar = np.asarray(ctx.weight_fn.table, dtype=np.int64)[digits]
    out = np.empty((len(digits), ctx.s), dtype=np.int64)
    for i in range(1, ctx.s + 1):
        out[:, i - 1] = scalar[:, ctx.block_slice(i)].max(axis=1)
    return out


def weight_table(ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET) -> np.ndarray:
    """(size,) array: entry v is the weight of the vector with rank v.

    Cached per context and returned read-only.
    """
    check_vector_budget(ctx, budget)
    return _weight_table(ctx)


@lru_cache(maxsize=32)
def _weight_table(ctx: SpaceContext) -> np.ndarray:
    weights = profile_weights(ctx, block_max_table(ctx, _digit_table(ctx)))
    weights.flags.writeable = False
    return weights


def profile_weights(ctx: SpaceContext, profiles: np.ndarray) -> np.ndarray:
    """(N,) array: the weight of each row of the (N, s) block-max profiles.

    A profile's support is the set of its nonzero entries.  The weight is
    `max_weight` for each non-maximal element of the support's down-closure
    plus the profile's entries on its maximal elements, as in
    `SpaceContext.weight_of_profile`.  Supports are keyed by their packed
    bits, so the result is exact for every s, and the closure of each
    distinct support that occurs is computed once.
    """
    poset = ctx.poset
    supports = np.packbits(profiles > 0, axis=1, bitorder="little")
    first, inverse = _distinct_rows(supports)
    width = supports.shape[1]
    keys = supports[first].tobytes()
    below = []
    tops = bytearray(len(keys))
    for at in range(0, len(keys), width):
        ideal = poset.ideal_mask(int.from_bytes(keys[at : at + width], "little"))
        top = poset.maximal_mask(ideal)
        below.append(ideal.bit_count() - top.bit_count())
        tops[at : at + width] = top.to_bytes(width, "little")
    maximal = np.frombuffer(tops, dtype=np.uint8).reshape(-1, width)
    maximal = np.unpackbits(maximal, axis=1, count=ctx.s, bitorder="little")
    below = np.asarray(below, dtype=np.int64)
    return ctx.max_weight * below[inverse] + np.einsum("ij,ij->i", profiles, maximal[inverse])


def _distinct_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an integer (N, w) array: the index of one row per distinct row, and
    for each row the position of its distinct row among those."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def difference_rank_table(
    ctx: SpaceContext, center_coords: tuple[int, ...], digits: np.ndarray
) -> np.ndarray:
    """(size,) array: rank of (v - center) for every vector rank v."""
    c = np.asarray(center_coords, dtype=np.int32)
    diff = (digits - c) % ctx.m
    return diff.astype(np.int64) @ rank_powers(ctx)


def distance_table(
    ctx: SpaceContext,
    center_coords: tuple[int, ...],
    weights: np.ndarray,
    digits: np.ndarray,
) -> np.ndarray:
    """(size,) array of distances from `center_coords` to every vector."""
    return weights[difference_rank_table(ctx, center_coords, digits)]


def two_smallest_code_distances(
    ctx: SpaceContext,
    codeword_coords: list[tuple[int, ...]],
    weights: np.ndarray,
    digits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector smallest and second-smallest distance to the codewords."""
    size = len(weights)
    limit = np.iinfo(np.int64).max
    d1 = np.full(size, limit, dtype=np.int64)
    d2 = np.full(size, limit, dtype=np.int64)
    for coords in codeword_coords:
        d = distance_table(ctx, coords, weights, digits)
        closer = d < d1
        d2 = np.where(closer, d1, np.minimum(d2, d))
        d1 = np.where(closer, d, d1)
    return d1, d2
