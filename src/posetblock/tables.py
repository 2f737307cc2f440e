"""Vectorized whole-space tables (digits, weights, the weight order and the
support ideal of each vector, each built at most once per context and
cached), profile weights and poset ideals used by code analytics,
verification and the isometry layer, and the small
per-context data of the level route of `codes` (the levels of a hierarchical
poset and the split tables of the scalar weight), each cached per context
and built whole by its first use.

All tables index vectors by their lexicographic rank: coordinate tuples
are read as base-m digits, most significant first, matching the order of
`SpaceContext.vectors`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

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
    m, n = ctx.m, ctx.n
    powers = np.array([m**pos for pos in range(n - 1, -1, -1)],
                      dtype=np.int64 if m**n < 1 << 63 else object)
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
def _support_ideals(ctx: SpaceContext) -> tuple[np.ndarray, np.ndarray]:
    """Per vector rank, the ideal that the vector's block support generates:
    its maximal elements, as a (size, s) boolean array, and its 1-based
    generator, as a (size,) array, 0 where the ideal is not principal.

    Cached per context (both arrays read-only) and built from the digit table
    without a budget check: callers check the vector budget first.
    """
    digits = _digit_table(ctx)
    maximal = np.empty((ctx.size, ctx.s), dtype=bool)
    for start in range(0, ctx.size, _ROWS):
        supports = np.logical_or.reduceat(digits[start:start + _ROWS] != 0, ctx.offsets[:-1], axis=1)
        maximal[start:start + _ROWS] = ideals(ctx.poset, supports)[1]
    generators = np.where(maximal.sum(axis=1) == 1, maximal.argmax(axis=1) + 1, 0)
    # in the smallest type: numpy sorts 8- and 16-bit keys by radix
    generators = generators.astype(np.min_scalar_type(ctx.s))
    maximal.flags.writeable = generators.flags.writeable = False
    return maximal, generators


@lru_cache(maxsize=32)
def _order_matrix(poset: Poset) -> np.ndarray:
    """(s, s) float32 array, read-only: row j marks the elements below j."""
    below = np.array([[down >> i & 1 for i in range(poset.s)] for down in poset.down], np.float32)
    below.flags.writeable = False
    return below


class _Levels(NamedTuple):
    """What `codes` reads of the levels L_1 < ... < L_t (see `_levels`); the
    arrays are read-only.

    blocks: each level's blocks (0-based), bottom up.
    below: |L_<l|, the blocks under level l.
    mu: for each ideal size 0..s, the largest dimension sum of an ideal.
    columns: the layout of the coordinates: level by level from the top,
        each block's coordinates padded to the level's widest block by
        repeating its last one (None when that is the identity).
    position: the level of each column of the layout.
    spans: each level's slice of the layout.
    weights: the scalar weight table, None when w has a zero off 0.
    """

    blocks: tuple[tuple[int, ...], ...]
    below: tuple[int, ...]
    mu: tuple[int, ...]
    columns: np.ndarray | None
    position: np.ndarray
    spans: tuple[tuple[int, int], ...]
    weights: np.ndarray | None


@lru_cache(maxsize=32)
def _levels(ctx: SpaceContext) -> _Levels | None:
    """The levels of a hierarchical poset, else None, with the layout that
    `codes` reads, all built at once.

    The poset is hierarchical when its elements fall into levels
    L_1 < ... < L_t, each level's strict down-set being the union of the
    levels below it: L_1 holds the elements with an empty strict down-set,
    and L_(l+1) those whose strict down-set is L_1 u ... u L_l.  Chains
    have one block per level, antichains one level.

    Weight.  Let x != 0 have top nonzero level l and M = max_weight.  Every
    block of L_l lies above all of L_<l, so the ideal of x's support is L_<l
    plus the nonzero blocks of x in L_l, and these are its maximal elements:
    W(x) = M |L_<l| + S(x), S(x) the sum over i in L_l of bm_i(x), the
    block-i maximum of w.  When w is positive off 0, bm_i(x) >= 1 on a
    nonzero block, so M |L_<l| < W(x) <= M |L_<=l|.

    mu.  An ideal holding an element of L_j holds all of L_<j, so a nonempty
    ideal is L_<j plus a nonempty part of L_j, and its size fixes j: the
    best ideal of size lambda is the levels that lambda covers whole plus
    the largest blocks of the next level.
    """
    groups: dict[int, list[int]] = {}
    for i, down in enumerate(ctx.poset.down):
        groups.setdefault(down & ~(1 << i), []).append(i)
    blocks, under = [], 0
    for strict in sorted(groups, key=int.bit_count):
        if strict != under:
            return None
        blocks.append(tuple(groups[strict]))
        under |= sum(1 << i for i in groups[strict])
    k, offsets, M = ctx.labeling.k, ctx.offsets, ctx.max_weight
    below, mu, pieces = [], [0], []
    for level in blocks:
        dims = sorted([k[i] for i in level], reverse=True)
        below.append(len(mu) - 1)
        for dim in dims:
            mu.append(mu[-1] + dim)
        piece = []
        for i in level:
            piece += range(offsets[i], offsets[i + 1])
            piece += [offsets[i + 1] - 1] * (dims[0] - k[i])
        pieces.append(piece)
    layout, position, spans = [], [], [(0, 0)] * len(blocks)
    for l in reversed(range(len(blocks))):
        spans[l] = (len(layout), len(layout) + len(pieces[l]))
        layout += pieces[l]
        position += [l] * len(pieces[l])
    columns = None if layout == list(range(ctx.n)) else np.array(layout)
    position = np.array(position)
    weights = None
    if ctx.min_nonzero_weight > 0:
        weights = np.asarray(ctx.weight_fn.table, dtype=np.min_scalar_type(M))
    for array in (columns, position, weights):
        if array is not None:
            array.flags.writeable = False
    return _Levels(tuple(blocks), tuple(below), tuple(mu), columns, position, tuple(spans), weights)


@lru_cache(maxsize=32)
def _level_volumes(ctx: SpaceContext) -> tuple[tuple[int, int, list[int], list[int]], ...] | None:
    """Per level l of a hierarchical poset with w positive off 0 (else None),
    bottom up: (M |L_<l|, m^(n_<l), sums, counts), n_<l the coordinates under
    level l, sums the increasing values v of a sum of block maxima over L_l's
    blocks and counts the number N_l(v) of vectors of those blocks whose sum
    is at most v.

    A block of k coordinates has F(v)^k - F(v - 1)^k vectors of block
    maximum v, with F(v) = #{a : w(a) <= v}, and the sums of block maxima
    over a level count as the product of these block polynomials.
    """
    levels = _levels(ctx)
    if levels is None or levels.weights is None:
        return None
    k = ctx.labeling.k
    ordered = sorted(ctx.weight_fn.table)
    values = sorted(set(ordered))
    fits = [bisect_right(ordered, v) for v in values]
    polys = {d: {v: f**d - g**d for v, f, g in zip(values, fits, [0, *fits])} for d in set(k)}
    volumes = []
    for level, under in zip(levels.blocks, levels.below):
        counts = polys[k[level[0]]]
        for i in level[1:]:
            grown: dict[int, int] = {}
            for b, y in polys[k[i]].items():
                for a, x in counts.items():
                    grown[a + b] = grown.get(a + b, 0) + x * y
            counts = grown
        sums = sorted(counts)
        # mu at a whole number of levels is their dimension
        volumes.append((ctx.max_weight * under, ctx.m ** levels.mu[under], sums,
                        list(accumulate(map(counts.get, sums)))))
    return tuple(volumes)


@lru_cache(maxsize=32)
def _split_tables(ctx: SpaceContext) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Read-only split tables of the scalar weight on a hierarchical poset,
    from the m x m table of w(y - a): mu, with mu(y) = min_a max(w(a),
    w(y - a)), and, when some level has several blocks (`_level_split`
    reads it; else None), g with g[j, y] = min over a with w(a) <= values[j]
    of w(y - a), for the distinct values of w, increasing (the third array)."""
    table = np.asarray(ctx.weight_fn.table, dtype=np.int64)
    elements = np.arange(ctx.m)
    shifted = table[(elements[:, None] - elements) % ctx.m]
    mu = np.maximum(shifted, table).min(axis=1)
    split = values = None
    if max(map(len, _levels(ctx).blocks)) > 1:
        order = np.argsort(table, kind="stable")
        values = np.array(sorted(set(ctx.weight_fn.table)))
        # column j: the least w(y - a) over the j + 1 lightest a
        lightest = np.minimum.accumulate(shifted[:, order], axis=1)
        split = lightest[:, np.searchsorted(table[order], values, side="right") - 1].T.copy()
        split.flags.writeable = values.flags.writeable = False
    mu.flags.writeable = False
    return mu, split, values


def _block_maxima(rows: np.ndarray, blocks: int) -> np.ndarray:
    """The maxima over each block's rows of (..., coordinates, pairs) rows,
    for `blocks` blocks of equal width (see `_levels`): (..., blocks,
    pairs)."""
    if rows.shape[-2] == blocks:
        return rows
    return rows.reshape(*rows.shape[:-2], blocks, -1, rows.shape[-1]).max(axis=-2)


def _level_split(ctx: SpaceContext, pairs: np.ndarray, blocks: int, budget: int) -> int | None:
    """The least H(d) = min_x max(S(x), S(d - x)) of `codes._level_packing`
    over the (coordinates x pairs) differences d of one level of `blocks`
    blocks, x running over the vectors of those blocks and S summing block
    maxima; None past the budget.

    Bound block i's maximum of x by a value p of w: the least block maximum
    of d - x is then q_i(p) = max_c g(d_c, p) over the block's coordinates c,
    which choose on their own.  So H(d) = min over p_i of max(sum_i p_i,
    sum_i q_i(p_i)).  best[T] is the least sum of q_i(p_i) over the blocks so
    far with sum_i p_i = T, or M |L| + 1 when there is no such choice; then
    H = min_T max(T, best[T]).
    """
    _, split, values = _split_tables(ctx)
    M = ctx.max_weight
    total = M * blocks
    if len(values) * (total + 1) * pairs.shape[1] > budget:
        return None
    least = _block_maxima(split.take(pairs, axis=1), blocks)
    # best[M + T]; the M rows before T = 0 stand for no choice
    best = np.full((M + total + 1, pairs.shape[1]), total + 1)
    best[M] = 0
    before = M + np.arange(total + 1) - values[:, None]
    for block in range(blocks):
        best[M:] = (best[before] + least[:, block, None]).min(axis=0)
    return int(np.maximum(best[M:].min(axis=1), np.arange(total + 1)).min())
