"""Code analytics: minimum distance, Singleton bound, packing radius, perfection.

Codes are plain finite subsets of a weighted poset block space; linearity
is an optional certificate that is verified on construction and unlocks
the minimum-weight shortcut for distances.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ArityError,
    BudgetError,
    LabelError,
    NegativeRadiusError,
    NotChainError,
    NotFinerError,
    TooSmallError,
    ValidationError,
)
from .poset import Poset
from .space import DEFAULT_VECTOR_BUDGET, BlockVector, SpaceContext, gc_paused
from .tables import block_max_table, check_vector_budget, digit_rows, digit_table
from .tables import _block_maxima, _level_split, _level_volumes, _levels, _split_tables, ideals
from .tables import profile_weights, rank_powers, weight_order
from .tables import weight_table  # noqa: F401  perfbench wraps codes.weight_table

_CHUNK = 1 << 18  # coordinates of the largest vector array one step of a code scan builds

TailMap = Mapping[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class Code:
    """A code over one context: its distinct codewords as a read-only (K, n)
    int64 array of digit rows, in lexicographic order."""

    context: SpaceContext
    digits: np.ndarray
    linear: bool = False
    generator: tuple[BlockVector, ...] | None = None

    @classmethod
    def from_words(
        cls,
        ctx: SpaceContext,
        words: Iterable[Sequence[int] | BlockVector],
        linear: bool = False,
    ) -> Code:
        words = list(words)
        rows = _checked_rows(lambda: words, ctx.n, ctx.m,
                             lambda: [_vector(ctx, w).coords for w in words])
        code = cls._canonical(ctx, rows, linear=linear)
        if linear:
            code._check_linear()
        return code

    @classmethod
    def from_generator(
        cls,
        ctx: SpaceContext,
        rows: Iterable[Sequence[int]],
        budget: int = DEFAULT_VECTOR_BUDGET,
    ) -> Code:
        """Span of the generator rows over Z_m: the product of the m^g x g grid
        of all coefficient rows with the g x n generator, mod m."""
        rows = list(rows)
        matrix = _checked_rows(lambda: rows, ctx.n, ctx.m,
                               lambda: [ctx.vector(r).coords for r in rows])
        gens = tuple(BlockVector(ctx, coords) for coords in map(tuple, matrix.tolist()))
        if ctx.m ** len(gens) > budget:
            raise BudgetError(f"span of {len(gens)} rows over Z_{ctx.m} exceeds budget")
        span = digit_rows(ctx.m, len(gens)) @ matrix % ctx.m
        return cls._canonical(ctx, span, linear=True, generator=gens)

    @classmethod
    def _canonical(cls, ctx: SpaceContext, rows: np.ndarray, **fields) -> Code:
        """The code of the (K, n) digit rows: its distinct rows, sorted by rank."""
        if not len(rows):
            raise ValidationError("a code needs at least one codeword")
        rows = np.take(rows, np.unique(rows @ rank_powers(ctx), return_index=True)[1], axis=0)
        rows.flags.writeable = False
        return cls(ctx, rows, **fields)

    def _check_linear(self) -> None:
        """Raise on the first codeword u, in order, with a multiple c * u
        (c = 2..m-1) or a sum u + v outside the code, multiples first.

        Vectors are compared by rank with the sorted member ranks, in steps
        of at most about `_CHUNK` coordinates (one codeword's at the least).
        """
        ctx = self.context
        words = self.digits
        if words[0].any():
            raise ValidationError("linear code must contain the zero vector")
        powers = rank_powers(ctx)
        members = words @ powers
        multiples = np.arange(2, ctx.m)[:, None]
        step = max(1, _CHUNK // ((len(multiples) + len(words)) * ctx.n))
        for start in range(0, len(words), step):
            rows = words[start : start + step, None, :]
            # per codeword u: its multiples, then its sums with every codeword v
            ranks = np.concatenate([rows * multiples, rows + words], axis=1) % ctx.m @ powers
            found = members[np.minimum(np.searchsorted(members, ranks), len(members) - 1)]
            for i, j in np.argwhere(found != ranks)[:1].tolist():
                u = tuple(words[start + i].tolist())
                if j < len(multiples):
                    raise ValidationError(f"not closed under scaling: {j + 2} * {u}")
                v = tuple(words[j - len(multiples)].tolist())
                raise ValidationError(f"not closed under addition: {u} + {v}")

    @property
    def size(self) -> int:
        return len(self.digits)

    @cached_property
    def codewords(self) -> tuple[BlockVector, ...]:
        """The codewords as `BlockVector` objects, in order, built on first access."""
        with gc_paused():
            return tuple(BlockVector(self.context, word) for word in self.coords_list())

    def coords_list(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.digits.tolist()))

    def in_context(self, ctx: SpaceContext) -> Code:
        """The same codeword set reinterpreted in another context of equal n, m."""
        return Code.from_words(ctx, self.coords_list(), linear=self.linear)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    @cached_property
    def _key(self) -> tuple:
        return self.context, self.digits.shape, self.digits.tobytes(), self.linear, self.generator


def _checked_rows(
    rows: Callable[[], list], width: int, m: int, checked_rows: Callable[[], list]
) -> np.ndarray:
    """The list `rows()` as a (K, width) int64 array of digits in 0..m-1.

    Only when the items are not all of length `width`, or the one array
    conversion or range check rejects them, is the array built from
    `checked_rows()`, which checks item by item, so the first bad item raises.
    """
    array = None
    try:
        items = rows()
        if set(map(len, items)) == {width}:
            array = np.fromiter(chain.from_iterable(items), np.int64, len(items) * width)
            array = array.reshape(len(items), width)
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    if array is None or not ((array >= 0) & (array < m)).all():
        array = np.array(checked_rows(), dtype=np.int64)
    return array.reshape(len(array), width)


def _vector(ctx: SpaceContext, word: Sequence[int] | BlockVector) -> BlockVector:
    v = word if isinstance(word, BlockVector) else ctx.vector(word)
    if v.context != ctx:
        raise ValidationError("codeword built over a different context")
    return v


@dataclass(frozen=True)
class SingletonParams:
    ideal_size: int
    ideal_dimension: int
    bound: int
    is_mds: bool


@dataclass(frozen=True)
class CodeReport:
    size: int
    min_distance: int
    hamming_min_distance: int
    ideal_size: int
    ideal_dimension: int
    singleton_bound: int
    is_mds: bool
    packing_radius: int
    is_perfect: bool


@dataclass(frozen=True)
class MdsPerfectCheck:
    applicable: bool
    is_mds: bool
    is_perfect: bool
    consistent: bool


def min_distance(code: Code) -> int:
    """Smallest distance between distinct codewords.

    The distances are the weights of the differences u - v over the pairs
    of codewords u before v, or for a linear code of its nonzero codewords.
    Their block-max profiles are weighed by `profile_weights` in steps of at
    most about `_CHUNK` coordinates, so no whole-space table is built and the
    space may exceed the vector budget.
    """
    return _min_weights(code)[0]


def hamming_min_distance(code: Code) -> int:
    """Minimum distance of the same codewords under the Hamming scalar weight."""
    return _min_weights(code)[1]


def _min_weights(code: Code) -> tuple[int, int]:
    """The minimum distances (d_w, d_H): the smallest weight and the smallest
    Hamming weight of the differences that `min_distance` names, from one
    walk over them.

    The Hamming scalar weight is 1 off 0, so the Hamming weight of x is the
    size of the ideal of its support, the blocks where x is nonzero.  When w
    is positive off 0, that support is also the support of x's block-max
    profile, so the one `ideals` call that weighs the profile gives d_H too;
    a zero off 0 takes a second call on the digit supports.
    """
    if code.size < 2:
        raise TooSmallError("minimum distance needs at least two codewords")
    ctx = code.context
    least = []
    for rows in _differences(code):
        profiles = block_max_table(ctx, rows)
        closure = ideals(ctx.poset, profiles > 0)
        weights = profile_weights(ctx, profiles, closure)
        if ctx.min_nonzero_weight <= 0:
            closure = ideals(ctx.poset, block_max_table(ctx.hamming(), rows) > 0)
        sizes = closure[0] @ np.ones(ctx.s, dtype=np.int64)
        least.append((int(weights.min()), int(sizes.min())))
    d_w, d_hamming = map(min, zip(*least))
    return d_w, d_hamming


def _differences(code: Code) -> Iterator[np.ndarray]:
    """The difference rows of `min_distance`, in steps of at most about
    `_CHUNK` coordinates (one codeword's pairs at the least): the pairs of a
    step are those of its rows with the words after them.

    A pair's row holds u - v unreduced, in -(m-1)..m-1, in the smallest
    signed type that holds it: a table of Z_m indexed by -a < 0 reads its
    entry m - a from the end, so it weighs the row as (u - v) mod m."""
    ctx = code.context
    words = code.digits
    if code.linear:
        nonzero = words[words.any(axis=1)]
        step = max(1, _CHUNK // ctx.n)
        yield from (nonzero[start : start + step] for start in range(0, len(nonzero), step))
        return
    words = words.astype(np.min_scalar_type(-ctx.m))
    step = max(1, _CHUNK // (len(words) * ctx.n))
    for start in range(0, len(words) - 1, step):
        rows = np.arange(start, min(start + step, len(words) - 1))
        first, second = _pairs(len(words) - 1 - rows)
        yield np.take(words, start + first, axis=0) - np.take(words, start + second, axis=0)


def _pairs(later: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) with i < j <= i + later[i], in order, as two index arrays."""
    first = np.repeat(np.arange(len(later)), later)
    second = first + np.arange(1, len(first) + 1) - np.repeat(np.cumsum(later) - later, later)
    return first, second


def singleton_params(code: Code) -> SingletonParams:
    """Singleton data: ideal size, its best dimension sum, the bound, MDS flag."""
    return _singleton_params(code, min_distance(code))


def _singleton_params(code: Code, d: int) -> SingletonParams:
    """Singleton data of a code with minimum distance d: on a hierarchical
    poset mu is read from the levels (see `tables._levels`), else from the
    listed ideals of size lambda."""
    ctx = code.context
    lam = (d - ctx.min_nonzero_weight) // ctx.max_weight
    levels, k = _levels(ctx), ctx.labeling.k
    mu = levels.mu[lam] if levels else max(sum(k[i] for i in range(ctx.s) if mask >> i & 1)
                                           for mask in ctx.poset.ideal_masks(size=lam))
    bound = ctx.m ** (ctx.n - mu)
    return SingletonParams(lam, mu, bound, code.size == bound)


def packing_radius(code: Code, budget: int = DEFAULT_VECTOR_BUDGET) -> int:
    """Largest radius at which codeword balls stay pairwise disjoint."""
    if code.size < 2:
        raise TooSmallError("packing radius needs at least two codewords")
    return _packing(code, budget)[0]


def is_r_perfect(code: Code, radius: int, budget: int = DEFAULT_VECTOR_BUDGET) -> bool:
    """True when radius-`radius` balls around the codewords partition the space.

    The K balls are translates of B(0, radius) (see `_walk`), so they
    partition the m^n vectors exactly when K * |B(0, radius)| = m^n (see
    `_volume`) and, for K >= 2, they are pairwise disjoint, that is
    radius <= rho.
    """
    if radius < 0:
        raise NegativeRadiusError("radius must be nonnegative")
    ctx = code.context
    check_vector_budget(ctx, budget)
    if code.size * _volume(ctx, radius, budget) != ctx.size:
        return False
    return code.size < 2 or radius <= _packing(code, budget, False, radius)[0]


def _packing(
    code: Code, budget: int, distances: bool = False, enough: int | None = None
) -> tuple[int, int | None, int | None]:
    """The packing radius rho of a code with K >= 2 words and, when
    `distances` is set (else maybe None), its minimum distances d_w and d_H,
    after the vector budget check; given `enough`, the radius may be a lower
    bound of rho that is at least `enough`.

    `_level_packing` gives them unless it declines.  Else `_min_weights`
    gives the distances, which then bound the walk: rho <= d_w - 1, since
    for codewords u, v at distance d_w, v lies in B(u, d_w) and B(v, d_w).
    """
    check_vector_budget(code.context, budget)
    found = _level_packing(code, budget, distances, enough)
    if found is not None:
        return found
    if not distances:
        return _walk(code, budget), None, None
    d, d_hamming = _min_weights(code)
    return _walk(code, budget, d), d, d_hamming


def _volume(ctx: SpaceContext, radius: int, budget: int) -> int:
    """|B(0, radius)| for radius >= 0, as an exact integer.

    Below the least nonzero weight it is 1: every x != 0 weighs at least
    that when w is positive off 0 (a zero off 0 makes that least weight at
    most 0 <= radius).  On a hierarchical poset with w positive off 0 (see
    `tables._level_volumes`) it is m^(n_<l) N_l(radius - M |L_<l|) for the level l
    with M |L_<l| < radius <= M |L_<=l|, and m^n past the top level: the
    ball holds the m^(n_<l) vectors zero from level l up, which weigh at
    most M |L_<l|, the x of top level l whose block maxima on L_l sum to at
    most radius - M |L_<l|, and nothing nonzero above l, which weighs more
    than M |L_<=l|.  Otherwise it is one `searchsorted` of radius in the
    cached weight order.
    """
    # read before the shortcut, so that only a space's first volume builds them
    volumes = _level_volumes(ctx)
    if radius < ctx.min_nonzero_weight:
        return 1
    if volumes is None:
        return int(np.searchsorted(weight_order(ctx, budget)[1], radius, side="right"))
    for floor, free, sums, counts in volumes:
        if radius - floor <= sums[-1]:
            return free * counts[bisect_right(sums, radius - floor) - 1]
    return ctx.size


def _level_packing(
    code: Code, budget: int, distances: bool, enough: int | None = None
) -> tuple[int, int | None, int | None] | None:
    """`_packing` on a hierarchical poset with w positive off 0, with no
    whole-space table: with l* the least top level of a difference d of
    codewords, S(d) its sum of block maxima on L_l* (`tables._levels`), and
    minima over the d of top level l*, rho = M |L_<l*| + min H(d) - 1,
    d_w = M |L_<l*| + min S(d) and d_H = |L_<l*| + min #{nonzero blocks of
    d on L_l*}.  None off that route, or when the m x m split tables, those
    differences or the level's split table would exceed the budget.

    h on levels.  Balls B(u, r) and B(v, r) meet iff some x has W(x) <= r
    and W(d - x) <= r, d = v - u, so rho = min_d h(d) - 1 with h(d) =
    min_x max(W(x), W(d - x)).  Let l be the top level of d.  An x nonzero
    above l makes both x and d - x weigh more than M |L_<=l| >= W(d), the
    cost of x = 0.  For x zero above l, each y of x, d - x weighs
    M |L_<l| + S(y) when nonzero on L_l and at most M |L_<l| else, and one
    of them is nonzero there: max(W(x), W(d - x)) >= M |L_<l| +
    max(S(x), S(d - x)), with equality for x zero below l.  So h(d) =
    M |L_<l| + H(d), H(d) = min_x max(S(x), S(d - x)) over x on L_l, in
    1 .. S(d): the least h has top level l*.  `tables._level_split` finds
    the least H; on one block H(d) = max_c mu(d_c), since the coordinates
    split on their own, and when M = 1, w is 1 off 0 and H(d) =
    ceil(S(d) / 2), S(d) counting the blocks where d is nonzero.

    Adjacent rows.  Sort the words with their columns taken level by level
    from the top; the top level of u - v is that of the first column where
    they differ.  Sorted rows sharing a prefix are contiguous, so rows i < k
    share one exactly when every adjacent pair between them does.  So l* is
    the least top level of an adjacent pair, and the runs of rows agreeing
    above l* (cut where an adjacent pair's top level exceeds l*) hold
    exactly the pairs of top level l*.  On one level all pairs do, and a
    linear code's differences are its nonzero words.  Under w and under the
    Hamming weight a difference of top level l weighs M |L_<l| + S(d) and
    |L_<l| plus its nonzero blocks on L_l, so d_w and d_H are met at l*
    too; w(-a) = w(a), so a pair is weighed with either sign.
    """
    ctx = code.context
    levels = _levels(ctx)
    if levels is None or levels.weights is None or ctx.m**2 > budget:
        return None
    # a linear code's differences are its words after the zero word, which sorts first
    words = (code.digits[1:] if code.linear else code.digits).astype(np.min_scalar_type(-ctx.m))
    if levels.columns is not None:
        words = np.take(words, levels.columns, axis=1)
    top, later = 0, np.arange(len(words) - 1, -1, -1)
    if len(levels.blocks) > 1 and code.linear:
        tops = levels.position[(words != 0).argmax(axis=1)]
        top = int(tops.min())
        words = words[tops == top]
    elif len(levels.blocks) > 1:
        if levels.columns is not None:
            words = np.take(words, np.lexsort(words.T[::-1]), axis=0)
        tops = levels.position[(words[1:] != words[:-1]).argmax(axis=1)]
        top = int(tops.min())
        # row i pairs with the rows after it up to its group's last row
        last = np.flatnonzero(np.append(tops != top, True))
        later = last[np.searchsorted(last, np.arange(code.size))] - np.arange(code.size)
    M, below, blocks = ctx.max_weight, levels.below[top], len(levels.blocks[top])
    if M == 1 and blocks == 1:  # w is 1 off 0: every d of top level l* has S(d) = 1
        return below, below + 1, below + 1
    # read on every call with M > 1, so that only a space's first call builds them
    mu = _split_tables(ctx)[0] if M > 1 else None
    if enough is not None and M * below >= enough and not distances:
        return M * below, None, None  # H >= 1, so rho >= M |L_<l*|
    rows = words[:, slice(*levels.spans[top])]
    if (len(rows) if code.linear else later.sum()) * rows.shape[1] > budget:
        return None
    if not code.linear:
        first, second = _pairs(later)
        # a difference -a < 0 indexes a table of Z_m from its end, at m - a
        rows = np.take(rows, second, axis=0) - np.take(rows, first, axis=0)
    # one row per coordinate, so the block maxima run along rows
    pairs = np.ascontiguousarray(rows.T)
    if M == 1:  # S counts the blocks where d is nonzero
        nonzero = _block_maxima(pairs != 0, blocks)
        least = int(nonzero.sum(axis=0, dtype=np.min_scalar_type(blocks)).min())
        return below + (least + 1) // 2 - 1, below + least, below + least
    if distances:
        maxima = _block_maxima(levels.weights.take(pairs), blocks)
        least = int(maxima.sum(axis=0, dtype=np.min_scalar_type(M * blocks)).min())
        nonzero = 1 if blocks == 1 else int((maxima > 0).sum(axis=0).min())
    if distances and least == 1:
        h = 1  # 1 <= H(d) <= S(d)
    elif blocks == 1:
        h = int(mu.take(pairs).max(axis=0).min())
    elif (h := _level_split(ctx, pairs, blocks, budget)) is None:
        return None
    rho = M * below + h - 1
    return (rho, M * below + least, below + nonzero) if distances else (rho, None, None)


def _walk(code: Code, budget: int, cap: int | None = None) -> int:
    """The packing radius rho by a walk over the translates of the zero ball,
    stopped below the weight `cap` when given: a vector's weight known to
    exceed rho.

    With d(x, c) = W(x - c), the ball B(c, r) is the translate c + B(0, r).
    The translates c + b are taken with b in the cached weight order, so
    their weights W(b) never decrease, and their ranks are marked in one
    boolean array of m^n entries.  Since c + b = c + b' forces b = b', a
    rank met twice lies in the balls of two distinct codewords, which meet
    there exactly from the weight of its second translate on.  So
    rho = w - 1 for the weight w of the first translate whose rank was met
    before.  The walk stops at the first shell (vectors of one weight) whose
    weight w reaches `cap`, or at which the K translates of B(0, w) would be
    more than m^n vectors, so that a repeat is certain: it never marks more
    than m^n translates, and with no repeat before, rho = w - 1 for that
    shell.

    Rounds.  The translates are marked in rounds of whole rows b of the
    order, each round at most about `_CHUNK` coordinates (one row's K
    translates at the least) and at most as many rows as the rounds before
    it together, or one shell.  So the walk makes few rounds and marks at
    most about twice the translates up to the first repeat.  In a round, a
    translate repeats when its rank was marked before or occurs earlier in
    the round (`np.minimum.at` finds each rank's first place in the round).
    The ranks need no sum mod m: with digits in 0..m-1, b_i + c_i < 2m, so
    rank(c + b) = rank(b) + rank(c) - m * sum_i [b_i >= m - c_i] m^(n-1-i).

    A cap of 0, or of 1 when w is positive off 0 (so that B(0, 0) = {0}),
    fixes rho = cap - 1 with no walk and no table.
    """
    ctx = code.context
    if cap == 0 or cap == 1 and ctx.min_nonzero_weight > 0:
        return cap - 1
    order, ranked, shells = weight_order(ctx, budget)
    digits = digit_table(ctx, budget)
    powers = rank_powers(ctx)
    word_ranks = code.digits @ powers
    complement = (ctx.m - code.digits).astype(digits.dtype)
    marked = np.zeros(ctx.size, dtype=bool)
    step = max(1, _CHUNK // (code.size * ctx.n))
    # the walk covers the rows before `stop`: shells below the cap that fit
    limit = ctx.size // code.size
    if cap is not None:
        limit = min(limit, int(np.searchsorted(ranked, cap)))
    meet = stop = shells[bisect_right(shells, limit) - 1]
    start = 0
    while start < stop:
        end = min(start + step, stop, max(2 * start, shells[bisect_right(shells, start)]))
        rows = order[start:end]
        carries = digits[rows][:, None, :] >= complement
        ranks = (rows[:, None] + word_ranks - ctx.m * (carries @ powers)).ravel()
        ordered = np.sort(ranks)
        if marked[ranks].any() or (ordered[1:] == ordered[:-1]).any():
            places = np.arange(len(ranks))
            first = np.full(ctx.size, len(ranks))
            np.minimum.at(first, ranks, places)
            meet = start + ((first[ranks] < places) | marked[ranks]).argmax() // code.size
            break
        marked[ranks] = True
        start = end
    return int(ranked[meet]) - 1


def analyze(code: Code, budget: int = DEFAULT_VECTOR_BUDGET) -> CodeReport:
    """Full report: distances, Singleton data, packing radius, perfection.

    One `_packing` call, which checks the vector budget first, gives
    `d_w`, `d_H` and the packing radius rho: on the level route from the
    codewords, else from one walk over the codeword differences and one
    walk over the translates of the zero ball below `d_w`.  The code is
    perfect when K * |B(0, rho)| = m^n (see `_volume`).
    """
    if code.size < 2:
        raise TooSmallError("minimum distance needs at least two codewords")
    rho, d, d_hamming = _packing(code, budget, True)
    if rho < 0:
        raise NegativeRadiusError(
            "packing radius -1: balls of radius 0 around distinct codewords meet"
        )
    params = _singleton_params(code, d)
    return CodeReport(
        size=code.size,
        min_distance=d,
        hamming_min_distance=d_hamming,
        ideal_size=params.ideal_size,
        ideal_dimension=params.ideal_dimension,
        singleton_bound=params.bound,
        is_mds=params.is_mds,
        packing_radius=rho,
        is_perfect=code.size * _volume(code.context, rho, budget) == code.context.size,
    )


# -- chain constructions ----------------------------------------------------


def require_natural_chain(ctx: SpaceContext) -> None:
    if not ctx.poset.is_natural_chain:
        raise NotChainError("operation requires the chain 1 < 2 < .. < s")


def tail_length(ctx: SpaceContext, t: int) -> int:
    if not 0 <= t <= ctx.s:
        raise ArityError(f"block count t={t} outside 0..{ctx.s}")
    return ctx.n - ctx.offsets[t]


def perfect_code_from_function(ctx: SpaceContext, t: int, tail_map: TailMap) -> Code:
    """Graph code {(f(v), v)} over all tails v of the last s - t blocks.

    On the natural chain this code is (t * max_weight)-perfect.  The heads
    are one checked array (see `_checked_rows`), so the first bad tail
    raises.  The words are distinct, since their tails are, so they need
    only a sort by rank.
    """
    require_natural_chain(ctx)
    tail_n = tail_length(ctx, t)
    head_n = ctx.n - tail_n
    tails = list(product(range(ctx.m), repeat=tail_n))
    heads = _checked_rows(lambda: [tail_map[tail] for tail in tails], head_n, ctx.m,
                          lambda: [_head(ctx, tail_map, tail, head_n) for tail in tails])
    # the tails run in rank order, so (head, tail) has rank rank(head, 0) + index of tail
    powers = rank_powers(ctx)
    ranks = np.sort(heads @ powers[:head_n] + np.arange(len(tails)))
    digits = (ranks[:, None] // powers % ctx.m).astype(np.int64, copy=False)
    digits.flags.writeable = False
    return Code(ctx, digits)


def _head(ctx: SpaceContext, tail_map: TailMap, tail: tuple[int, ...], head_n: int) -> tuple:
    try:
        head = tuple(int(c) for c in tail_map[tail])
    except KeyError:
        raise ArityError(f"function table misses tail {tail}") from None
    if len(head) != head_n:
        raise ArityError(f"head {head} must have {head_n} coordinates")
    if any(not 0 <= c < ctx.m for c in head):
        raise ArityError(f"head {head} has coordinates outside 0..{ctx.m - 1}")
    return head


def identity_tail_map(ctx: SpaceContext, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Copy shared leading coordinates from tail to head, zero-pad the rest."""
    return _tail_map(ctx, t, lambda tail, head_n: (tail + (0,) * head_n)[:head_n])


def zero_tail_map(ctx: SpaceContext, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    return _tail_map(ctx, t, lambda _, head_n: (0,) * head_n)


def random_tail_map(
    ctx: SpaceContext, t: int, rng: random.Random
) -> dict[tuple[int, ...], tuple[int, ...]]:
    return _tail_map(ctx, t, lambda _, head_n: tuple(rng.randrange(ctx.m) for _ in range(head_n)))


def _tail_map(
    ctx: SpaceContext, t: int, head: Callable[[tuple[int, ...], int], tuple[int, ...]]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each tail of the last s - t blocks, in lexicographic order, to `head(tail, head_n)`."""
    head_n = ctx.n - tail_length(ctx, t)
    return {tail: head(tail, head_n) for tail in product(range(ctx.m), repeat=ctx.n - head_n)}


def reconstruct_tail_map(code: Code, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Invert the graph construction; fails unless every tail appears exactly once."""
    ctx = code.context
    require_natural_chain(ctx)
    head_n = ctx.n - tail_length(ctx, t)
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for word in code.coords_list():
        head, tail = word[:head_n], word[head_n:]
        if tail in table:
            raise ValidationError(f"two codewords share tail {tail}")
        table[tail] = head
    if len(table) != ctx.m ** (ctx.n - head_n):
        raise ValidationError("code does not cover every tail")
    return table


def mds_iff_perfect_check(code: Code, budget: int = DEFAULT_VECTOR_BUDGET) -> MdsPerfectCheck:
    """On a chain, MDS and perfect must agree whenever the distance condition holds."""
    ctx = code.context
    if not ctx.poset.is_chain:
        raise NotChainError("MDS/perfect equivalence is a chain-poset statement")
    report = analyze(code, budget)
    applicable = report.min_distance == (
        ctx.min_nonzero_weight + (report.hamming_min_distance - 1) * ctx.max_weight
    )
    consistent = (report.is_mds == report.is_perfect) if applicable else True
    return MdsPerfectCheck(applicable, report.is_mds, report.is_perfect, consistent)


def finer_mds_check(code: Code, finer: Poset) -> bool:
    """Whether MDS under the code's poset implies MDS under the finer poset.

    Requires a constant labeling; returns the implication's truth value.
    """
    ctx = code.context
    if len(set(ctx.labeling.k)) != 1:
        raise LabelError("finer-poset MDS transfer requires a constant labeling")
    if not finer.is_finer_than(ctx.poset):
        raise NotFinerError("second poset does not refine the code's poset")
    mds_here = singleton_params(code).is_mds
    if not mds_here:
        return True
    finer_ctx = SpaceContext(finer, ctx.labeling, ctx.alphabet, ctx.weight_fn)
    return singleton_params(code.in_context(finer_ctx)).is_mds


# -- fixture generators ------------------------------------------------------


def random_code(ctx: SpaceContext, size: int, rng: random.Random) -> Code:
    """Uniform sample of `size` distinct codewords."""
    if not 1 <= size <= ctx.size:
        raise ValidationError(f"cannot pick {size} distinct words from {ctx.size}")
    ranks = rng.sample(range(ctx.size), size)
    return Code.from_words(ctx, [ctx.vector_at(r).coords for r in ranks])


def enumerate_linear_codes(ctx: SpaceContext) -> Iterator[Code]:
    """Every span of at most n vectors (all submodules at desk scale)."""
    if ctx.size > 64:
        raise BudgetError("linear-code enumeration is meant for tiny spaces")
    nonzero = [v for v in ctx.vectors() if not v.is_zero]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for count in range(ctx.n + 1):
        for gens in combinations(nonzero, count):
            code = Code.from_generator(ctx, [g.coords for g in gens])
            key = tuple(code.coords_list())
            if key not in seen:
                seen.add(key)
                yield code
