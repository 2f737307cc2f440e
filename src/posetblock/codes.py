"""Code analytics: minimum distance, Singleton bound, packing radius, perfection.

Codes are plain finite subsets of a weighted poset block space; linearity
is an optional certificate that is verified on construction and unlocks
the minimum-weight shortcut for distances.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .algebra import WeightFunction
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
from .tables import block_max_table, check_vector_budget, digit_rows, digit_table, distinct_rows
from .tables import ideals, profile_weights, rank_powers, weight_order
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
        gens = tuple(ctx.vector(r) for r in rows)
        if ctx.m ** len(gens) > budget:
            raise BudgetError(f"span of {len(gens)} rows over Z_{ctx.m} exceeds budget")
        matrix = np.array([g.coords for g in gens], dtype=np.int64).reshape(len(gens), ctx.n)
        span = digit_rows(ctx.m, len(gens)) @ matrix % ctx.m
        return cls._canonical(ctx, span, linear=True, generator=gens)

    @classmethod
    def _canonical(cls, ctx: SpaceContext, rows: np.ndarray, **fields) -> Code:
        """The code of the (K, n) digit rows: its distinct rows, sorted."""
        if not len(rows):
            raise ValidationError("a code needs at least one codeword")
        rows = np.take(rows, distinct_rows(rows, inverse=False)[0], axis=0)
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

    Only when the one array conversion or range check rejects it is the array
    built from `checked_rows()`, which checks item by item, so the first bad
    item raises.
    """
    try:
        array = np.array(rows(), dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError):
        array = None
    if array is None or array.shape[1:] != (width,) or not ((array >= 0) & (array < m)).all():
        array = np.array(checked_rows(), dtype=np.int64)
    return array


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
    ctx = code.context
    lam = (d - ctx.min_nonzero_weight) // ctx.max_weight
    k = ctx.labeling.k
    mu = 0 if lam == 0 else max(
        sum(k[i] for i in range(ctx.s) if mask >> i & 1) for mask in ctx.poset.ideal_masks(size=lam)
    )
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
    return code.size < 2 or radius <= _packing(code, budget)[0]


def _packing(
    code: Code, budget: int, distances: bool = False
) -> tuple[int, int | None, int | None]:
    """The packing radius rho of a code with K >= 2 words and its minimum
    distances d_w and d_H, after the vector budget check.

    On the chain route (see `_chain_blocks`) `_chain_packing` gives all
    three from one sort unless it declines.  Else the distances are found
    only when `distances` is set (else None): `_min_weights` gives them,
    and they then bound the walk: rho <= d_w - 1, since for codewords u, v
    at distance d_w the vector v lies in both B(u, d_w) and B(v, d_w).
    """
    check_vector_budget(code.context, budget)
    blocks = _chain_blocks(code.context)
    found = _chain_packing(code, blocks, budget) if blocks else None
    if found is not None:
        return found
    if not distances:
        return _walk(code, budget), None, None
    d, d_hamming = _min_weights(code)
    return _walk(code, budget, d), d, d_hamming


def _chain_blocks(ctx: SpaceContext) -> list[int] | None:
    """The chain route's blocks (0-based), bottom up, that is by down-set size,
    when the poset is a chain and the scalar weight is positive off 0; else None.

    Number the blocks 1..s up the chain and let M = max_weight.  A vector x
    whose top nonzero block is j has the ideal {1..j} with the one maximal
    block j, so W(x) = M (j - 1) + max_c w(x_c) over the coordinates c of
    block j, and M (j - 1) < W(x) <= M j.
    """
    if not ctx.poset.is_chain or ctx.min_nonzero_weight <= 0:
        return None
    return sorted(range(ctx.s), key=lambda i: ctx.poset.down[i].bit_count())


def _volume(ctx: SpaceContext, radius: int, budget: int) -> int:
    """|B(0, radius)| for radius >= 0, as an exact integer.

    Below the least nonzero weight it is 1: every x != 0 weighs at least
    that when w is positive off 0 (a zero off 0 makes that least weight at
    most 0 <= radius).  On the chain route (see `_chain_blocks`) it is

        1 + sum_j prod_{i<j} m^(k_i) * (F(min(M, radius - M (j - 1)))^(k_j) - 1)

    over the blocks j with radius - M (j - 1) >= 1, F(v) = #{a : w(a) <= v}.
    Proof: besides 0, the ball holds the x whose top block j has
    M (j - 1) + max_c w(x_c) <= radius (see `_chain_blocks`).  That asks
    nothing of the blocks below j, and of block j that it be nonzero with
    every coordinate of weight at most v = radius - M (j - 1); since
    w(a) >= 1 off 0, there is such an x only when v >= 1, and since w <= M,
    F(v) = F(min(M, v)).
    Otherwise it is one `searchsorted` of radius in the cached weight order.
    """
    if radius < ctx.min_nonzero_weight:
        return 1
    blocks = _chain_blocks(ctx)
    if not blocks:
        return int(np.searchsorted(weight_order(ctx, budget)[1], radius, side="right"))
    volume = below = 1
    for j, block in enumerate(blocks):
        room = radius - ctx.max_weight * j
        if room < 1:
            break
        fits = sum(w <= room for w in ctx.weight_fn.table)
        volume += below * (fits ** ctx.labeling.k[block] - 1)
        below *= ctx.m ** ctx.labeling.k[block]
    return volume


@lru_cache(maxsize=32)
def _split_weights(weight: WeightFunction) -> np.ndarray:
    """Read-only (m,) array: mu(y) = min_a max(w(a), w(y - a)) for y in Z_m,
    from the m x m table of max(w(a), w(y - a))."""
    table = np.asarray(weight.table, dtype=np.int64)
    elements = np.arange(weight.m)
    mu = np.maximum(table, table[(elements[:, None] - elements) % weight.m]).min(axis=1)
    mu.flags.writeable = False
    return mu


def _chain_packing(code: Code, blocks: list[int], budget: int) -> tuple[int, int, int] | None:
    """`_packing` on the chain route, with no whole-space table and no scan
    of all pairs: the packing radius rho = M (j* - 1) + gamma - 1 and the
    minimum distances d_w = M (j* - 1) + delta and d_H = j*.  None when the
    m x m split table or the coordinates of the in-group pairs would exceed
    the vector budget.

    Chain form of h.  Balls B(u, r) and B(v, r) meet iff some x has W(x) <= r
    and W(d - x) <= r, d = v - u, so rho = min_d h(d) - 1 over the nonzero
    differences d of codewords, with h(d) = min_x max(W(x), W(d - x)).  Let j
    be the top block of d and mu the split weight (`_split_weights`).  An x
    nonzero above j makes d - x nonzero there too, and both weigh more than
    M j (see `_chain_blocks`).  For x zero above j, one of x, d - x is nonzero
    on block j, and each of them is either zero there or weighs M (j - 1)
    plus its block-j maximum, so max(W(x), W(d - x)) >= M (j - 1) +
    max_c max(w(x_c), w(d_c - x_c)) >= M (j - 1) + max_c mu(d_c).  The x that
    takes on each coordinate c of block j an a attaining mu(d_c), and is 0
    elsewhere, reaches that bound, since d - x then weighs at most M (j - 1)
    below block j.  So h(d) = M (j - 1) + max_c mu(d_c), which lies in
    M (j - 1) + 1 .. M j because mu > 0 off 0: the least h has the least top
    block j*, and gamma is the least max_c mu(d_c) over the d with top block j*.

    Adjacent rows.  Sort the words with their columns taken from the top
    block down.  The top block of u - v is that of the first column where
    u and v differ.  Sorted rows that share a prefix are contiguous, so rows
    i < k share a prefix exactly when every adjacent pair between them does:
    their first differing column is the earliest among those adjacent pairs.
    Hence j* is the least top block of an adjacent pair, and the rows that
    agree on every block above j* form runs (the groups), cut where an
    adjacent pair's top block exceeds j*.

    Distinct in a group.  Two rows of a group agree above j*, so their top
    block is at most j*, and exactly j* by its minimality: their block-j*
    values differ.  So a group holds at most m^(k_j*) words, and the pairs
    of rows within groups are exactly the differences with top block j*.

    Distances.  A difference d with top block j weighs W(d) = M (j - 1) +
    max_c w(d_c) over block j (see `_chain_blocks`), in M (j - 1) + 1 .. M j,
    and its support's ideal is the blocks 1..j, so its Hamming weight is j.
    The least top block over all differences is j*, hence d_H = j*, and the
    least W is met among the differences with top block j*, the in-group
    pairs: d_w = M (j* - 1) + delta with delta the least max_c w(d_c) over
    them.  A pair is weighed with either sign, since w(-a) = w(a).
    """
    ctx = code.context
    if ctx.m**2 > budget:
        return None
    columns = [c for b in reversed(blocks) for c in range(ctx.offsets[b], ctx.offsets[b + 1])]
    position = np.repeat(np.arange(ctx.s, 0, -1), [ctx.labeling.k[b] for b in reversed(blocks)])
    # digits in the smallest signed type that holds a difference of two
    words = np.take(code.digits.astype(np.min_scalar_type(-ctx.m)), columns, axis=1)
    words = np.take(words, np.lexsort(words.T[::-1]), axis=0)
    tops = position[(words[1:] != words[:-1]).argmax(axis=1)]
    top = int(tops.min())
    # row i pairs with the rows after it up to its group's last row
    last = np.flatnonzero(np.append(tops != top, True))
    later = last[np.searchsorted(last, np.arange(code.size))] - np.arange(code.size)
    # block j*, one row per coordinate, so the maxima run along rows
    block = words[:, position == top].T
    if later.sum() * len(block) > budget:
        return None
    first, second = _pairs(later)
    # a difference -a < 0 indexes a table of Z_m from its end, at m - a
    pairs = np.take(block, second, axis=1) - np.take(block, first, axis=1)
    gamma = int(_split_weights(ctx.weight_fn)[pairs].max(axis=0).min())
    below = ctx.max_weight * (top - 1)
    delta = int(np.asarray(ctx.weight_fn.table)[pairs].max(axis=0).min())
    return below + gamma - 1, below + delta, top


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
    `d_w`, `d_H` and the packing radius rho: on the chain route from one
    sort of the codewords, else from one walk over the codeword differences
    and one walk over the translates of the zero ball below `d_w`.  The
    code is perfect when K * |B(0, rho)| = m^n (see `_volume`).
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

    On the natural chain this code is (t * max_weight)-perfect.  The tails
    are the rows of one digit grid and the heads one checked array (see
    `_checked_rows`), so the first bad tail raises.
    """
    require_natural_chain(ctx)
    tail_n = tail_length(ctx, t)
    head_n = ctx.n - tail_n
    tails = list(product(range(ctx.m), repeat=tail_n))
    heads = _checked_rows(lambda: [tail_map[tail] for tail in tails], head_n, ctx.m,
                          lambda: [_head(ctx, tail_map, tail, head_n) for tail in tails])
    return Code._canonical(ctx, np.concatenate([heads, digit_rows(ctx.m, tail_n)], axis=1))


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
