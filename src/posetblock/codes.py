"""Code analytics: minimum distance, Singleton bound, packing radius, perfection.

Codes are plain finite subsets of a weighted poset block space; linearity
is an optional certificate that is verified on construction and unlocks
the minimum-weight shortcut for distances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, Sequence

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
from .space import DEFAULT_VECTOR_BUDGET, BlockVector, SpaceContext
from .tables import block_max_table, digit_table, profile_weights, rank_powers, weight_table

_CHUNK = 1 << 18  # coordinates of the largest vector array one step of a code scan builds

TailMap = Mapping[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class Code:
    """Deduplicated, lexicographically sorted codewords over one context."""

    context: SpaceContext
    codewords: tuple[BlockVector, ...]
    linear: bool = False
    generator: tuple[BlockVector, ...] | None = None

    @classmethod
    def from_words(
        cls,
        ctx: SpaceContext,
        words: Iterable[Sequence[int] | BlockVector],
        linear: bool = False,
    ) -> Code:
        seen = {}
        for w in words:
            v = w if isinstance(w, BlockVector) else ctx.vector(w)
            if v.context != ctx:
                raise ValidationError("codeword built over a different context")
            seen[v.coords] = v
        if not seen:
            raise ValidationError("a code needs at least one codeword")
        codewords = tuple(seen[c] for c in sorted(seen))
        code = cls(ctx, codewords, linear=linear)
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
        """Span of the generator rows over Z_m."""
        gens = tuple(ctx.vector(r) for r in rows)
        if ctx.m ** len(gens) > budget:
            raise BudgetError(f"span of {len(gens)} rows over Z_{ctx.m} exceeds budget")
        span = {}
        for coeffs in product(range(ctx.m), repeat=len(gens)):
            v = ctx.zero()
            for c, g in zip(coeffs, gens):
                v = v + g.scale(c)
            span[v.coords] = v
        codewords = tuple(span[c] for c in sorted(span))
        return cls(ctx, codewords, linear=True, generator=gens)

    def _check_linear(self) -> None:
        """Raise on the first codeword u, in order, with a multiple c * u
        (c = 2..m-1) or a sum u + v outside the code, multiples first.

        Vectors are compared by rank with the sorted member ranks, in steps
        of at most about `_CHUNK` coordinates (one codeword's at the least).
        """
        ctx = self.context
        if not self.codewords[0].is_zero:
            raise ValidationError("linear code must contain the zero vector")
        words = np.asarray(self.coords_list(), dtype=np.int64)
        # Python integers where a rank may overflow int64
        wide = np.int64 if ctx.size <= np.iinfo(np.int64).max else object
        powers = np.asarray([ctx.m ** (ctx.n - 1 - pos) for pos in range(ctx.n)], dtype=wide)
        members = words @ powers
        multiples = np.arange(2, ctx.m)[:, None]
        step = max(1, _CHUNK // ((len(multiples) + len(words)) * ctx.n))
        for start in range(0, len(words), step):
            rows = words[start : start + step, None, :]
            # per codeword u: its multiples, then its sums with every codeword v
            ranks = np.concatenate([rows * multiples, rows + words], axis=1) % ctx.m @ powers
            found = members[np.minimum(np.searchsorted(members, ranks), len(members) - 1)]
            for i, j in np.argwhere(found != ranks)[:1].tolist():
                u = self.codewords[start + i].coords
                if j < len(multiples):
                    raise ValidationError(f"not closed under scaling: {j + 2} * {u}")
                v = self.codewords[j - len(multiples)].coords
                raise ValidationError(f"not closed under addition: {u} + {v}")

    @property
    def size(self) -> int:
        return len(self.codewords)

    def coords_list(self) -> list[tuple[int, ...]]:
        return [v.coords for v in self.codewords]

    def in_context(self, ctx: SpaceContext) -> Code:
        """The same codeword set reinterpreted in another context of equal n, m."""
        return Code.from_words(ctx, self.coords_list(), linear=self.linear)


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
    return _min_weight(code, code.context)


def hamming_min_distance(code: Code) -> int:
    """Minimum distance of the same codewords under the Hamming scalar weight.

    Runs `min_distance`'s routine with the weights of `code.context.hamming()`.
    """
    return _min_weight(code, code.context.hamming())


def _min_weight(code: Code, ctx: SpaceContext) -> int:
    """Smallest weight in `ctx` of the differences that `min_distance` names."""
    if code.size < 2:
        raise TooSmallError("minimum distance needs at least two codewords")
    return min(
        int(profile_weights(ctx, block_max_table(ctx, rows)).min())
        for rows in _differences(code)
    )


def _differences(code: Code) -> Iterator[np.ndarray]:
    """The difference rows of `min_distance`, in steps of at most about
    `_CHUNK` coordinates (one codeword's pairs at the least)."""
    ctx = code.context
    words = np.asarray(code.coords_list(), dtype=np.int64)
    if code.linear:
        nonzero = words[words.any(axis=1)]
        yield from np.array_split(nonzero, -(-nonzero.size // _CHUNK))
        return
    step = max(1, _CHUNK // (len(words) * ctx.n))
    for start in range(0, len(words) - 1, step):
        first = np.arange(start, min(start + step, len(words) - 1))
        later = np.arange(start + 1, len(words))
        pairs = (words[first, None, :] - words[None, later, :]) % ctx.m
        yield pairs[later[None, :] > first[:, None]]


def singleton_params(code: Code) -> SingletonParams:
    """Singleton data: ideal size, its best dimension sum, the bound, MDS flag."""
    return _singleton_params(code, min_distance(code))


def _singleton_params(code: Code, d: int) -> SingletonParams:
    ctx = code.context
    lam = (d - ctx.min_nonzero_weight) // ctx.max_weight
    if lam == 0:
        mu = 0
    else:
        k = ctx.labeling.k
        mu = max(
            sum(k[i] for i in range(ctx.s) if mask >> i & 1)
            for mask in ctx.poset.ideal_masks(size=lam)
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

    The K balls are translates of B(0, radius) (see `_packing`), so they
    partition the m^n vectors exactly when K * |B(0, radius)| = m^n and,
    for K >= 2, they are pairwise disjoint, that is radius <= rho.
    """
    if radius < 0:
        raise NegativeRadiusError("radius must be nonnegative")
    ctx = code.context
    volume = np.count_nonzero(weight_table(ctx, budget) <= radius)
    if code.size * volume != ctx.size:
        return False
    return code.size < 2 or radius <= _packing(code, budget)[0]


def _packing(code: Code, budget: int) -> tuple[int, bool]:
    """The packing radius rho of a code with K >= 2 words, and whether it is
    rho-perfect.

    With d(x, c) = W(x - c), the ball B(c, r) is the translate c + B(0, r).
    The shells of B(0, r) are added in increasing weight w, and the ranks of
    their translates c + b marked in one boolean array of m^n entries, in
    steps of at most about `_CHUNK` coordinates.  Since c + b = c + b' forces
    b = b', a rank met twice lies in the balls of two distinct codewords:
    the radius-(w - 1) balls are disjoint and the radius-w balls meet at that
    vector, so rho = w - 1 for the first weight w at which a translate
    repeats.  The K translates of B(0, w) are K * |B(0, w)| vectors, so a
    repeat is certain once that exceeds m^n, and the walk stops there
    without marking: it never marks more than m^n translates.  The vectors
    of weight below w are B(0, rho), so the code is rho-perfect exactly when
    the marked translates, K * |B(0, rho)| disjoint ones, cover m^n.
    """
    ctx = code.context
    weights = weight_table(ctx, budget)
    digits = digit_table(ctx, budget)
    order = np.argsort(weights, kind="stable")
    ranked = weights[order]
    shells = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), ctx.size]
    words = np.asarray(code.coords_list(), dtype=np.int64)
    powers = rank_powers(ctx)
    marked = np.zeros(ctx.size, dtype=bool)
    step = max(1, _CHUNK // ctx.n)

    def repeats(low: int, high: int) -> bool:
        """Mark the translates of the shell order[low:high]; True at the first repeat."""
        pairs = range(low * code.size, high * code.size)
        for start in pairs[::step]:
            row, word = np.divmod(np.arange(start, min(start + step, pairs.stop)), code.size)
            ranks = np.sort((digits[order[row]] + words[word]) % ctx.m @ powers)
            if marked[ranks].any() or (ranks[1:] == ranks[:-1]).any():
                return True
            marked[ranks] = True
        return False

    for low, high in zip(shells, shells[1:]):
        if code.size * high > ctx.size or repeats(low, high):
            break
    return int(ranked[low]) - 1, code.size * low == ctx.size


def analyze(code: Code, budget: int = DEFAULT_VECTOR_BUDGET) -> CodeReport:
    """Full report: distances, Singleton data, packing radius, perfection.

    The minimum distances `d_w` and `d_H` are each computed once, and one
    walk over the translates of the zero ball (`_packing`) gives both the
    packing radius and perfection.
    """
    d = min_distance(code)
    params = _singleton_params(code, d)
    rho, is_perfect = _packing(code, budget)
    if rho < 0:
        raise NegativeRadiusError("radius must be nonnegative")
    return CodeReport(
        size=code.size,
        min_distance=d,
        hamming_min_distance=hamming_min_distance(code),
        ideal_size=params.ideal_size,
        ideal_dimension=params.ideal_dimension,
        singleton_bound=params.bound,
        is_mds=params.is_mds,
        packing_radius=rho,
        is_perfect=is_perfect,
    )


# -- chain constructions ----------------------------------------------------


def _require_natural_chain(ctx: SpaceContext) -> None:
    if not ctx.poset.is_natural_chain:
        raise NotChainError("operation requires the chain 1 < 2 < .. < s")


def tail_length(ctx: SpaceContext, t: int) -> int:
    if not 0 <= t <= ctx.s:
        raise ArityError(f"block count t={t} outside 0..{ctx.s}")
    return ctx.n - ctx.offsets[t]


def perfect_code_from_function(ctx: SpaceContext, t: int, tail_map: TailMap) -> Code:
    """Graph code {(f(v), v)} over all tails v of the last s - t blocks.

    On the natural chain this code is (t * max_weight)-perfect.
    """
    _require_natural_chain(ctx)
    head_n = ctx.n - tail_length(ctx, t)
    words = []
    for tail in product(range(ctx.m), repeat=ctx.n - head_n):
        try:
            head = tuple(int(c) for c in tail_map[tail])
        except KeyError:
            raise ArityError(f"function table misses tail {tail}") from None
        if len(head) != head_n:
            raise ArityError(f"head {head} must have {head_n} coordinates")
        if any(not 0 <= c < ctx.m for c in head):
            raise ArityError(f"head {head} has coordinates outside 0..{ctx.m - 1}")
        words.append(head + tail)
    return Code.from_words(ctx, words)


def identity_tail_map(ctx: SpaceContext, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Copy shared leading coordinates from tail to head, zero-pad the rest."""
    head_n = ctx.n - tail_length(ctx, t)
    out = {}
    for tail in product(range(ctx.m), repeat=ctx.n - head_n):
        head = (tail + (0,) * head_n)[:head_n]
        out[tail] = head
    return out


def zero_tail_map(ctx: SpaceContext, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    head_n = ctx.n - tail_length(ctx, t)
    return {
        tail: (0,) * head_n
        for tail in product(range(ctx.m), repeat=ctx.n - head_n)
    }


def random_tail_map(
    ctx: SpaceContext, t: int, rng: random.Random
) -> dict[tuple[int, ...], tuple[int, ...]]:
    head_n = ctx.n - tail_length(ctx, t)
    return {
        tail: tuple(rng.randrange(ctx.m) for _ in range(head_n))
        for tail in product(range(ctx.m), repeat=ctx.n - head_n)
    }


def reconstruct_tail_map(code: Code, t: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Invert the graph construction; fails unless every tail appears exactly once."""
    ctx = code.context
    _require_natural_chain(ctx)
    head_n = ctx.n - tail_length(ctx, t)
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for v in code.codewords:
        head, tail = v.coords[:head_n], v.coords[head_n:]
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
