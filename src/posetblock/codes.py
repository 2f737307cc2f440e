"""Code analytics: minimum distance, Singleton bound, packing radius, perfection.

Codes are plain finite subsets of a weighted poset block space; linearity
is an optional certificate that is verified on construction and unlocks
the minimum-weight shortcut for distances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
from .tables import digit_table, two_smallest_code_distances, weight_table

TailMap = Mapping[tuple[int, ...], tuple[int, ...]] | Callable[[tuple[int, ...]], tuple[int, ...]]


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
        members = {v.coords for v in self.codewords}
        if self.context.zero().coords not in members:
            raise ValidationError("linear code must contain the zero vector")
        for u in self.codewords:
            for c in range(2, self.context.m):
                if u.scale(c).coords not in members:
                    raise ValidationError(f"not closed under scaling: {c} * {u.coords}")
            for v in self.codewords:
                if (u + v).coords not in members:
                    raise ValidationError(f"not closed under addition: {u.coords} + {v.coords}")

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
    """Smallest distance between distinct codewords."""
    if code.size < 2:
        raise TooSmallError("minimum distance needs at least two codewords")
    if code.linear:
        return min(v.weight() for v in code.codewords if not v.is_zero)
    return min(u.distance(v) for u, v in combinations(code.codewords, 2))


def hamming_min_distance(code: Code) -> int:
    """Minimum distance of the same codewords under the Hamming scalar weight."""
    return min_distance(code.in_context(code.context.hamming()))


def singleton_params(code: Code) -> SingletonParams:
    """Singleton data: ideal size, its best dimension sum, the bound, MDS flag."""
    ctx = code.context
    d = min_distance(code)
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
    _, d2 = _distance_profiles(code, budget)
    return int(d2.min()) - 1


def is_r_perfect(code: Code, radius: int, budget: int = DEFAULT_VECTOR_BUDGET) -> bool:
    """True when radius-`radius` balls around the codewords partition the space."""
    if radius < 0:
        raise NegativeRadiusError("radius must be nonnegative")
    d1, d2 = _distance_profiles(code, budget)
    return bool((d1 <= radius).all() and (d2 > radius).all())


def _distance_profiles(code: Code, budget: int):
    ctx = code.context
    weights = weight_table(ctx, budget)
    digits = digit_table(ctx, budget)
    return two_smallest_code_distances(ctx, code.coords_list(), weights, digits)


def analyze(code: Code, budget: int = DEFAULT_VECTOR_BUDGET) -> CodeReport:
    """Full report: distances, Singleton data, packing radius, perfection."""
    params = singleton_params(code)
    rho = packing_radius(code, budget)
    return CodeReport(
        size=code.size,
        min_distance=min_distance(code),
        hamming_min_distance=hamming_min_distance(code),
        ideal_size=params.ideal_size,
        ideal_dimension=params.ideal_dimension,
        singleton_bound=params.bound,
        is_mds=params.is_mds,
        packing_radius=rho,
        is_perfect=is_r_perfect(code, rho, budget),
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
    lookup = tail_map if callable(tail_map) else tail_map.__getitem__
    words = []
    for tail in product(range(ctx.m), repeat=ctx.n - head_n):
        try:
            head = tuple(int(c) for c in lookup(tail))
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
    d = min_distance(code)
    d_h = hamming_min_distance(code)
    applicable = d == ctx.min_nonzero_weight + (d_h - 1) * ctx.max_weight
    mds = singleton_params(code).is_mds
    perfect = is_r_perfect(code, packing_radius(code, budget), budget)
    consistent = (mds == perfect) if applicable else True
    return MdsPerfectCheck(applicable, mds, perfect, consistent)


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


def enumerate_linear_codes(ctx: SpaceContext, max_generators: int | None = None) -> Iterator[Code]:
    """Every span of at most n vectors (all submodules at desk scale)."""
    if ctx.size > 64:
        raise BudgetError("linear-code enumeration is meant for tiny spaces")
    limit = ctx.n if max_generators is None else max_generators
    nonzero = [v for v in ctx.vectors() if not v.is_zero]
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for count in range(limit + 1):
        for gens in combinations(nonzero, count):
            code = Code.from_generator(ctx, [g.coords for g in gens])
            key = tuple(code.coords_list())
            if key not in seen:
                seen.add(key)
                yield code
