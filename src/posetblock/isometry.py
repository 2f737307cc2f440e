"""Linear isometries of a weighted poset block space.

Block matrices act on column vectors over Z_m.  The group of weight-
preserving invertible maps is enumerated by a column-by-column search that
keeps a partial map only while it preserves the weight on the span of the
columns chosen so far (or, for cross-validation, by scanning every matrix),
every member is factored into a block-triangular part composed with a block
permutation lifted from a labeled poset automorphism, and the factorization
is checked to be exact and unique, so that the group order equals the
product of the two factors' orders.  The same isometry test and search
also check and count the diagonal blocks of the triangular part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from math import prod
from typing import Iterator, Sequence

import numpy as np

from .algebra import has_min_weight_unit
from .errors import (
    BudgetError,
    ContextMismatchError,
    DecompositionError,
    NonPrincipalError,
    NotIsometryError,
    NotLabeledAutomorphismError,
    SizeMismatchError,
)
from .poset import Labeling, Permutation, Poset
from .space import DEFAULT_VECTOR_BUDGET, BlockVector, SpaceContext
from .tables import digit_table, rank_powers, weight_table

DEFAULT_MATRIX_BUDGET = 1 << 24


@dataclass(frozen=True)
class BlockMatrix:
    """Square matrix over Z_m acting on column vectors of the space."""

    context: SpaceContext
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, ctx: SpaceContext, rows: Sequence[Sequence[int]]) -> BlockMatrix:
        n = ctx.n
        table = tuple(tuple(int(v) % ctx.m for v in row) for row in rows)
        if len(table) != n or any(len(row) != n for row in table):
            raise SizeMismatchError(f"matrix must be {n}x{n}")
        return cls(ctx, table)

    @classmethod
    def identity(cls, ctx: SpaceContext) -> BlockMatrix:
        n = ctx.n
        return cls(ctx, tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n)))

    def apply(self, u: BlockVector) -> BlockVector:
        if u.context != self.context:
            raise ContextMismatchError("vector belongs to a different context")
        m = self.context.m
        coords = tuple(
            sum(a * b for a, b in zip(row, u.coords)) % m for row in self.rows
        )
        return BlockVector(self.context, coords)

    def compose(self, other: BlockMatrix) -> BlockMatrix:
        """Matrix of self after other (matrix product)."""
        if other.context != self.context:
            raise ContextMismatchError("matrices over different contexts")
        m = self.context.m
        n = self.context.n
        cols = list(zip(*other.rows))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, cols[c])) % m for c in range(n))
            for row in self.rows
        )
        return BlockMatrix(self.context, rows)

    def block(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """The k_i x k_j sub-matrix mapping block j into block i."""
        rs = self.context.block_slice(i)
        cs = self.context.block_slice(j)
        return tuple(row[cs] for row in self.rows[rs])


@dataclass(frozen=True)
class IsometryDecomposition:
    """Factorization T = triangular . lift(automorphism)."""

    automorphism: Permutation
    triangular: BlockMatrix


@dataclass(frozen=True)
class GroupReport:
    gl_order: int
    u_order: int
    aut_order: int
    product_matches: bool
    all_decomposed: bool
    members: tuple[BlockMatrix, ...] = field(default=(), repr=False)


# -- membership tests ---------------------------------------------------------


def is_isometry(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> bool:
    """Invertible and weight-preserving on every vector of the space."""
    return _is_isometry_fast(T, *_tables(T.context, budget))


def _tables(ctx: SpaceContext, budget: int = DEFAULT_VECTOR_BUDGET) -> tuple[np.ndarray, ...]:
    """Weights, digits and rank powers of every vector of the space."""
    return weight_table(ctx, budget), digit_table(ctx, budget), rank_powers(ctx)


def _is_isometry_fast(
    T: BlockMatrix, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray
) -> bool:
    mats = np.asarray([T.rows], dtype=np.int64)
    return _all_isometries(mats, T.context.m, weights, digits, powers)


def _all_isometries(
    mats: np.ndarray, m: int, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray
) -> bool:
    """Whether each matrix of the (b, n, n) stack is an isometry of the tables' space."""
    image_ranks = (digits.astype(np.int64) @ mats.transpose(0, 2, 1) % m) @ powers
    if not (weights[image_ranks] == weights).all():
        return False
    return bool((np.sort(image_ranks, axis=1) == np.arange(len(weights))).all())


def from_automorphism(phi: Permutation, ctx: SpaceContext) -> BlockMatrix:
    """Block permutation matrix sending block i identically onto block phi(i)."""
    if not ctx.poset.is_labeled_automorphism(phi, ctx.labeling):
        raise NotLabeledAutomorphismError(
            f"{phi.image} is not a block-size-preserving poset automorphism"
        )
    n = ctx.n
    rows = [[0] * n for _ in range(n)]
    for i in ctx.poset.elements:
        src = ctx.offsets[i - 1]
        dst = ctx.offsets[phi(i) - 1]
        for l in range(ctx.labeling.k[i - 1]):
            rows[dst + l][src + l] = 1
    return BlockMatrix(ctx, tuple(tuple(r) for r in rows))


def in_triangular_group(T: BlockMatrix) -> bool:
    """Block-triangular with respect to the poset, with weight-preserving diagonal.

    T must vanish on every block (i, j) with i not below j, and each diagonal
    block T_rr must preserve the block-max weight: be an isometry of the
    one-block space Z_m^(k_r) (tables within the default vector budget).
    """
    ctx = T.context
    poset = ctx.poset
    supports = _column_supports(T)
    for j in poset.elements:
        if any(supp & ~poset.down[j - 1] for supp in supports[ctx.block_slice(j)]):
            return False
    for k in set(ctx.labeling.k):
        blocks = np.asarray(
            [T.block(r, r) for r in poset.elements if ctx.labeling.k[r - 1] == k], dtype=np.int64
        )
        if not _all_isometries(blocks, ctx.m, *_tables(_block_space(ctx, k))):
            return False
    return True


def _block_space(ctx: SpaceContext, k: int) -> SpaceContext:
    """The one-block space Z_m^k with the alphabet and weight of `ctx`."""
    return SpaceContext(Poset.chain(1), Labeling((k,)), ctx.alphabet, ctx.weight_fn)


def _column_supports(T: BlockMatrix) -> list[int]:
    """Per column, the 0-based bitmask of the blocks where it is nonzero."""
    ctx = T.context
    masks = [0] * ctx.n
    for i in ctx.poset.elements:
        for row in T.rows[ctx.block_slice(i)]:
            for c, entry in enumerate(row):
                if entry:
                    masks[c] |= 1 << (i - 1)
    return masks


# -- factorization -------------------------------------------------------------


def induced_automorphism(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> Permutation:
    """The block permutation taking i to the generator of T(V_i)'s support ideal.

    Only defined for isometries; the support ideal of the image of any
    nonzero block vector is then principal, and the map is a labeled
    automorphism.
    """
    if not is_isometry(T, budget):
        raise NotIsometryError("map does not preserve the weight")
    return _block_map(T)


def _block_map(T: BlockMatrix) -> Permutation:
    """The induced block permutation of a map already known to be an isometry.

    Block i goes to the generator of the support ideal of T's column at the
    block's first coordinate, the image of that basis vector.
    """
    ctx = T.context
    supports = _column_supports(T)
    image = []
    for i in ctx.poset.elements:
        maximal = ctx.poset.maximal_mask(ctx.poset.ideal_mask(supports[ctx.offsets[i - 1]]))
        if maximal.bit_count() != 1:
            raise NonPrincipalError(
                f"support ideal of the image of block {i} has maximal set "
                f"{sorted(e + 1 for e in range(ctx.s) if maximal >> e & 1)}"
            )
        image.append(maximal.bit_length())
    try:
        return Permutation(tuple(image))
    except ValueError as exc:
        raise NonPrincipalError(f"induced block map {image} is not a bijection") from exc


def decompose(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> IsometryDecomposition:
    """Factor an isometry as triangular part composed with automorphism lift."""
    phi = induced_automorphism(T, budget)
    try:
        lift = from_automorphism(phi, T.context)
    except NotLabeledAutomorphismError as exc:
        raise DecompositionError(f"induced map {phi.image} is not a labeled automorphism") from exc
    return _factor(T, phi, lift)


def _factor(T: BlockMatrix, phi: Permutation, lift: BlockMatrix) -> IsometryDecomposition:
    """Factorization of an isometry T with block map phi, given phi's lift."""
    # T . lift^-1 = T . lift^T: column c of it is column lift.rows[c].index(1) of T
    sources = [row.index(1) for row in lift.rows]
    triangular = BlockMatrix(T.context, tuple(tuple(row[p] for p in sources) for row in T.rows))
    if not in_triangular_group(triangular):
        raise DecompositionError("triangular factor fails the membership conditions")
    if triangular.compose(lift) != T:
        raise DecompositionError("recomposition does not reproduce the map")
    return IsometryDecomposition(phi, triangular)


# -- group enumeration ---------------------------------------------------------


def enumerate_isometry_group(
    ctx: SpaceContext,
    budget: int = DEFAULT_VECTOR_BUDGET,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
    exhaustive: bool = False,
) -> list[BlockMatrix]:
    """All weight-preserving invertible linear maps, in canonical row order.

    The default search picks the image of each basis vector e_c, column by
    column, among the vectors of weight w(e_c), and keeps a partial map only
    if it preserves the weight on all m^(c+1) vectors of the span of the
    columns chosen so far.  The rule assumes nothing about the weight, so the
    search is exact; a map preserving the weight of every vector is injective,
    so every complete candidate is a member, and each is still verified
    exhaustively.  `matrix_budget` bounds the candidate images tested, one per
    partial map and same-weight vector, counted as the search runs.
    `exhaustive` scans all m^(n^2) matrices instead, for cross-validation on
    tiny spaces; there `matrix_budget` bounds m^(n^2) before any is built.
    """
    return sorted(_isometries(ctx, budget, matrix_budget, exhaustive), key=lambda t: t.rows)


def _isometries(
    ctx: SpaceContext, budget: int, matrix_budget: int, exhaustive: bool
) -> Iterator[BlockMatrix]:
    """The members of the group in search order; see `enumerate_isometry_group`."""
    weights, digits, powers = _tables(ctx, budget)
    n, m = ctx.n, ctx.m
    if exhaustive:
        if m ** (n * n) > matrix_budget:
            raise BudgetError(f"{m ** (n * n)} candidate matrices exceed budget {matrix_budget}")
        for entries in product(range(m), repeat=n * n):
            T = BlockMatrix(ctx, tuple(entries[r * n : (r + 1) * n] for r in range(n)))
            if _is_isometry_fast(T, weights, digits, powers):
                yield T
        return

    scalars = np.arange(m, dtype=digits.dtype)[:, None]
    pools = [np.nonzero(weights == weights[p])[0] for p in powers]
    columns: list[tuple[int, ...]] = []
    tested = 0

    def extend(span: np.ndarray) -> Iterator[BlockMatrix]:
        # span[x] holds the image digits of the domain vector of rank x * m^(n-c)
        nonlocal tested
        c = len(columns)
        if c == n:
            T = BlockMatrix(ctx, tuple(zip(*columns)))
            if _is_isometry_fast(T, weights, digits, powers):
                yield T
            return
        expected = weights[:: m ** (n - 1 - c)]
        for rank in pools[c]:
            tested += 1
            if tested > matrix_budget:
                raise BudgetError(f"isometry search tests more than {matrix_budget} candidate images")
            image = ((span[:, None, :] + scalars * digits[rank]) % m).reshape(-1, n)
            if (weights[image @ powers] == expected).all():
                columns.append(tuple(digits[rank].tolist()))
                yield from extend(image)
                columns.pop()

    yield from extend(np.zeros((1, n), dtype=digits.dtype))


def triangular_group_order(
    ctx: SpaceContext, matrix_budget: int = DEFAULT_MATRIX_BUDGET, exhaustive: bool = False
) -> int:
    """Order of the block-triangular subgroup, counted block by block.

    A diagonal block of size k is an isometry of the one-block space Z_m^k
    (see `in_triangular_group`), counted once per k by the group search or,
    with `exhaustive`, scan; blocks over strict relations are free.
    """
    diag_counts = {
        k: sum(1 for _ in _isometries(
            _block_space(ctx, k), DEFAULT_VECTOR_BUDGET, matrix_budget, exhaustive
        ))
        for k in set(ctx.labeling.k)
    }
    free = sum(
        ctx.labeling.k[i - 1] * ctx.labeling.k[j - 1]
        for i in ctx.poset.elements
        for j in ctx.poset.elements
        if i != j and ctx.poset.leq(i, j)
    )
    return prod(diag_counts[k] for k in ctx.labeling.k) * ctx.m**free


def verify_semidirect(
    ctx: SpaceContext,
    budget: int = DEFAULT_VECTOR_BUDGET,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
    exhaustive: bool = False,
) -> GroupReport:
    """Brute-force check that the isometry group factors as claimed.

    Enumerates the full group, counts the triangular subgroup and the
    labeled automorphisms, and factorizes every member, requiring exact
    unique recomposition and matching order product.  The search has
    already verified each member, so the factorization does not re-test it,
    and lifts each automorphism once.  The triangular count uses the same
    search or, with `exhaustive`, scan as the group.

    The factorization rests on the structural results on isometries, which
    assume some multiplicative unit attains the minimum nonzero weight; over
    a ring weight without one, this warns once.
    """
    if not ctx.alphabet.is_field and not has_min_weight_unit(ctx.alphabet, ctx.weight_fn):
        warnings.warn(
            "no unit attains the minimum nonzero weight over this ring; "
            "the structural guarantees behind the factorization are not warranted",
            RuntimeWarning,
            stacklevel=2,
        )
    group = enumerate_isometry_group(ctx, budget, matrix_budget, exhaustive)
    u_order = triangular_group_order(ctx, matrix_budget, exhaustive)
    automorphisms = ctx.poset.labeled_automorphisms(ctx.labeling)
    lifts = {phi: from_automorphism(phi, ctx) for phi in automorphisms}
    factors = set()
    for T in group:
        try:
            phi = _block_map(T)
            dec = _factor(T, phi, lifts[phi])
        except (NonPrincipalError, DecompositionError, KeyError):
            continue  # KeyError: the block map is no labeled automorphism
        factors.add((dec.automorphism.image, dec.triangular.rows))
    return GroupReport(
        gl_order=len(group),
        u_order=u_order,
        aut_order=len(lifts),
        product_matches=len(group) == u_order * len(lifts),
        all_decomposed=len(factors) == len(group),
        members=tuple(group),
    )
