"""Linear isometries of a weighted poset block space.

Block matrices act on column vectors over Z_m.  The group of weight-
preserving invertible maps is enumerated by brute force (with a pruned
candidate search by default), every member is factored into a block-
triangular part composed with a block permutation lifted from a labeled
poset automorphism, and the factorization is checked to be exact and
unique, so that the group order equals the product of the two factors'
orders.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field
from itertools import product
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
from .poset import Permutation
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
    ctx = T.context
    weights = weight_table(ctx, budget)
    digits = digit_table(ctx, budget)
    return _is_isometry_fast(T, weights, digits, rank_powers(ctx))


def _is_isometry_fast(
    T: BlockMatrix, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray
) -> bool:
    m = T.context.m
    mat = np.asarray(T.rows, dtype=np.int64)
    image_digits = digits.astype(np.int64) @ mat.T % m
    image_ranks = image_digits @ powers
    if not (weights[image_ranks] == weights).all():
        return False
    return len(np.unique(image_ranks)) == len(weights)


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

    Requires zero blocks wherever the row block is not below the column
    block, unit-weight columns in each diagonal block, and block-max weight
    preservation of the diagonal action, checked over all block vectors.
    """
    ctx = T.context
    poset = ctx.poset
    for i in poset.elements:
        for j in poset.elements:
            if not poset.leq(i, j) and any(any(row) for row in T.block(i, j)):
                return False
    return all(_diagonal_block_ok(ctx, T.block(r, r)) for r in poset.elements)


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
    """The induced block permutation of a map already known to be an isometry."""
    image = [_principal_target(T, i) for i in T.context.poset.elements]
    try:
        return Permutation(tuple(image))
    except ValueError as exc:
        raise NonPrincipalError(f"induced block map {image} is not a bijection") from exc


def _principal_target(T: BlockMatrix, i: int) -> int:
    ctx = T.context
    v = ctx.basis_vector(i, 1)
    supp = T.apply(v).support()
    ideal = ctx.poset.ideal_mask(sum(1 << (e - 1) for e in supp))
    maximal = ctx.poset.maximal_mask(ideal)
    if maximal.bit_count() != 1:
        raise NonPrincipalError(
            f"support ideal of the image of block {i} has maximal set "
            f"{sorted(e + 1 for e in range(ctx.s) if maximal >> e & 1)}"
        )
    return maximal.bit_length()


def decompose(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> IsometryDecomposition:
    """Factor an isometry as triangular part composed with automorphism lift."""
    if not is_isometry(T, budget):
        raise NotIsometryError("map does not preserve the weight")
    return _factor(T)


def _factor(T: BlockMatrix) -> IsometryDecomposition:
    """Factorization of a map already known to be an isometry."""
    phi = _block_map(T)
    try:
        lift = from_automorphism(phi, T.context)
    except NotLabeledAutomorphismError as exc:
        raise DecompositionError(f"induced map {phi.image} is not a labeled automorphism") from exc
    # the lift is a permutation matrix, so its transpose is its inverse
    triangular = T.compose(BlockMatrix(T.context, tuple(zip(*lift.rows))))
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

    The default search restricts the candidate images of each block's basis
    vectors to vectors generating a principal ideal of matching cardinality
    and block dimension, with unit weight in the generating block; every
    candidate is then verified exhaustively.  `exhaustive` scans all m^(n^2)
    matrices instead, for cross-validation on tiny spaces.

    The candidate restriction is warranted by the structural results on
    isometries, which assume some multiplicative unit attains the minimum
    nonzero weight; a pruned search on a ring weight without one warns.
    """
    if not exhaustive:
        _warn_if_unwarranted(ctx)
    weights = weight_table(ctx, budget)
    digits = digit_table(ctx, budget)
    powers = rank_powers(ctx)

    if exhaustive:
        total = ctx.m ** (ctx.n * ctx.n)
        if total > matrix_budget:
            raise BudgetError(f"{total} candidate matrices exceed budget {matrix_budget}")
        found = [
            T
            for entries in product(range(ctx.m), repeat=ctx.n * ctx.n)
            for T in (_matrix_from_flat(ctx, entries),)
            if _is_isometry_fast(T, weights, digits, powers)
        ]
        return sorted(found, key=lambda t: t.rows)

    targets = [_compatible_targets(ctx, i) for i in ctx.poset.elements]
    pools = {
        (i, j): _candidate_images(ctx, j)
        for i in ctx.poset.elements
        for j in targets[i - 1]
    }
    total = 1
    for i in ctx.poset.elements:
        per_block = sum(
            len(pools[(i, j)]) ** ctx.labeling.k[i - 1] for j in targets[i - 1]
        )
        total *= per_block
    if total > matrix_budget:
        raise BudgetError(f"{total} pruned candidates exceed budget {matrix_budget}")

    found = []
    for T in _assemble_candidates(ctx, targets, pools):
        if _is_isometry_fast(T, weights, digits, powers):
            found.append(T)
    return sorted(found, key=lambda t: t.rows)


def _matrix_from_flat(ctx: SpaceContext, entries: tuple[int, ...]) -> BlockMatrix:
    n = ctx.n
    return BlockMatrix(ctx, tuple(entries[r * n : (r + 1) * n] for r in range(n)))


def _compatible_targets(ctx: SpaceContext, i: int) -> list[int]:
    poset = ctx.poset
    size = poset.down[i - 1].bit_count()
    return [
        j
        for j in poset.elements
        if poset.down[j - 1].bit_count() == size
        and ctx.labeling.k[j - 1] == ctx.labeling.k[i - 1]
    ]


def _candidate_images(ctx: SpaceContext, j: int) -> list[tuple[int, ...]]:
    """Vectors supported inside the ideal of j whose block j has unit weight."""
    w = ctx.weight_fn
    unit = w(1)
    below = ctx.poset.down[j - 1] & ~(1 << (j - 1))
    per_block: list[list[tuple[int, ...]]] = []
    for b in ctx.poset.elements:
        k = ctx.labeling.k[b - 1]
        if b == j:
            choices = [
                blk
                for blk in product(range(ctx.m), repeat=k)
                if max(w(c) for c in blk) == unit
            ]
        elif below >> (b - 1) & 1:
            choices = list(product(range(ctx.m), repeat=k))
        else:
            choices = [(0,) * k]
        per_block.append(choices)
    return [tuple(c for blk in combo for c in blk) for combo in product(*per_block)]


def _assemble_candidates(
    ctx: SpaceContext,
    targets: list[list[int]],
    pools: dict[tuple[int, int], list[tuple[int, ...]]],
) -> Iterator[BlockMatrix]:
    n = ctx.n
    block_choices = []
    for i in ctx.poset.elements:
        k = ctx.labeling.k[i - 1]
        options = []
        for j in targets[i - 1]:
            options.extend(product(pools[(i, j)], repeat=k))
        block_choices.append(options)
    for assignment in product(*block_choices):
        cols: list[tuple[int, ...]] = []
        for block_cols in assignment:
            cols.extend(block_cols)
        rows = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
        yield BlockMatrix(ctx, rows)


def triangular_group_order(
    ctx: SpaceContext, matrix_budget: int = DEFAULT_MATRIX_BUDGET
) -> int:
    """Order of the block-triangular subgroup, counted block by block.

    Diagonal blocks are enumerated exhaustively against the membership
    conditions; blocks over strict relations i < j are free.
    """
    diag_counts: dict[int, int] = {}
    for k in set(ctx.labeling.k):
        total = ctx.m ** (k * k)
        if total > matrix_budget:
            raise BudgetError(f"{total} diagonal candidates exceed budget {matrix_budget}")
        diag_counts[k] = sum(
            1
            for entries in product(range(ctx.m), repeat=k * k)
            if _diagonal_block_ok(ctx, tuple(entries[r * k : (r + 1) * k] for r in range(k)))
        )
    order = 1
    for k in ctx.labeling.k:
        order *= diag_counts[k]
    free = sum(
        ctx.labeling.k[i - 1] * ctx.labeling.k[j - 1]
        for i in ctx.poset.elements
        for j in ctx.poset.elements
        if i != j and ctx.poset.leq(i, j)
    )
    return order * ctx.m**free


def _diagonal_block_ok(ctx: SpaceContext, block: tuple[tuple[int, ...], ...]) -> bool:
    w = ctx.weight_fn
    unit = w(1)
    k = len(block)
    cols = list(zip(*block))
    if any(max(w(c) for c in col) != unit for col in cols):
        return False
    for beta in product(range(ctx.m), repeat=k):
        image = tuple(sum(a * b for a, b in zip(row, beta)) % ctx.m for row in block)
        if max(w(c) for c in image) != max(w(c) for c in beta):
            return False
    return True


def _warn_if_unwarranted(ctx: SpaceContext) -> None:
    if not ctx.alphabet.is_field and not has_min_weight_unit(ctx.alphabet, ctx.weight_fn):
        # attribute the warning to the first caller outside this module
        frame, level = sys._getframe(1), 2
        while frame.f_back is not None and frame.f_globals is globals():
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "no unit attains the minimum nonzero weight over this ring; "
            "the structural guarantees behind the factorization and the "
            "pruned search are not warranted",
            RuntimeWarning,
            stacklevel=level,
        )


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
    already verified each member, so the factorization does not re-test it.
    """
    if exhaustive:
        _warn_if_unwarranted(ctx)  # the pruned search warns for itself
    group = enumerate_isometry_group(ctx, budget, matrix_budget, exhaustive)
    u_order = triangular_group_order(ctx, matrix_budget)
    aut_order = len(ctx.poset.labeled_automorphisms(ctx.labeling))
    factors = set()
    all_decomposed = True
    for T in group:
        try:
            dec = _factor(T)
        except (NonPrincipalError, DecompositionError):
            all_decomposed = False
            continue
        factors.add((dec.automorphism.image, dec.triangular.rows))
    if len(factors) != len(group):
        all_decomposed = False
    return GroupReport(
        gl_order=len(group),
        u_order=u_order,
        aut_order=aut_order,
        product_matches=len(group) == u_order * aut_order,
        all_decomposed=all_decomposed,
        members=tuple(group),
    )
