"""Linear isometries of a weighted poset block space.

Block matrices act on column vectors over Z_m.  The isometry layer works on
stacks of matrices, (G, n, n) integer arrays, and builds `BlockMatrix`
objects only where the API returns them.  The group of weight-preserving
invertible maps is enumerated by a column-by-column search that extends all
partial maps of one level together, keeping a partial map only while it
preserves the weight on the span of the columns chosen so far (or, for
cross-validation, by scanning every matrix).  One routine factors a whole
stack of isometries, read as the ranks of their columns, into
block-triangular parts composed with block permutations lifted from
labeled poset automorphisms, and checks the
factorization to be exact and unique, so that the group order equals the
product of the two factors' orders.  The same isometry test and search
also check and count the diagonal blocks of the triangular part.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial, prod
from typing import Sequence

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
from .poset import AUTOMORPHISM_SIZE_CAP, Labeling, Permutation, Poset
from .space import (
    DEFAULT_MATRIX_BUDGET, DEFAULT_VECTOR_BUDGET, BlockVector, SpaceContext, gc_paused
)
from .tables import (
    _digit_table, _order_matrix, _support_ideals, check_vector_budget, digit_table, distinct_rows,
    rank_powers, weight_table,
)

_CHUNK = 1 << 18  # entries of the largest rank array one batched step builds


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
    """Orders and checks of `verify_semidirect`, with the members as a (G, n, n) array."""

    gl_order: int
    u_order: int
    aut_order: int
    product_matches: bool
    all_decomposed: bool
    context: SpaceContext = field(repr=False, compare=False)
    matrices: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def members(self) -> tuple[BlockMatrix, ...]:
        """The members as `BlockMatrix` objects in canonical row order, built on first use."""
        return tuple(_block_matrices(self.context, self.matrices))


def _block_matrices(ctx: SpaceContext, mats: np.ndarray) -> list[BlockMatrix]:
    with gc_paused():
        return [BlockMatrix(ctx, tuple(map(tuple, rows))) for rows in mats.tolist()]


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
    return bool(_isometry_mask(np.asarray([T.rows]), T.context.m, weights, digits, powers)[0])


def _isometry_mask(
    mats: np.ndarray, m: int, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Per matrix of the (b, n, n) stack: whether it is an isometry of the tables' space.

    The images of the space's vectors are formed in slices of at most `_CHUNK`
    entries, over matrices and vectors, in the smallest type that holds a sum
    of n products of digits.
    """
    size, n = digits.shape
    wide = np.min_scalar_type(n * (m - 1) ** 2)
    places = powers.astype(np.min_scalar_type(size - 1))
    check_bijective = _needs_bijectivity_test(weights)
    rows = max(1, min(size, _CHUNK // n))
    step = max(1, _CHUNK // (rows * n))
    ok = np.ones(len(mats), dtype=bool)
    for start in range(0, len(mats), step):
        chunk = mats[start : start + step].astype(wide).transpose(0, 2, 1)
        for first in range(0, size, rows):
            image_ranks = (digits[first : first + rows].astype(wide) @ chunk % m) @ places
            preserved = (weights[image_ranks] == weights[first : first + rows]).all(axis=1)
            if check_bijective:
                # bijective when no nonzero vector maps to 0 (see `_needs_bijectivity_test`)
                preserved &= (image_ranks[:, int(first == 0) :] != 0).all(axis=1)
            ok[start : start + step] &= preserved
    return ok


def _needs_bijectivity_test(weights: np.ndarray) -> bool:
    """Whether a linear map preserving this weight table may still fail to be bijective.

    It cannot when the weight vanishes only at 0 (the empty support weighs 0).
    If T preserves such a weight and T x = 0, then w(x) = w(T x) = w(0) = 0, so
    x = 0: the kernel is trivial, T is injective, and an injective map of the
    finite space Z_m^n into itself is a bijection.  The same argument makes a
    linear map bijective exactly when no nonzero vector maps to 0, which is
    how the bijectivity test reads its images.  `custom_weight` and the
    builtin weights are positive off 0; a `WeightFunction` built directly need
    not be, and then a nonzero vector of weight 0 leaves the test necessary.
    """
    return not (weights[1:] > 0).all()


def from_automorphism(phi: Permutation, ctx: SpaceContext) -> BlockMatrix:
    """Block permutation matrix sending block i identically onto block phi(i)."""
    return _block_matrices(ctx, _lifts(ctx, [phi]))[0]


def _lifts(ctx: SpaceContext, automorphisms: Sequence[Permutation]) -> np.ndarray:
    """(A, n, n) stack of the block permutation matrices of `automorphisms`,
    each checked once to be a labeled automorphism."""
    for phi in automorphisms:
        if not ctx.poset.is_labeled_automorphism(phi, ctx.labeling):
            raise NotLabeledAutomorphismError(
                f"{phi.image} is not a block-size-preserving poset automorphism"
            )
    images = np.asarray([phi.image for phi in automorphisms]).reshape(-1, ctx.s) - 1
    starts = np.asarray(ctx.offsets[:-1])
    # coordinate c of block i goes to the same place in block phi(i), of equal size
    shifts = np.repeat(starts[images] - starts, ctx.labeling.k, axis=1)
    return np.eye(ctx.n, dtype=np.int64)[shifts + np.arange(ctx.n)].transpose(0, 2, 1)


def in_triangular_group(T: BlockMatrix) -> bool:
    """Block-triangular with respect to the poset, with weight-preserving diagonal.

    T must vanish on every block (i, j) with i not below j, and each diagonal
    block T_rr must preserve the block-max weight: be an isometry of the
    one-block space Z_m^(k_r) (tables within the default vector budget).
    """
    return bool(_triangular_mask(T.context, np.asarray([T.rows]))[0])


def _triangular_mask(ctx: SpaceContext, mats: np.ndarray) -> np.ndarray:
    """Per matrix of the (G, n, n) stack: whether it is in the triangular group.

    The shape is one mask from the poset's order matrix.  The diagonal blocks
    of the matrices of that shape are deduplicated by their row ranks and
    tested as isometries of the one-block space, one batch per block size.
    """
    k = ctx.labeling.k
    block_of = np.repeat(np.arange(ctx.s), k)
    # the entries (r, c) whose row block is not below the column block
    rows, cols = np.nonzero(_order_matrix(ctx.poset)[block_of, block_of[:, None]] == 0)
    ok = ~mats[:, rows, cols].any(axis=1)
    for size in sorted(set(k)):
        shaped = np.flatnonzero(ok)
        if not len(shaped):
            break
        # coordinates of each diagonal block of this size, (blocks, size)
        span = np.add.outer([ctx.offsets[r] for r in range(ctx.s) if k[r] == size], range(size))
        blocks = mats[shaped[:, None, None, None], span[:, :, None], span[:, None, :]]
        blocks = blocks.reshape(-1, size, size)
        weights, digits, powers = _tables(_block_space(ctx, size))
        # row ranks in their smallest type: numpy sorts 8- and 16-bit keys by radix
        keys = (blocks @ powers).astype(np.min_scalar_type(len(weights) - 1))
        first, inverse = distinct_rows(keys)
        preserved = _isometry_mask(blocks[first], ctx.m, weights, digits, powers)
        ok[shaped] = preserved[inverse].reshape(len(shaped), -1).all(axis=1)
    return ok


def _block_space(ctx: SpaceContext, k: int) -> SpaceContext:
    """The one-block space Z_m^k with the alphabet and weight of `ctx`."""
    return SpaceContext(Poset.chain(1), Labeling((k,)), ctx.alphabet, ctx.weight_fn)


# -- factorization -------------------------------------------------------------


def induced_automorphism(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> Permutation:
    """The block permutation taking i to the generator of T(V_i)'s support ideal.

    Only defined for isometries; the support ideal of the image of any
    nonzero block vector is then principal, and the map is a labeled
    automorphism.
    """
    if not is_isometry(T, budget):
        raise NotIsometryError("map does not preserve the weight")
    ctx = T.context
    ranks = _column_ranks(ctx, np.asarray([T.rows]))
    image = _block_maps(ctx, ranks)[0].tolist()
    for i, generator in enumerate(image, start=1):
        if not generator:
            maximal = _support_ideals(ctx)[0][ranks[0, ctx.offsets[i - 1]]]
            raise NonPrincipalError(
                f"support ideal of the image of block {i} has maximal set "
                f"{(np.flatnonzero(maximal) + 1).tolist()}"
            )
    try:
        return Permutation(tuple(image))
    except ValueError as exc:
        raise NonPrincipalError(f"induced block map {image} is not a bijection") from exc


def _column_ranks(ctx: SpaceContext, mats: np.ndarray) -> np.ndarray:
    """(G, n) ranks of the columns of every matrix of the (G, n, n) stack, in
    their smallest type."""
    return rank_powers(ctx).astype(np.min_scalar_type(ctx.size - 1)) @ mats


def _block_maps(ctx: SpaceContext, ranks: np.ndarray) -> np.ndarray:
    """Per row of (G, n) column ranks and block i: the 1-based generator of the
    ideal that the block support of the image of block i's first basis vector
    generates, as a (G, s) array, 0 where it is not principal.

    The image of that basis vector is the block's first column, so this is
    one gather from the per-rank table of `tables._support_ideals`, which
    also holds the ideal's maximal elements; the caller checks the vector
    budget first.
    """
    return _support_ideals(ctx)[1][ranks[:, ctx.offsets[:-1]]]


def decompose(T: BlockMatrix, budget: int = DEFAULT_VECTOR_BUDGET) -> IsometryDecomposition:
    """Factor an isometry as triangular part composed with automorphism lift."""
    phi = induced_automorphism(T, budget)
    try:
        lift = from_automorphism(phi, T.context)
    except NotLabeledAutomorphismError as exc:
        raise DecompositionError(f"induced map {phi.image} is not a labeled automorphism") from exc
    _, triangular, member, exact, _ = _factor(
        T.context, np.asarray([T.rows]), [phi], np.asarray([lift.rows])
    )
    if not member[0]:
        raise DecompositionError("triangular factor fails the membership conditions")
    if not exact[0]:
        raise DecompositionError("recomposition does not reproduce the map")
    return IsometryDecomposition(phi, _block_matrices(T.context, triangular)[0])


def _factor(
    ctx: SpaceContext, mats: np.ndarray, automorphisms: Sequence[Permutation], lifts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """Factor every isometry T of the (G, n, n) stack as T = U . lift(phi).

    `lifts` stacks the lifts of `automorphisms`.  Returns, per member, the
    index of its block map among `automorphisms` (-1 when it is none of them),
    the triangular part U = T . lift^-1, whether U is in the triangular group
    and whether U . lift recomposes T exactly; and whether the factor pairs
    (phi, U) of the stack are pairwise distinct.

    The stack is read as the (G, n) ranks of its columns.  The lift P sends
    e_j to e_pi(j), pi moving each coordinate of block i to its place in
    block phi(i); so P[c, j] = 1 exactly at c = pi(j), P^-1 = P^T and
    P^-1 e_c = e_pi^-1(c).  Column c of T . P^-1 is then column
    source(c) = pi^-1(c) = argmax_j P[c, j] of T, so U's column ranks are
    T's gathered at the sources, and U is the digit rows at those ranks.
    Column j of U . P is U e_pi(j), column pi(j) = argmax_c P[c, j] of U,
    whenever column j of P is the unit vector e_pi(j): U . P recomposes T
    exactly when every column of the lift is a unit vector and U's ranks
    gathered at pi are T's.  A rank names exactly one column vector, so two
    members have the same U exactly when they have the same column ranks
    of U: the pairs (phi, U) are distinct exactly when the rows
    (index, U's column ranks) are.
    """
    ranks = _column_ranks(ctx, mats)
    generators = _block_maps(ctx, ranks)
    images = np.asarray([phi.image for phi in automorphisms], dtype=generators.dtype)
    _, inverse = distinct_rows(np.concatenate([images, generators]))
    # the images are distinct; a block map equal to one shares its position
    lookup = np.full(inverse.max() + 1, -1)
    lookup[inverse[: len(images)]] = np.arange(len(images))
    index = lookup[inverse[len(images) :]]
    chosen = np.maximum(index, 0)
    sources, targets = lifts.argmax(axis=2), lifts.argmax(axis=1)
    # flat positions of each member's row in (G, n) arrays
    rows = np.arange(len(ranks))[:, None] * ctx.n
    u_ranks = np.take(ranks, sources[chosen] + rows)
    triangular = np.take(_digit_table(ctx), u_ranks, axis=0).transpose(0, 2, 1)
    member = _triangular_mask(ctx, triangular)
    # U . P is U's columns gathered at pi when every column of P is a unit vector
    unit = (lifts == (np.arange(ctx.n)[:, None] == targets[:, None, :])).all(axis=(1, 2))
    exact = unit[chosen]
    differs = np.take(u_ranks, targets[chosen] + rows) != ranks
    exact[np.flatnonzero(differs) // ctx.n] = False
    # (index + 1, U's column ranks) in their smallest type, for the radix sort
    pairs = np.empty((len(ranks), ctx.n + 1), np.min_scalar_type(max(ctx.size - 1, len(images))))
    pairs[:, 0], pairs[:, 1:] = index + 1, u_ranks
    unique = len(distinct_rows(pairs, inverse=False)[0]) == len(pairs)
    return index, triangular, member, exact, unique


# -- group enumeration ---------------------------------------------------------


def enumerate_isometry_group(
    ctx: SpaceContext,
    budget: int = DEFAULT_VECTOR_BUDGET,
    matrix_budget: int = DEFAULT_MATRIX_BUDGET,
    exhaustive: bool = False,
) -> list[BlockMatrix]:
    """All weight-preserving invertible linear maps, in canonical row order.

    The default search picks the image t of each basis vector e_c, column
    by column, among the vectors of weight w(e_c), and keeps a partial map f
    only if it preserves the weight on all m^(c+1) vectors of the span of the
    columns chosen so far: w(f(x) + a t) = w(x + a e_c) for every x in the
    span of the earlier columns and a = 1..m-1.  Every restriction of an
    isometry passes, so the search is exact.  It extends all partial maps of
    a level together, in bounded chunks.  The rule assumes nothing about the
    weight but one symmetry, checked on the scalar table: at the last
    column, which carries no span forward when w vanishes only at 0, it
    tests only a <= m/2 if w(-a) = w(a) for every scalar a.  A vector's
    weight reads only the scalar weights of its coordinates, so then
    w(-y) = w(y) for every vector y; f(-x) + (m - a) t = -(f(x) + a t) and
    -x + (m - a) e_c = -(x + a e_c), so the test of (x, a) is the test of
    (-x, m - a), and x -> -x permutes the span.  A complete candidate
    preserves the weight of every vector; when the weight vanishes only at 0
    that makes it bijective (see `_needs_bijectivity_test`), and otherwise
    it is tested to send no nonzero vector to 0.  `matrix_budget` bounds the
    candidate images tested, one per partial map and same-weight vector,
    counted as the search runs.
    `exhaustive` scans all m^(n^2) matrices instead, for cross-validation on
    tiny spaces; there `matrix_budget` bounds m^(n^2) before any is built.
    """
    return _block_matrices(ctx, _isometries(ctx, budget, matrix_budget, exhaustive))


def _isometries(
    ctx: SpaceContext, budget: int, matrix_budget: int, exhaustive: bool
) -> np.ndarray:
    """The group as a (G, n, n) array in canonical row order; see `enumerate_isometry_group`."""
    weights, digits, powers = _tables(ctx, budget)
    if exhaustive:
        mats = _scan(ctx, weights, digits, powers, matrix_budget)
    else:
        mats = digits[_search(ctx, weights, digits, powers, matrix_budget)].transpose(0, 2, 1)
    mats = mats.astype(np.min_scalar_type(ctx.m - 1))
    # row ranks in their smallest type: numpy sorts 8- and 16-bit keys by radix
    small = np.min_scalar_type(len(weights) - 1)
    return mats[np.lexsort((mats.astype(small) @ powers.astype(small)).T[::-1])]


def _scan(
    ctx: SpaceContext, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray,
    matrix_budget: int,
) -> np.ndarray:
    """Every isometry among all m^(n^2) matrices, scanned in chunks."""
    n, m = ctx.n, ctx.m
    total = m ** (n * n)
    if total > matrix_budget:
        raise BudgetError(f"{total} candidate matrices exceed budget {matrix_budget}")
    place = m ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    step = max(1, _CHUNK // len(weights))
    found = []
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total), dtype=np.int64)
        mats = (index[:, None] // place % m).reshape(-1, n, n)
        found.append(mats[_isometry_mask(mats, m, weights, digits, powers)])
    return np.concatenate(found)


def _search(
    ctx: SpaceContext, weights: np.ndarray, digits: np.ndarray, powers: np.ndarray,
    matrix_budget: int,
) -> np.ndarray:
    """(G, n) ranks of the columns of every member; see `enumerate_isometry_group`."""
    n, m = ctx.n, ctx.m
    # holds every rank and every sum of two digits, so the arrays stay small
    small = np.min_scalar_type(max(2 * (m - 1), len(weights) - 1))
    planes = digits.T.astype(small)
    pools = [np.nonzero(weights == weights[p])[0] for p in powers]
    scalars = np.arange(1, m)[:, None, None]
    check_bijective = _needs_bijectivity_test(weights)
    table = ctx.weight_fn.table
    # the last column tests a < last_top (see `enumerate_isometry_group`)
    last_top = m // 2 + 1 if all(w == table[-a] for a, w in enumerate(table)) else m
    found = [np.zeros((0, n), dtype=np.int64)]
    tested = 0

    def extend(columns: np.ndarray, span: np.ndarray) -> None:
        # span[f, x] is the rank of the image, under partial map f, of the domain
        # vector of rank x * m^(n-c); the level adds x * m + a for a = 1..m-1
        nonlocal tested
        c = columns.shape[1]
        pool = pools[c]
        top = last_top if c + 1 == n and not check_bijective else m
        # multiples[j, a - 1, p]: digit j of a times pool vector p
        multiples = (scalars[: top - 1] * digits[pool] % m).transpose(2, 0, 1).astype(small)
        expected = weights[:: m ** (n - 1 - c)].reshape(-1, m)[:, 1:top, None]
        pairs = max(1, _CHUNK // expected.size)
        step_q = min(len(pool), pairs)
        step_f = max(1, pairs // step_q)
        for f in range(0, len(span), step_f):
            part = span[f : f + step_f]
            for q in range(0, len(pool), step_q):
                tested += len(part) * len(pool[q : q + step_q])
                if tested > matrix_budget:
                    raise BudgetError(
                        f"isometry search tests more than {matrix_budget} candidate images"
                    )
                # ranks[f, x, a - 1, p] of span vector x plus a times pool vector p
                if m == 2:
                    # over Z_2 a sum of two vectors has the XOR of their ranks
                    ranks = part[:, :, None, None] ^ pool[q : q + step_q].astype(small)
                else:
                    ranks = np.zeros(part.shape + multiples[:, :, q : q + step_q].shape[1:], small)
                    for j, place in enumerate(powers.tolist()):
                        total = planes[j][part][:, :, None, None] + multiples[j, :, q : q + step_q]
                        # digit sums are below 2m; unsigned, total - m wraps above total when total < m
                        ranks += np.minimum(total, total - m) * place
                fi, qi = np.nonzero((weights[ranks] == expected).all(axis=(1, 2)))
                if not len(fi):
                    continue
                grown = np.column_stack([columns[f + fi], pool[q + qi]])
                if c + 1 == n and not check_bijective:
                    found.append(grown)
                    continue
                grown_span = np.concatenate([part[fi, :, None], ranks[fi, :, :, qi]], axis=2)
                grown_span = grown_span.reshape(len(fi), -1)
                if c + 1 < n:
                    extend(grown, grown_span)
                else:
                    # column 0 is the image of 0 (see `_needs_bijectivity_test`)
                    found.append(grown[(grown_span[:, 1:] != 0).all(axis=1)])

    extend(np.zeros((1, 0), dtype=np.int64), np.zeros((1, 1), dtype=small))
    return np.concatenate(found)


def triangular_group_order(
    ctx: SpaceContext, matrix_budget: int = DEFAULT_MATRIX_BUDGET, exhaustive: bool = False
) -> int:
    """Order of the block-triangular subgroup, counted block by block.

    A diagonal block of size k is an isometry of the one-block space Z_m^k
    (see `in_triangular_group`), counted once per k by the group search or,
    with `exhaustive`, scan; blocks over strict relations are free.
    """
    find = _scan if exhaustive else _search
    diag_counts = {}
    for k in set(ctx.labeling.k):
        block = _block_space(ctx, k)
        diag_counts[k] = len(find(block, *_tables(block), matrix_budget))
    sizes = np.asarray(ctx.labeling.k)
    free = int(sizes @ _order_matrix(ctx.poset) @ sizes - sizes @ sizes)
    return prod(diag_counts[k] for k in ctx.labeling.k) * ctx.m**free


def _automorphism_bound(ctx: SpaceContext) -> int:
    """An upper bound on the number of labeled automorphisms.

    Each one permutes the elements of equal down-set size, up-set size and
    block size among themselves, so there are at most the product of the
    factorials of those classes' sizes.
    """
    poset = ctx.poset
    sizes = Counter(
        (down.bit_count(), up.bit_count(), k)
        for down, up, k in zip(poset.down, poset.up, ctx.labeling.k)
    )
    return prod(factorial(size) for size in sizes.values())


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
    already verified each member, so the factorization does not re-test it;
    it lifts each automorphism once and factors the whole group as one
    stack.  The triangular count uses the same search or, with
    `exhaustive`, scan as the group.  The report keeps the members as an
    array and builds its `members` on first access.

    The factorization rests on the structural results on isometries, which
    assume some multiplicative unit attains the minimum nonzero weight; over
    a ring weight without one, this warns once.

    Refusal before the search.  In the default mode the triangular group is
    counted first, after the vector budget check (and only while each block
    space is within the default vector budget that `triangular_group_order`
    reads), so that every refusal keeps its message.  If w is positive off 0
    and u_order exceeds `matrix_budget`, the search would exceed it too, and
    its error is raised before it starts.  So it is when u_order * aut_order
    does; the labeled automorphisms are listed for that only while s is
    within `AUTOMORPHISM_SIZE_CAP` and u_order times `_automorphism_bound`
    exceeds the budget, and at most budget // u_order + 1 of them.  Each
    member of G is one tested candidate at the search's last level, so it
    tests at least |G| candidates, and G holds the |U| |Aut| distinct
    products U . lift(phi).
    (a) U lies in G.  Let U be in it, x != 0, I the ideal that x's support
    generates and M its maximal set, which lies in supp(x).  Block i of Ux
    is the sum of U_ij x_j over j >= i (U_ij vanishes unless i <= j), so it
    vanishes unless some x_j with j >= i is nonzero, and supp(Ux) lies in I.
    For i in M the only such j is i itself, so (Ux)_i = U_ii x_i; U_ii
    preserves the block maximum of w, which is positive on x_i != 0, so
    (Ux)_i is nonzero with the block maximum of x_i.  Hence supp(Ux)
    generates I, with maximal set M and the block maxima of x on M:
    w(Ux) = w(x).  A linear map preserving a weight that vanishes only at 0
    is bijective (see `_needs_bijectivity_test`), so U is in G.
    (b) A lift P of a labeled automorphism phi lies in G.  It moves block i
    of x, unchanged, to block phi(i) of equal size, so supp(Px) =
    phi(supp(x)).  An order automorphism maps the ideal that supp(x)
    generates onto the one that phi(supp(x)) generates, and its maximal set
    M onto phi(M), where Px has the block maxima of x on M: w(Px) = w(x),
    and P, a permutation matrix, is bijective.
    (c) The products are distinct.  If U . lift(phi) = U' . lift(psi), then
    U'^-1 U = lift(psi) lift(phi)^-1 = lift(psi phi^-1) lies in U.  A lift
    of theta has the identity at block (theta(i), i), so it is triangular
    only if theta(i) <= i for every i, and then theta is the identity:
    otherwise i > theta(i) > theta^2(i) > ... never returns to i, though
    theta has finite order.  So phi = psi and U = U'.
    """
    if not ctx.alphabet.is_field and not has_min_weight_unit(ctx.alphabet, ctx.weight_fn):
        warnings.warn(
            "no unit attains the minimum nonzero weight over this ring; "
            "the structural guarantees behind the factorization are not warranted",
            RuntimeWarning,
            stacklevel=2,
        )
    count_first = not exhaustive and ctx.m ** max(ctx.labeling.k) <= DEFAULT_VECTOR_BUDGET
    automorphisms = None
    if count_first:
        check_vector_budget(ctx, budget)
        u_order = least = triangular_group_order(ctx, matrix_budget)
        positive = ctx.min_nonzero_weight > 0
        # s! is at least the class bound: small spaces never form the classes
        if (
            positive
            and ctx.s <= AUTOMORPHISM_SIZE_CAP
            and u_order <= matrix_budget < u_order * factorial(ctx.s)
            and u_order * _automorphism_bound(ctx) > matrix_budget
        ):
            # all of them unless there are more than the budget allows
            limit = matrix_budget // u_order + 1
            automorphisms = ctx.poset.labeled_automorphisms(ctx.labeling, limit=limit)
            least *= len(automorphisms)
        if positive and least > matrix_budget:
            raise BudgetError(f"isometry search tests more than {matrix_budget} candidate images")
    mats = _isometries(ctx, budget, matrix_budget, exhaustive)
    if not count_first:
        u_order = triangular_group_order(ctx, matrix_budget, exhaustive)
    if automorphisms is None:
        automorphisms = ctx.poset.labeled_automorphisms(ctx.labeling)
    index, _, member, exact, unique = _factor(ctx, mats, automorphisms, _lifts(ctx, automorphisms))
    return GroupReport(
        gl_order=len(mats),
        u_order=u_order,
        aut_order=len(automorphisms),
        product_matches=len(mats) == u_order * len(automorphisms),
        all_decomposed=bool(((index >= 0) & member & exact).all()) and unique,
        context=ctx,
        matrices=mats,
    )
