import time
from itertools import product
from math import factorial

import numpy as np
import pytest

from posetblock import (
    Alphabet,
    BlockMatrix,
    BudgetError,
    DecompositionError,
    Labeling,
    NonPrincipalError,
    NotIsometryError,
    NotLabeledAutomorphismError,
    Permutation,
    Poset,
    SpaceContext,
    WeightFunction,
    decompose,
    enumerate_isometry_group,
    from_automorphism,
    in_triangular_group,
    induced_automorphism,
    is_isometry,
    custom_weight,
    hamming_weight,
    lee_weight,
    space_context,
    triangular_group_order,
    verify_semidirect,
)
from posetblock import isometry, tables
from posetblock.space import DEFAULT_MATRIX_BUDGET, DEFAULT_VECTOR_BUDGET

from oracles import block_maps_by_stack, is_invertible_mod
from test_acceptance import semidirect_fixtures


def all_matrices(ctx):
    n = ctx.n
    for entries in product(range(ctx.m), repeat=n * n):
        yield BlockMatrix(ctx, tuple(entries[r * n : (r + 1) * n] for r in range(n)))


def test_apply_identity(chain2_m2):
    T = BlockMatrix.identity(chain2_m2)
    for v in chain2_m2.vectors():
        assert T.apply(v) == v


def test_apply_swap_and_scalar():
    ctx = space_context(Poset.antichain(2), (1, 1), 2)
    swap = BlockMatrix.from_rows(ctx, [(0, 1), (1, 0)])
    assert swap.apply(ctx.vector((1, 0))).coords == (0, 1)
    scalar = space_context(Poset.chain(1), (1,), 5)
    double = BlockMatrix.from_rows(scalar, [(2,)])
    assert double.apply(scalar.vector((3,))).coords == (1,)


def test_is_isometry_identity_and_swaps(chain2_m2, antichain2_m3):
    assert is_isometry(BlockMatrix.identity(chain2_m2))
    antichain = space_context(Poset.antichain(2), (1, 1), 2)
    assert is_isometry(BlockMatrix.from_rows(antichain, [(0, 1), (1, 0)]))
    # on the chain the swap moves the light basis vector onto the heavy one
    swap = BlockMatrix.from_rows(chain2_m2, [(0, 1), (1, 0)])
    e11 = chain2_m2.basis_vector(1, 1)
    assert swap.apply(e11).weight() == 2 != e11.weight()
    assert not is_isometry(swap)


def test_is_isometry_rejects_singular(chain2_m2):
    assert not is_isometry(BlockMatrix.from_rows(chain2_m2, [(1, 0), (0, 0)]))


def test_from_automorphism_identity_and_swap(antichain2_m3):
    ident = from_automorphism(Permutation.identity(2), antichain2_m3)
    assert ident == BlockMatrix.identity(antichain2_m3)
    swap = from_automorphism(Permutation((2, 1)), antichain2_m3)
    assert swap.rows == ((0, 1), (1, 0))
    assert is_isometry(swap)


def test_from_automorphism_respects_block_layout():
    ctx = space_context(Poset.antichain(2), (2, 2), 2)
    lift = from_automorphism(Permutation((2, 1)), ctx)
    u = ctx.vector((1, 0, 0, 1))
    assert lift.apply(u).coords == (0, 1, 1, 0)


def test_from_automorphism_is_group_homomorphism():
    ctx = space_context(Poset.antichain(3), (1, 1, 1), 2)
    auts = ctx.poset.labeled_automorphisms(ctx.labeling)
    for phi in auts:
        for psi in auts:
            lifted = from_automorphism(phi.compose(psi), ctx)
            assert lifted == from_automorphism(phi, ctx).compose(from_automorphism(psi, ctx))


def test_from_automorphism_rejects_non_automorphism(chain2_m2):
    with pytest.raises(NotLabeledAutomorphismError):
        from_automorphism(Permutation((2, 1)), chain2_m2)
    uneven = space_context(Poset.antichain(2), (1, 2), 2)
    with pytest.raises(NotLabeledAutomorphismError):
        from_automorphism(Permutation((2, 1)), uneven)


def test_in_triangular_group_examples(chain2_m2):
    assert in_triangular_group(BlockMatrix.identity(chain2_m2))
    assert in_triangular_group(BlockMatrix.from_rows(chain2_m2, [(1, 1), (0, 1)]))
    assert not in_triangular_group(BlockMatrix.from_rows(chain2_m2, [(1, 0), (1, 1)]))


@pytest.mark.parametrize("poset, upper_ok", [(Poset.chain(70), True), (Poset.antichain(70), False)])
def test_in_triangular_group_beyond_64_blocks(poset, upper_ok):
    # block 1 is below block 70 in the chain only
    ctx = space_context(poset, (1,) * 70, 2)
    assert in_triangular_group(BlockMatrix.identity(ctx))
    rows = [list(row) for row in BlockMatrix.identity(ctx).rows]
    rows[0][69] = 1
    assert in_triangular_group(BlockMatrix.from_rows(ctx, rows)) == upper_ok


def test_in_triangular_group_rejects_the_shape_before_any_block_table():
    # the 2^21-vector block is past the default vector budget; T is refused on
    # its shape alone, so its block's tables are never built
    ctx = space_context(Poset.antichain(2), (21, 1), 2)
    rows = [list(row) for row in BlockMatrix.identity(ctx).rows]
    rows[0][21] = 1
    assert not in_triangular_group(BlockMatrix.from_rows(ctx, rows))
    with pytest.raises(BudgetError):
        in_triangular_group(BlockMatrix.identity(ctx))


def test_triangular_members_are_isometries(chain2_m2, vee_m2, antichain2_m3):
    for ctx in (chain2_m2, vee_m2, antichain2_m3):
        members = [T for T in all_matrices(ctx) if in_triangular_group(T)]
        assert len(members) == triangular_group_order(ctx)
        assert all(is_isometry(T) for T in members)


def test_induced_automorphism_examples(antichain2_m3):
    swap = from_automorphism(Permutation((2, 1)), antichain2_m3)
    assert induced_automorphism(swap).image == (2, 1)
    diag = BlockMatrix.from_rows(antichain2_m3, [(2, 0), (0, 1)])
    assert induced_automorphism(diag).is_identity


def test_induced_automorphism_inverts_the_lift(vee_m2):
    for phi in vee_m2.poset.labeled_automorphisms(vee_m2.labeling):
        assert induced_automorphism(from_automorphism(phi, vee_m2)) == phi


def test_induced_automorphism_requires_isometry(chain2_m2):
    swap = BlockMatrix.from_rows(chain2_m2, [(0, 1), (1, 0)])
    for factor in (induced_automorphism, decompose):
        with pytest.raises(NotIsometryError):
            factor(swap)


def test_decompose_triangular_and_lift(chain2_m2, antichain2_m3):
    upper = BlockMatrix.from_rows(chain2_m2, [(1, 1), (0, 1)])
    dec = decompose(upper)
    assert dec.automorphism.is_identity and dec.triangular == upper

    swap = from_automorphism(Permutation((2, 1)), antichain2_m3)
    dec = decompose(swap)
    assert dec.automorphism.image == (2, 1)
    assert dec.triangular == BlockMatrix.identity(antichain2_m3)


def test_decompose_mixed_example(antichain2_m3):
    # diag(2,2) composed with the block swap
    T = BlockMatrix.from_rows(antichain2_m3, [(0, 2), (2, 0)])
    dec = decompose(T)
    assert dec.automorphism.image == (2, 1)
    assert dec.triangular.rows == ((2, 0), (0, 2))
    recomposed = dec.triangular.compose(from_automorphism(dec.automorphism, antichain2_m3))
    assert recomposed == T


def test_decompose_divides_by_the_lift_of_the_inverse():
    # unequal block sizes, so the lift moves whole blocks of two coordinates
    ctx = space_context(Poset.antichain(3), (2, 1, 2), 2)
    group = enumerate_isometry_group(ctx)
    assert len(group) == 72
    for T in group:
        dec = decompose(T)
        assert dec.triangular == T.compose(from_automorphism(dec.automorphism.inverse(), ctx))


def test_enumerate_chain_group_elements(chain2_m2):
    group = enumerate_isometry_group(chain2_m2)
    assert [T.rows for T in group] == [((1, 0), (0, 1)), ((1, 1), (0, 1))]


@pytest.mark.parametrize(
    "fixture,expected",
    [("chain2_m2", 2), ("antichain2_m3", 8), ("vee_m2", 8), ("lee5_single", 2)],
)
def test_group_orders_pruned_equals_exhaustive(fixture, expected, request):
    ctx = request.getfixturevalue(fixture)
    pruned = enumerate_isometry_group(ctx)
    exhaustive = enumerate_isometry_group(ctx, exhaustive=True)
    assert [T.rows for T in pruned] == [T.rows for T in exhaustive]
    assert len(pruned) == expected


def test_single_block_group_is_full_gl():
    ctx = space_context(Poset.chain(1), (2,), 2)
    group = enumerate_isometry_group(ctx)
    assert len(group) == 6
    assert all(is_invertible_mod(T.rows, 2) for T in group)


def test_group_closure(antichain2_m3):
    group = {T.rows for T in enumerate_isometry_group(antichain2_m3)}
    matrices = [BlockMatrix(antichain2_m3, rows) for rows in group]
    assert BlockMatrix.identity(antichain2_m3).rows in group
    for a in matrices:
        for b in matrices:
            assert a.compose(b).rows in group


def test_triangular_group_order_examples(chain2_m2, lee5_single):
    assert triangular_group_order(chain2_m2) == 2
    # scalars preserving the Lee weight of every element of Z_5 are 1 and 4
    assert triangular_group_order(lee5_single) == 2
    antichain = space_context(Poset.antichain(2), (1, 1), 3)
    assert triangular_group_order(antichain) == 4


def test_semidirect_reports(chain2_m2, antichain2_m3, lee5_single, vee_m2):
    expectations = {
        "chain": (chain2_m2, 2, 2, 1),
        "antichain": (antichain2_m3, 8, 4, 2),
        "lee": (lee5_single, 2, 2, 1),
        "vee": (vee_m2, 8, 4, 2),
    }
    for ctx, gl, u, aut in expectations.values():
        report = verify_semidirect(ctx)
        assert (report.gl_order, report.u_order, report.aut_order) == (gl, u, aut)
        assert report.product_matches and report.all_decomposed


def test_kernel_of_induced_map_is_triangular_group(vee_m2):
    group = enumerate_isometry_group(vee_m2)
    kernel = [T for T in group if induced_automorphism(T).is_identity]
    assert len(kernel) == triangular_group_order(vee_m2)
    assert all(in_triangular_group(T) for T in kernel)


def test_induced_map_is_homomorphism(antichain2_m3):
    group = enumerate_isometry_group(antichain2_m3)
    for a in group:
        for b in group:
            assert induced_automorphism(a.compose(b)) == induced_automorphism(
                a
            ).compose(induced_automorphism(b))


def test_per_isometry_structure_invariants(vee_m2, antichain2_m3):
    for ctx in (vee_m2, antichain2_m3):
        poset = ctx.poset
        for T in enumerate_isometry_group(ctx):
            eta = induced_automorphism(T)
            for i in poset.elements:
                # image supports of nonzero block vectors generate one principal ideal
                for v in _nonzero_block_vectors(ctx, i):
                    ideal = poset.ideal_of(T.apply(v).support())
                    assert ideal == poset.principal_ideal(eta(i))[0]
                assert ctx.labeling.k[i - 1] == ctx.labeling.k[eta(i) - 1]
                assert len(poset.principal_ideal(i)[0]) == len(poset.principal_ideal(eta(i))[0])
            for i in poset.elements:
                for j in poset.elements:
                    if poset.leq(i, j):
                        vi = ctx.basis_vector(i, 1)
                        vj = ctx.basis_vector(j, 1)
                        assert poset.ideal_of(T.apply(vi).support()) <= poset.ideal_of(
                            T.apply(vj).support()
                        )


def _nonzero_block_vectors(ctx, i):
    k = ctx.labeling.k[i - 1]
    offset = ctx.offsets[i - 1]
    for blk in product(range(ctx.m), repeat=k):
        if any(blk):
            coords = [0] * ctx.n
            coords[offset : offset + k] = blk
            yield ctx.vector(coords)


def test_decomposition_is_a_bijection(antichain2_m3):
    group = enumerate_isometry_group(antichain2_m3)
    factors = set()
    for T in group:
        dec = decompose(T)
        factors.add((dec.automorphism.image, dec.triangular.rows))
    assert len(factors) == len(group)
    assert len(group) == triangular_group_order(antichain2_m3) * len(
        antichain2_m3.poset.labeled_automorphisms(antichain2_m3.labeling)
    )


def test_hamming_triangular_reduces_to_invertible_diagonal(chain2_m2, vee_m2):
    # with the Hamming weight the diagonal conditions collapse to invertibility
    for ctx in (chain2_m2, vee_m2):
        poset = ctx.poset
        for T in all_matrices(ctx):
            shape_ok = all(
                not any(any(row) for row in T.block(i, j))
                for i in poset.elements
                for j in poset.elements
                if not poset.leq(i, j)
            )
            diag_ok = all(
                is_invertible_mod(T.block(r, r), ctx.m) for r in poset.elements
            )
            assert in_triangular_group(T) == (shape_ok and diag_ok)


def _diagonal_block_ok(ctx, block):
    """Oracle: the k x k block preserves the block-max weight on all of Z_m^k.

    The scalar route the library used before its one isometry test:
    unit-weight columns, then every vector of the block checked in Python.
    """
    w = ctx.weight_fn
    unit = w(1)
    if any(max(w(c) for c in col) != unit for col in zip(*block)):
        return False
    for beta in product(range(ctx.m), repeat=len(block)):
        image = [sum(a * b for a, b in zip(row, beta)) % ctx.m for row in block]
        if max(w(c) for c in image) != max(w(c) for c in beta):
            return False
    return True


# invertible diagonal blocks, the Hamming condition, are not enough here:
# 2 is a unit of Z_5 but doubles the Lee weight of 1
NON_HAMMING_SPACES = [
    space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5))),
    space_context(Poset.chain(1), (2,), 4, lee_weight(Alphabet(4))),
    space_context(Poset.antichain(2), (1, 1), 5, custom_weight(Alphabet(5), [0, 2, 1, 1, 2])),
]


def test_triangular_diagonal_condition_on_non_hamming_weights():
    for ctx in NON_HAMMING_SPACES:
        poset = ctx.poset
        members = 0
        for T in all_matrices(ctx):
            shape_ok = all(
                not any(any(row) for row in T.block(i, j))
                for i in poset.elements
                for j in poset.elements
                if not poset.leq(i, j)
            )
            diag_ok = all(_diagonal_block_ok(ctx, T.block(r, r)) for r in poset.elements)
            assert in_triangular_group(T) == (shape_ok and diag_ok), (ctx.weight_fn.table, T.rows)
            members += shape_ok and diag_ok
        assert members == triangular_group_order(ctx)
        assert members == triangular_group_order(ctx, exhaustive=True)


def test_triangular_mask_of_a_stack_matches_each_member(chain2_m2, antichain2_m3):
    # the stack is read member by member along its last axis, and its distinct
    # diagonal blocks are tested once for all members
    for ctx in (chain2_m2, antichain2_m3, *NON_HAMMING_SPACES):
        group = list(all_matrices(ctx))
        mask = isometry._triangular_mask(ctx, np.asarray([T.rows for T in group]))
        assert mask.tolist() == [in_triangular_group(T) for T in group]


def test_in_triangular_group_tests_blocks_not_the_space():
    # 5^9 vectors exceed the default vector budget; each 3 x 3 block has 5^3
    ctx = space_context(Poset.chain(3), (3, 3, 3), 5, lee_weight(Alphabet(5)))
    assert ctx.size > DEFAULT_VECTOR_BUDGET
    rows = [[int(r == c or (r < 3 and c >= 3)) for c in range(9)] for r in range(9)]
    assert in_triangular_group(BlockMatrix.from_rows(ctx, rows))
    rows[4][4] = 2  # doubles the Lee weight of e_5
    assert not in_triangular_group(BlockMatrix.from_rows(ctx, rows))


def test_factoring_a_group_checks_each_automorphism_once(monkeypatch, chain2_m2, antichain2_m3):
    calls = []
    check = Poset.is_labeled_automorphism

    def counted(poset, phi, labeling):
        calls.append(phi)
        return check(poset, phi, labeling)

    monkeypatch.setattr(Poset, "is_labeled_automorphism", counted)
    for ctx, automorphisms in ((chain2_m2, 1), (antichain2_m3, 2)):
        calls.clear()
        report = verify_semidirect(ctx)
        assert report.all_decomposed and report.gl_order > automorphisms
        assert len(calls) == automorphisms


@pytest.mark.filterwarnings("ignore:no unit attains")
def test_pruned_search_matches_exhaustive_randomized():
    # deliberately includes ring weights outside the structural warranty
    import random

    from posetblock import all_posets

    rng = random.Random(41)
    posets = [p for s in (1, 2) for p in all_posets(s)]
    tables = {
        2: [(0, 1)],
        3: [(0, 1, 1), (0, 2, 2)],
        4: [(0, 1, 2, 1), (0, 1, 1, 1), (0, 2, 1, 2)],
        5: [(0, 1, 2, 2, 1), (0, 2, 3, 3, 2)],
    }
    for _ in range(25):
        m = rng.choice([2, 3, 4, 5])
        poset = rng.choice(posets)
        k = tuple(rng.choice([1, 2]) for _ in range(poset.s))
        if sum(k) > 2:
            continue
        weight = custom_weight(Alphabet(m), list(rng.choice(tables[m])))
        ctx = space_context(poset, k, m, weight)
        pruned = enumerate_isometry_group(ctx)
        exhaustive = enumerate_isometry_group(ctx, exhaustive=True)
        assert [t.rows for t in pruned] == [t.rows for t in exhaustive]


def test_search_matches_exhaustive_on_three_coordinates():
    import random

    from posetblock import all_posets

    rng = random.Random(43)
    shapes = [
        (poset, k)
        for s in (1, 2, 3)
        for poset in all_posets(s)
        for k in product((1, 2, 3), repeat=s)
        if sum(k) == 3
    ]
    weights = {
        2: [hamming_weight, lee_weight, lambda a: custom_weight(a, [0, 2])],
        3: [hamming_weight, lee_weight, lambda a: custom_weight(a, [0, 2, 2])],
    }
    # m = 3 scans 3^9 matrices per space, so it gets fewer draws
    for m, draws in ((2, 10), (3, 4)):
        for poset, k in rng.sample(shapes, draws):
            ctx = space_context(poset, k, m, rng.choice(weights[m])(Alphabet(m)))
            search = enumerate_isometry_group(ctx)
            exhaustive = enumerate_isometry_group(ctx, exhaustive=True)
            assert [t.rows for t in search] == [t.rows for t in exhaustive]


def test_weight_preserving_maps_are_tested_for_bijectivity_when_a_nonzero_weight_is_zero():
    # a WeightFunction built directly may weigh 3 in Z_6 zero: then x -> 2x
    # preserves every weight but has kernel {0, 3}
    table = (0, 1, 1, 0, 1, 1)
    ctx = SpaceContext(Poset.chain(1), Labeling((1,)), Alphabet(6), WeightFunction(table))
    doubling = BlockMatrix.from_rows(ctx, [(2,)])
    assert all(table[2 * a % 6] == table[a] for a in range(6))
    assert not is_isometry(doubling)
    for exhaustive in (False, True):
        assert [T.rows for T in enumerate_isometry_group(ctx, exhaustive=exhaustive)] == [
            ((1,),), ((5,),)
        ]


def test_search_budget_counts_candidate_images():
    # 3 weight-1 images for e_1, 3 for e_2 under each, 3 for e_3 under each of
    # the 6 spans of weight 2: 30 tests; without pruning e_2 it would be 39
    ctx = space_context(Poset.antichain(3), (1, 1, 1), 2)
    assert len(enumerate_isometry_group(ctx, matrix_budget=30)) == 6
    with pytest.raises(BudgetError):
        enumerate_isometry_group(ctx, matrix_budget=29)


@pytest.mark.parametrize(
    "m, table",
    [
        (4, (0, 1, 2, 1)),  # Lee
        (6, (0, 1, 2, 3, 2, 1)),
        (5, (0, 1, 1, 1, 1)),  # Hamming
        (7, (0, 1, 1, 1, 1, 1, 1)),
        (5, (0, 1, 2, 2, 3)),  # w(4) != w(1): every scalar is tested
        (6, (0, 1, 1, 0, 1, 1)),  # zero off 0: the span goes on to the bijectivity test
    ],
)
def test_last_column_rule_matches_exhaustive(m, table):
    for poset, k in ((Poset.antichain(2), (1, 1)), (Poset.chain(2), (1, 1)), (Poset.chain(1), (2,))):
        ctx = SpaceContext(poset, Labeling(k), Alphabet(m), WeightFunction(table))
        search = enumerate_isometry_group(ctx)
        exhaustive = enumerate_isometry_group(ctx, exhaustive=True)
        assert [T.rows for T in search] == [T.rows for T in exhaustive]


def test_last_column_tests_half_the_scalars_of_a_symmetric_weight():
    scalars = []

    class Recorded(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, np.ndarray) and key.ndim == 4:
                scalars.append(key.shape[2])  # ranks[f, x, a - 1, p]
            return np.asarray(super().__getitem__(key))

    cases = [
        ((0, 1, 1, 1, 1, 1, 1), [6, 3]),
        ((0, 1, 2, 2, 2, 2, 2), [6, 6]),  # w(6) != w(1)
        ((0, 1, 1, 0, 0, 1, 1), [6, 6]),  # zero off 0: the span goes on to the bijectivity test
    ]
    for table, expected in cases:
        ctx = SpaceContext(Poset.antichain(2), Labeling((1, 1)), Alphabet(7), WeightFunction(table))
        weights, digits, powers = isometry._tables(ctx)
        scalars.clear()
        isometry._search(ctx, weights.view(Recorded), digits, powers, DEFAULT_MATRIX_BUDGET)
        assert scalars == expected


def test_isometry_test_temporaries_stay_within_the_chunk():
    import tracemalloc

    ctx = space_context(Poset.antichain(16), (1,) * 16, 2)
    built = isometry._tables(ctx)
    T = from_automorphism(Permutation((*range(2, 17), 1)), ctx)
    tracemalloc.start()
    try:
        assert isometry._is_isometry_fast(T, *built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each temporary holds at most _CHUNK entries of a byte or two; the 2^16 x 16
    # digits and images as int64 arrays would take 8 MiB each
    assert peak < 8 * isometry._CHUNK


def test_isometry_test_in_slices_of_the_space(monkeypatch):
    # x -> 2x and x -> 3x preserve this weight but have kernels {0, 3} and {0, 2, 4};
    # three vectors per slice put 3 first in the second slice
    ctx = SpaceContext(Poset.chain(1), Labeling((1,)), Alphabet(6), WeightFunction((0, 1, 1, 0, 1, 1)))
    scalars = np.arange(6).reshape(6, 1, 1)
    for chunk in (isometry._CHUNK, 3):
        monkeypatch.setattr(isometry, "_CHUNK", chunk)
        mask = isometry._isometry_mask(scalars, 6, *isometry._tables(ctx))
        assert np.flatnonzero(mask).tolist() == [1, 5]


def test_ring_without_min_weight_unit_warns(recwarn):
    # over Z_6 only the non-units 2 and 4 attain the minimum weight
    ctx = space_context(
        Poset.chain(1), (1,), 6, custom_weight(Alphabet(6), [0, 2, 1, 2, 1, 2])
    )
    for exhaustive in (False, True):
        with pytest.warns(RuntimeWarning) as record:
            verify_semidirect(ctx, exhaustive=exhaustive)
        assert len(record) == 1
        assert record[0].filename == __file__
    # the search assumes nothing about the weight, so it has nothing to warn about
    recwarn.clear()
    for exhaustive in (False, True):
        enumerate_isometry_group(ctx, exhaustive=exhaustive)
    assert not recwarn.list


def test_group_report_members_are_the_group(vee_m2):
    report = verify_semidirect(vee_m2)
    assert [T.rows for T in report.members] == [
        T.rows for T in enumerate_isometry_group(vee_m2)
    ]
    assert len(report.members) == report.gl_order
    assert "members" not in repr(report)


def test_lee_ring_does_not_warn(recwarn):
    ctx = space_context(Poset.chain(2), (1, 1), 4, lee_weight(Alphabet(4)))
    report = verify_semidirect(ctx)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
    assert report.product_matches and report.all_decomposed


def test_antichain_group_is_product_of_block_groups():
    # antichain order: product of per-block isometry counts times label symmetries
    cases = [
        space_context(Poset.antichain(2), (1, 1), 3),
        space_context(Poset.antichain(2), (1, 2), 2),
        space_context(Poset.antichain(3), (1, 1, 1), 2),
    ]
    for ctx in cases:
        per_block = 1
        for k in ctx.labeling.k:
            block_ctx = space_context(Poset.chain(1), (k,), ctx.m, ctx.weight_fn)
            per_block *= len(enumerate_isometry_group(block_ctx))
        counts: dict[int, int] = {}
        for k in ctx.labeling.k:
            counts[k] = counts.get(k, 0) + 1
        symmetries = 1
        for c in counts.values():
            symmetries *= factorial(c)
        assert len(enumerate_isometry_group(ctx)) == per_block * symmetries


VEE_M2 = space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 1), 2)
LEE5_CHAIN = space_context(Poset.chain(2), (1, 1), 5, lee_weight(Alphabet(5)))
# the acceptance suite's semidirect fixtures, then Lee and custom ring weights
FACTOR_SPACES = [
    space_context(Poset.chain(2), (1, 1), 2),
    space_context(Poset.antichain(2), (1, 1), 3),
    space_context(Poset.chain(1), (2,), 2),
    space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5))),
    VEE_M2,
    space_context(Poset.chain(2), (2, 1), 4, lee_weight(Alphabet(4))),
    space_context(Poset.antichain(2), (1, 1), 4, lee_weight(Alphabet(4))),
    LEE5_CHAIN,
    space_context(Poset.antichain(2), (1, 1), 5, custom_weight(Alphabet(5), [0, 2, 1, 1, 2])),
    space_context(Poset.chain(1), (1,), 6, custom_weight(Alphabet(6), [0, 2, 1, 2, 1, 2])),
    space_context(Poset.antichain(2), (1, 1), 6, custom_weight(Alphabet(6), [0, 1, 2, 3, 2, 1])),
]


def _stacked_factors(ctx, mats):
    automorphisms = ctx.poset.labeled_automorphisms(ctx.labeling)
    lifts = np.asarray([from_automorphism(phi, ctx).rows for phi in automorphisms])
    return automorphisms, isometry._factor(ctx, mats, automorphisms, lifts)


def test_stacked_factorization_matches_the_per_member_route():
    for ctx in FACTOR_SPACES:
        group = enumerate_isometry_group(ctx)
        mats = np.asarray([T.rows for T in group])
        automorphisms, (index, triangular, member, exact, unique) = _stacked_factors(ctx, mats)
        assert member.all() and exact.all() and unique
        for T, i, U in zip(group, index.tolist(), triangular.tolist()):
            phi = induced_automorphism(T)
            assert automorphisms[i] == phi
            assert U == [list(row) for row in T.compose(from_automorphism(phi.inverse(), ctx)).rows]


def test_recomposition_needs_a_permutation_lift(antichain2_m3):
    mats = np.asarray([BlockMatrix.identity(antichain2_m3).rows])
    identity = [Permutation.identity(2)]
    # 2I has the identity's pattern but no unit column; the second has unit
    # columns but sends both basis vectors to e_1
    for lift, exact in (([(1, 0), (0, 1)], True), ([(2, 0), (0, 2)], False), ([(1, 1), (0, 0)], False)):
        factors = isometry._factor(antichain2_m3, mats, identity, np.asarray([lift]))
        assert factors[3].tolist() == [exact]


def test_block_maps_by_rank_match_the_stack_oracle():
    # every matrix of the semidirect fixtures, so non-principal ideals too, then the groups
    stacks = [
        (ctx, np.asarray([T.rows for T in all_matrices(ctx)]))
        for _, ctx, _ in semidirect_fixtures()
    ]
    stacks += [
        (ctx, isometry._isometries(ctx, DEFAULT_VECTOR_BUDGET, DEFAULT_MATRIX_BUDGET, False))
        for ctx in FACTOR_SPACES
    ]
    for ctx, mats in stacks:
        ranks = isometry._column_ranks(ctx, mats)
        maximal = tables._support_ideals(ctx)[0][ranks[:, ctx.offsets[:-1]]]
        expected_maximal, expected_generators = block_maps_by_stack(ctx, mats)
        assert np.array_equal(maximal, expected_maximal)
        assert np.array_equal(isometry._block_maps(ctx, ranks), expected_generators)


def test_decompose_a_lifted_automorphism_on_seventeen_blocks():
    # (s + 1)^s passes 2^63 from s = 16, so block maps must not be read as one integer
    ctx = space_context(Poset.antichain(17), (1,) * 17, 2)
    phi = Permutation((*range(2, 18), 1))
    dec = decompose(from_automorphism(phi, ctx))
    assert dec.automorphism == phi
    assert dec.triangular == BlockMatrix.identity(ctx)


def test_triangular_group_order_lists_no_group(monkeypatch, vee_m2):
    def listed(*args):
        raise AssertionError("the triangular group was listed")

    monkeypatch.setattr(isometry, "_isometries", listed)
    # two block sizes; 256 of the 4^9 matrices pass `in_triangular_group`
    uneven = space_context(Poset.chain(2), (2, 1), 4, lee_weight(Alphabet(4)))
    for ctx, order in ((vee_m2, 4), (uneven, 256)):
        for exhaustive in (False, True):
            assert triangular_group_order(ctx, exhaustive=exhaustive) == order


def test_oversized_group_search_is_refused_before_it_starts(monkeypatch):
    # |U| = 48^3 * 3^12 > 2^24, and U lies in G: the search would spend its budget first
    ctx = space_context(Poset.chain(3), (2, 2, 2), 3)
    searched = []
    search = isometry._search

    def recorded(space, *args):
        searched.append(space)
        return search(space, *args)

    monkeypatch.setattr(isometry, "_search", recorded)
    started = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        verify_semidirect(ctx)
    assert time.perf_counter() - started < 1
    message = f"isometry search tests more than {DEFAULT_MATRIX_BUDGET} candidate images"
    assert str(info.value) == message
    assert searched and ctx not in searched
    # the vector budget is checked first, and the scan keeps its own refusal
    with pytest.raises(BudgetError, match=r"^space has 729 vectors, budget 700$"):
        verify_semidirect(ctx, budget=700)
    with pytest.raises(BudgetError, match=rf"^{3 ** 36} candidate matrices exceed budget"):
        verify_semidirect(ctx, exhaustive=True)
    assert ctx not in searched


def test_group_search_is_refused_on_the_order_of_the_product(monkeypatch):
    # |U| = 1 and |Aut| = 8! = 40,320: U x| Aut lies in G, so the search would test more
    ctx = space_context(Poset.antichain(8), (1,) * 8, 2)
    searched = []
    search = isometry._search

    def recorded(space, *args):
        searched.append(space)
        return search(space, *args)

    monkeypatch.setattr(isometry, "_search", recorded)
    with pytest.raises(BudgetError) as info:
        verify_semidirect(ctx, matrix_budget=10_000)
    assert str(info.value) == "isometry search tests more than 10000 candidate images"
    assert searched and ctx not in searched
    report = verify_semidirect(ctx)
    assert (report.gl_order, report.u_order, report.aut_order) == (40320, 1, 40320)
    assert report.product_matches and report.all_decomposed


@pytest.mark.parametrize("poset, k, m", [(Poset.antichain(3), (1, 1, 1), 3), (Poset.chain(2), (2, 1), 2)])
def test_group_search_in_one_pair_chunks(monkeypatch, poset, k, m):
    # most chunks of one (partial map, candidate) pair keep no survivor
    ctx = space_context(poset, k, m)
    expected = [T.rows for T in enumerate_isometry_group(ctx)]
    monkeypatch.setattr(isometry, "_CHUNK", 1)
    assert [T.rows for T in enumerate_isometry_group(ctx)] == expected


class Searched(Exception):
    """Stops a test at the group search of the full space."""


def test_automorphisms_are_listed_before_the_search_only_when_they_can_refuse(monkeypatch):
    # |U| = 1 and at most 8! automorphisms: below the default budget no refusal
    # can fire, so none are listed before the search
    ctx = space_context(Poset.antichain(8), (1,) * 8, 2)
    events = []
    listing = Poset.labeled_automorphisms

    def listed(poset, labeling, limit=None):
        found = listing(poset, labeling, limit=limit)
        events.append(("listed", limit, len(found)))
        return found

    def searched(space, *args):
        if space != ctx:  # the one-block spaces of the triangular count
            return search(space, *args)
        events.append(("searched", space))
        raise Searched

    search = isometry._search

    monkeypatch.setattr(Poset, "labeled_automorphisms", listed)
    monkeypatch.setattr(isometry, "_search", searched)
    with pytest.raises(Searched):
        verify_semidirect(ctx)
    assert events == [("searched", ctx)]
    # past the budget, no more are listed than the refusal needs
    events.clear()
    with pytest.raises(BudgetError):
        verify_semidirect(ctx, matrix_budget=10_000)
    assert events == [("listed", 10_001, 10_001)]


def test_automorphism_listing_stops_at_the_limit():
    poset, labeling = Poset.antichain(5), Labeling((1,) * 5)
    every = poset.labeled_automorphisms(labeling)
    assert len(every) == factorial(5) == isometry._automorphism_bound(space_context(poset, (1,) * 5, 2))
    assert poset.labeled_automorphisms(labeling, limit=121) == every
    some = poset.labeled_automorphisms(labeling, limit=7)
    assert len(some) == 7 and set(some) <= set(every)


def _corrupt_duplicate(mats):
    mats[-1] = mats[0]


def _corrupt_zero_column(mats):
    mats[-1, :, 0] = 0


def _corrupt_lower_block(mats):
    mats[-1, -1, 0] = 1  # block 3 is not below block 1


def _corrupt_diagonal(mats):
    mats[-1, 0, 0] = mats[-1, 0, 0] * 2 % 5  # doubles the Lee weight of block 1's image



@pytest.mark.parametrize(
    "ctx,corrupt",
    [
        (VEE_M2, _corrupt_duplicate),
        (VEE_M2, _corrupt_zero_column),
        (VEE_M2, _corrupt_lower_block),
        (LEE5_CHAIN, _corrupt_diagonal),
    ],
)
def test_one_corrupted_member_fails_the_report(monkeypatch, ctx, corrupt):
    search = isometry._isometries

    def corrupted(space, *args):
        mats = search(space, *args)
        if space == ctx:
            mats = mats.copy()
            corrupt(mats)
        return mats

    honest = verify_semidirect(ctx)
    assert honest.all_decomposed
    monkeypatch.setattr(isometry, "_isometries", corrupted)
    report = verify_semidirect(ctx)
    assert report.gl_order == honest.gl_order and report.product_matches
    assert not report.all_decomposed


def test_decompose_error_messages(monkeypatch, chain2_m2, antichain2_m3, lee5_single):
    swap = BlockMatrix.from_rows(chain2_m2, [(0, 1), (1, 0)])
    with pytest.raises(NotIsometryError, match=r"^map does not preserve the weight$"):
        decompose(swap)
    # the errors past the isometry test signal a faulty test; reach them by skipping it
    monkeypatch.setattr(isometry, "is_isometry", lambda T, budget: True)
    cases = [
        (antichain2_m3, [(1, 0), (1, 1)], NonPrincipalError,
         "support ideal of the image of block 1 has maximal set [1, 2]"),
        (antichain2_m3, [(1, 0), (0, 0)], NonPrincipalError,
         "support ideal of the image of block 2 has maximal set []"),
        (antichain2_m3, [(1, 1), (0, 1)], NonPrincipalError,
         "support ideal of the image of block 2 has maximal set [1, 2]"),
        (antichain2_m3, [(1, 1), (0, 0)], NonPrincipalError,
         "induced block map [1, 1] is not a bijection"),
        (chain2_m2, [(0, 1), (1, 0)], DecompositionError,
         "induced map (2, 1) is not a labeled automorphism"),
        (lee5_single, [(2,)], DecompositionError,
         "triangular factor fails the membership conditions"),
    ]
    for ctx, rows, error, message in cases:
        with pytest.raises(error) as info:
            decompose(BlockMatrix.from_rows(ctx, rows))
        assert str(info.value) == message
    # a lift that is no permutation matrix: dividing by it gathers the identity's
    # columns, but multiplying does not undo that
    monkeypatch.setattr(
        isometry, "from_automorphism", lambda phi, ctx: BlockMatrix.from_rows(ctx, [(1, 1), (0, 1)])
    )
    with pytest.raises(DecompositionError, match=r"^recomposition does not reproduce the map$"):
        decompose(BlockMatrix.identity(chain2_m2))
