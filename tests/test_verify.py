import random

import pytest

from oracles import check_weight_axioms_whole_array
from posetblock import verify
from posetblock.algebra import validate_weight_axioms
from posetblock.errors import AxiomError
from posetblock import (
    Alphabet,
    Labeling,
    Poset,
    SpaceContext,
    WeightFunction,
    all_posets,
    check_weight_axioms,
    check_weight_axioms_bruteforce,
    hamming_weight,
    lee_weight,
    space_context,
)


def make_context(poset, k, m, table=None):
    alphabet = Alphabet(m)
    weight = hamming_weight(alphabet) if table is None else WeightFunction(tuple(table))
    return SpaceContext(poset, Labeling(tuple(k)), alphabet, weight)


def valid_contexts():
    return [
        space_context(Poset.chain(2), (1, 1), 2),
        space_context(Poset.chain(3), (2, 1, 1), 3),
        space_context(Poset.antichain(3), (1, 2, 1), 2),
        space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 2), 4, lee_weight(Alphabet(4))),
        space_context(Poset.from_covers(4, [(1, 2), (1, 3)]), (1, 1, 1, 1), 5, lee_weight(Alphabet(5))),
        make_context(Poset.chain(2), (1, 2), 5, (0, 2, 3, 3, 2)),
    ]


def test_valid_weights_pass_both_routes():
    for ctx in valid_contexts():
        assert check_weight_axioms(ctx).ok
        assert check_weight_axioms_bruteforce(ctx).ok


def assert_witness_violates(ctx, result):
    if result.axiom == "zero":
        (coords,) = result.witness
        v = ctx.vector(coords)
        assert (v.weight() == 0) != v.is_zero
    elif result.axiom == "symmetry":
        (coords,) = result.witness
        v = ctx.vector(coords)
        assert v.weight() != (-v).weight()
    else:
        u_coords, v_coords = result.witness
        u, v = ctx.vector(u_coords), ctx.vector(v_coords)
        assert (u + v).weight() > u.weight() + v.weight()


BROKEN_TABLES = {
    "zero": (3, (0, 1, 0)),
    "symmetry": (4, (0, 1, 2, 3)),
    "triangle": (4, (0, 2, 5, 2)),
}
# the witness each axiom gets on chain(2), k = (1, 1)
BROKEN_WITNESSES = {
    "zero": ((2, 0),),
    "symmetry": ((1, 0),),
    "triangle": ((1, 0), (1, 0)),
}


@pytest.mark.parametrize("axiom", sorted(BROKEN_TABLES))
def test_broken_tables_detected_with_valid_witness(axiom):
    m, table = BROKEN_TABLES[axiom]
    for poset, k in [(Poset.chain(2), (1, 1)), (Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 2, 1))]:
        ctx = make_context(poset, k, m, table)
        fast = check_weight_axioms(ctx)
        brute = check_weight_axioms_bruteforce(ctx)
        assert not fast.ok and not brute.ok
        assert fast.axiom == brute.axiom == axiom
        assert_witness_violates(ctx, fast)
        assert_witness_violates(ctx, brute)
        if k == (1, 1):
            assert fast.witness == BROKEN_WITNESSES[axiom]


def test_zero_axiom_witness_uses_minimal_block():
    # the hidden-support coordinate sits in a minimal block, where it is visible
    ctx = make_context(Poset.from_covers(2, [(2, 1)]), (1, 1), 3, (0, 1, 0))
    result = check_weight_axioms(ctx)
    assert not result.ok and result.axiom == "zero"
    assert_witness_violates(ctx, result)


def random_symmetric_table(rng, m):
    """w(0) = 0, positive elsewhere, symmetric; triangle not enforced."""
    table = [0] * m
    for a in range(1, m // 2 + 1):
        value = rng.randint(1, 4)
        table[a] = value
        table[m - a] = value
    return tuple(table)


def test_fast_route_agrees_with_bruteforce_on_random_tables():
    rng = random.Random(7)
    posets = [p for s in (1, 2, 3) for p in all_posets(s)]
    for _ in range(150):
        m = rng.choice([2, 3, 4, 5])
        table = random_symmetric_table(rng, m)
        poset = rng.choice(posets)
        k = tuple(rng.randint(1, 2) for _ in range(poset.s))
        ctx = make_context(poset, k, m, table)
        if ctx.size > 700:
            continue
        fast = check_weight_axioms(ctx)
        brute = check_weight_axioms_bruteforce(ctx)
        assert fast.ok == brute.ok, (poset, k, m, table)
        if not fast.ok:
            assert fast.axiom == brute.axiom
            assert_witness_violates(ctx, fast)
            assert_witness_violates(ctx, brute)


def test_metric_axioms_follow_from_weight_axioms():
    # distance is the weight of the difference, so a passing report covers both
    ctx = space_context(Poset.chain(2), (1, 1), 3, lee_weight(Alphabet(3)))
    assert check_weight_axioms(ctx).ok
    vectors = list(ctx.vectors())
    for u in vectors:
        for v in vectors:
            assert (u.distance(v) == 0) == (u == v)
            assert u.distance(v) == v.distance(u)
            for w in vectors:
                assert u.distance(v) <= u.distance(w) + w.distance(v)


TREE5 = Poset.from_covers(5, [(1, 2), (1, 3), (3, 4)])
TRIANGLE_VIOLATIONS = [
    (Poset.antichain(3), (2, 1, 1), (0, 3, 5, 1, 5, 3)),
    (Poset.antichain(3), (2, 1, 1), (0, 1, 4, 2, 4, 1)),
    (Poset.chain(3), (1, 1, 2), (0, 3, 1, 1, 3)),
    (Poset.chain(3), (1, 1, 2), (0, 2, 5, 2)),
    (Poset.chain(3), (1, 1, 2), (0, 1, 4, 5, 5, 4, 1)),
    (Poset.from_covers(4, [(1, 3), (2, 3), (3, 4)]), (1, 2, 1, 1), (0, 2, 5, 2)),
    (Poset.from_covers(4, [(1, 3), (2, 3), (3, 4)]), (1, 2, 1, 1), (0, 3, 1, 1, 3)),
    (Poset.from_covers(4, [(1, 3), (2, 3), (3, 4)]), (1, 2, 1, 1), (0, 2, 1, 5, 5, 1, 2)),
    (TREE5, (1,) * 5, (0, 1, 3, 3, 1)),
    (TREE5, (1,) * 5, (0, 1, 3, 5, 3, 1)),
    (TREE5, (1,) * 5, (0, 2, 2, 5, 5, 2, 2)),
    (TREE5, (1,) * 5, (0, 4, 1, 1, 1, 1, 4)),
    (TREE5, (1,) * 5, (0, 5, 5, 1, 1, 5, 5)),
]


def scalar_rule_witness(ctx):
    """The first (a, b) in row-major order with w(a + b) > w(a) + w(b), put
    into the first coordinate of the smallest minimal block."""
    table, m = ctx.weight_fn.table, ctx.m
    a, b = next(
        (a, b) for a in range(m) for b in range(m) if table[(a + b) % m] > table[a] + table[b]
    )
    block = min(i for i in ctx.poset.elements if not ctx.poset.principal_ideal(i)[1])
    u, v = [0] * ctx.n, [0] * ctx.n
    u[ctx.offsets[block - 1]], v[ctx.offsets[block - 1]] = a, b
    return tuple(u), tuple(v)


def assert_matches_oracle(ctx):
    """(ok, axiom) equal the whole-array oracle's, and a triangle witness is
    the scalar rule's and violates under `BlockVector.weight`."""
    oracle = check_weight_axioms_whole_array(ctx)
    result = check_weight_axioms(ctx)
    assert (result.ok, result.axiom) == (oracle.ok, oracle.axiom), (
        ctx.poset.covers(), ctx.labeling.k, ctx.weight_fn.table,
    )
    if result.axiom == "triangle":
        assert result.witness == scalar_rule_witness(ctx)
    if not result.ok:
        assert_witness_violates(ctx, result)
    return result


@pytest.mark.parametrize("step", [None, 1, 64])
def test_stepwise_triangle_check_matches_whole_array_oracle(monkeypatch, step):
    # both routes agree with the oracle however the pairwise route splits its
    # vector pairs into steps (1: one row of pairs per step)
    if step is not None:
        monkeypatch.setattr(verify, "_PAIR_STEP", step)
    for poset, k, table in TRIANGLE_VIOLATIONS:
        ctx = make_context(poset, k, len(table), table)
        assert check_weight_axioms_whole_array(ctx).axiom == "triangle"
        assert_matches_oracle(ctx)
        if ctx.size <= 2401:
            brute = check_weight_axioms_bruteforce(ctx)
            assert brute.axiom == "triangle", (poset.covers(), k, table)
            assert_witness_violates(ctx, brute)
    for ctx in valid_contexts():
        assert assert_matches_oracle(ctx).ok
        assert check_weight_axioms_bruteforce(ctx).ok


def test_random_spaces_match_whole_array_oracle():
    # every poset with s <= 4, blocks of 1 or 2 coordinates, m <= 7 and
    # symmetric tables that need not satisfy the triangle inequality
    rng = random.Random(12)
    violations = 0
    for poset in [p for s in (1, 2, 3, 4) for p in all_posets(s)]:
        for _ in range(3):
            m = rng.randint(2, 7)
            k = tuple(rng.randint(1, 2) for _ in range(poset.s))
            ctx = make_context(poset, k, m, random_symmetric_table(rng, m))
            result = assert_matches_oracle(ctx)
            if ctx.size <= 512:
                assert check_weight_axioms_bruteforce(ctx).ok == result.ok
            violations += not result.ok
    assert violations > 50


def test_block_weight_is_a_metric_exactly_when_scalar_weight_is():
    # every poset with s <= 4; blocks of up to 3 coordinates where m <= 4
    rng = random.Random(13)
    violations = 0
    for poset in [p for s in (1, 2, 3, 4) for p in all_posets(s)]:
        for _ in range(2):
            m = rng.randint(2, 7)
            k = tuple(rng.randint(1, 3 if m <= 4 else 2) for _ in range(poset.s))
            table = random_symmetric_table(rng, m)
            try:
                validate_weight_axioms(Alphabet(m), table)
                scalar_ok = True
            except AxiomError:
                scalar_ok = False
            ctx = make_context(poset, k, m, table)
            assert assert_matches_oracle(ctx).ok == scalar_ok
            if ctx.size <= 512:
                assert check_weight_axioms_bruteforce(ctx).ok == scalar_ok
            violations += not scalar_ok
    assert violations > 50


def test_three_coordinate_lee_block_space():
    # a 3-coordinate block over Z_7: the oracle enumerates 7^6 block pairs,
    # the check reads 7^2 scalar pairs
    ctx = make_context(Poset.chain(2), (3, 1), 7, (0, 1, 1, 3, 3, 1, 1))
    result = assert_matches_oracle(ctx)
    assert result == verify.AxiomCheck.failed("triangle", ((1, 0, 0, 0), (2, 0, 0, 0)))
    assert check_weight_axioms(make_context(Poset.chain(2), (3, 1), 7, (0, 1, 2, 3, 3, 2, 1))).ok


def test_axiom_check_calls_no_table_routine(monkeypatch):
    # the check reads the scalar table only: no whole-space table, no numpy
    def refuse(*args, **kwargs):
        raise AssertionError("the axiom check called a table routine")

    routines = [
        name for name, value in vars(verify).items()
        if getattr(value, "__module__", None) == "posetblock.tables"
    ]
    assert {"weight_table", "digit_table"} <= set(routines)
    for name in routines:
        monkeypatch.setattr(verify, name, refuse)
    monkeypatch.setattr(verify, "np", None)
    # an s = 6 tree: 4^12 profile pairs over Z_7, 3^12 with the broken tables
    tree = Poset.from_covers(6, [(1, 2), (1, 3), (3, 4), (3, 5), (5, 6)])
    assert check_weight_axioms(make_context(tree, (1,) * 6, 7, (0, 2, 3, 1, 1, 3, 2))).ok
    for axiom, (m, table) in BROKEN_TABLES.items():
        assert assert_matches_oracle(make_context(tree, (1,) * 6, m, table)).axiom == axiom
