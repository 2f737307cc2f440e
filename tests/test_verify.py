import random
from itertools import product

import numpy as np
import pytest

from posetblock import verify
from posetblock.verify import (
    AxiomCheck,
    _block_sum_extremes,
    _triangle_witness,
    _vector_with_profile,
)
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


def _check_weight_axioms_whole_array(ctx):
    """Oracle: the profile check with all profile pairs in one array.

    The route `check_weight_axioms` took before it checked the pairs in
    bounded steps: one |values|^s x |values|^s sum-code array, then the
    first maximum of the excess in row-major order.
    """
    table = ctx.weight_fn.table
    m = ctx.m
    if table[0] != 0:
        return AxiomCheck.failed("zero", (ctx.zero().coords,))
    for a in range(1, m):
        if table[a] <= 0:
            block = min(
                i for i in ctx.poset.elements
                if ctx.poset.principal_ideal(i)[1] == frozenset()
            )
            coords = [0] * ctx.n
            coords[ctx.offsets[block - 1]] = a
            return AxiomCheck.failed("zero", (tuple(coords),))
    for a in range(1, m):
        if table[a] != table[m - a]:
            coords = [0] * ctx.n
            coords[0] = a
            return AxiomCheck.failed("symmetry", (tuple(coords),))

    values = tuple(sorted(set(table)))
    val_index = {v: i for i, v in enumerate(values)}
    nv = len(values)
    s = ctx.s
    profiles = list(product(values, repeat=s))
    weights = np.array([ctx.weight_of_profile(p) for p in profiles], dtype=np.int64)
    for p, w in zip(profiles, weights):
        if (w > 0) != any(p):
            return AxiomCheck.failed("zero", (_vector_with_profile(ctx, p),))

    cmax_by_k = {}
    for k in set(ctx.labeling.k):
        cmax, _ = _block_sum_extremes(m, table, k)
        grid = np.zeros((nv, nv), dtype=np.int64)
        for (a, b), c in cmax.items():
            grid[val_index[a], val_index[b]] = val_index[c]
        cmax_by_k[k] = grid
    idx = np.array([[val_index[v] for v in p] for p in profiles], dtype=np.int64)
    radix = nv ** np.arange(s - 1, -1, -1, dtype=np.int64)
    sum_code = np.zeros((len(profiles), len(profiles)), dtype=np.int64)
    for i in range(s):
        grid = cmax_by_k[ctx.labeling.k[i]]
        sum_code += grid[idx[:, i][:, None], idx[:, i][None, :]] * radix[i]
    excess = weights[sum_code] - (weights[:, None] + weights[None, :])
    if (excess > 0).any():
        ia, ib = np.unravel_index(int(excess.argmax()), excess.shape)
        return AxiomCheck.failed("triangle", _triangle_witness(ctx, profiles[ia], profiles[ib]))
    return AxiomCheck.passed()


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


@pytest.mark.parametrize("pair_chunk", [None, 1, 64])
def test_stepwise_triangle_check_matches_whole_array_oracle(monkeypatch, pair_chunk):
    # the witness is the first maximum over all pairs in row-major order, for
    # every split of the blocks into head and tail (1: one row per step)
    if pair_chunk is not None:
        monkeypatch.setattr(verify, "_PAIR_CHUNK", pair_chunk)
    for poset, k, table in TRIANGLE_VIOLATIONS:
        ctx = make_context(poset, k, len(table), table)
        oracle = _check_weight_axioms_whole_array(ctx)
        assert oracle.axiom == "triangle"
        assert check_weight_axioms(ctx) == oracle, (poset, k, table)
    for ctx in valid_contexts():
        assert check_weight_axioms(ctx) == _check_weight_axioms_whole_array(ctx)
        assert check_weight_axioms(ctx).ok
