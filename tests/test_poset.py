from itertools import permutations

import pytest

import posetblock.poset as poset_module
from posetblock import (
    BudgetError,
    CycleError,
    Labeling,
    Permutation,
    Poset,
    SizeMismatchError,
    ValidationError,
    all_posets,
)

from oracles import ideal_masks_by_scan


def bfs_down_closure(poset, elements):
    """Breadth-first down-closure oracle over the leq relation."""
    frontier = list(elements)
    seen = set(frontier)
    while frontier:
        x = frontier.pop()
        for j in poset.elements:
            if poset.leq(j, x) and j not in seen:
                seen.add(j)
                frontier.append(j)
    return frozenset(seen)


def test_from_covers_chain():
    p = Poset.from_covers(2, [(1, 2)])
    assert p.leq(1, 2) and not p.leq(2, 1)


def test_from_covers_empty_is_antichain():
    p = Poset.from_covers(3, [])
    assert p.is_antichain and not p.is_chain


def test_from_covers_transitivity_forced():
    p = Poset.from_covers(3, [(1, 2), (2, 3)])
    assert p.leq(1, 3)
    assert p.is_chain


def test_from_covers_cycle_rejected():
    with pytest.raises(CycleError):
        Poset.from_covers(3, [(1, 2), (2, 3), (3, 1)])


def test_from_relation_checks_the_order_axioms():
    # pairs without any (i, i) are closed reflexively, not rejected
    assert Poset.from_relation(3, [(1, 2), (1, 3), (2, 3)]) == Poset.chain(3)
    with pytest.raises(CycleError, match="antisymmetry fails on 1, 2"):
        Poset.from_relation(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="relation not transitive below 3"):
        Poset.from_relation(3, [(1, 2), (2, 3)])


def test_from_covers_out_of_range():
    with pytest.raises(IndexError):
        Poset.from_covers(2, [(1, 3)])


@pytest.mark.parametrize(
    "build, base, message",
    [
        (lambda: Labeling((1, 0)), ValueError, "block dimensions must be positive"),
        (lambda: Permutation((1, 1)), ValueError, "not a bijection"),
        (lambda: Poset(0, ()), ValueError, "relation size does not match ground set"),
        (lambda: Poset.from_relation(3, [(1, 2), (2, 3)]), ValueError, "relation not transitive"),
        (lambda: Poset.chain(2).leq(1, 3), IndexError, "element 3 outside 1..2"),
    ],
    ids=["Labeling", "Permutation", "Poset", "from_relation", "check_element"],
)
def test_constructor_errors_are_validation_errors(build, base, message):
    # also the builtin base, so `except ValueError` / `except IndexError` callers still catch them
    with pytest.raises(ValidationError, match=message) as info:
        build()
    assert isinstance(info.value, base)


def test_ideal_of_chain_top():
    p = Poset.chain(3)
    assert p.ideal_of({3}) == {1, 2, 3}


def test_ideal_of_antichain_is_identity():
    p = Poset.antichain(3)
    assert p.ideal_of({2}) == {2}


def test_ideal_of_vee_matches_bfs_oracle():
    p = Poset.from_covers(3, [(1, 3), (2, 3)])
    assert p.ideal_of({3}) == bfs_down_closure(p, {3}) == {1, 2, 3}


def test_ideal_out_of_range():
    with pytest.raises(IndexError):
        Poset.chain(2).ideal_of({5})


def test_principal_ideal_chain():
    ideal, strict = Poset.chain(3).principal_ideal(3)
    assert ideal == {1, 2, 3} and strict == {1, 2}


def test_principal_ideal_minimal_element():
    for p in (Poset.chain(3), Poset.antichain(3)):
        ideal, strict = p.principal_ideal(1)
        assert ideal == {1} and strict == frozenset()


def test_principal_ideal_vee():
    p = Poset.from_covers(3, [(1, 3), (2, 3)])
    ideal, strict = p.principal_ideal(3)
    assert ideal == bfs_down_closure(p, {3})
    assert strict == ideal - {3}


def test_maximal_elements_chain():
    assert Poset.chain(3).maximal_elements({1, 2, 3}) == {3}


def test_maximal_elements_antichain():
    assert Poset.antichain(3).maximal_elements({1, 3}) == {1, 3}


def test_maximal_elements_vee_pairwise_oracle():
    p = Poset.from_covers(3, [(1, 3), (2, 3)])
    q = {1, 2}
    oracle = {a for a in q if all(a == b or not p.leq(a, b) for b in q)}
    assert p.maximal_elements(q) == oracle == {1, 2}


def test_classify():
    assert Poset.chain(3).is_chain and not Poset.chain(3).is_antichain
    assert Poset.antichain(3).is_antichain and not Poset.antichain(3).is_chain
    single = Poset.chain(1)
    assert single.is_chain and single.is_antichain


def test_is_finer_than():
    antichain, chain = Poset.antichain(2), Poset.chain(2)
    assert chain.is_finer_than(antichain)
    assert not antichain.is_finer_than(chain)
    reversed_chain = Poset.from_covers(2, [(2, 1)])
    assert not reversed_chain.is_finer_than(chain)


def test_is_finer_both_ways_means_equal():
    for p in all_posets(3):
        for q in all_posets(3):
            if p.is_finer_than(q) and q.is_finer_than(p):
                assert p == q


def test_finer_size_mismatch():
    with pytest.raises(SizeMismatchError):
        Poset.chain(2).is_finer_than(Poset.chain(3))


def brute_force_automorphisms(p):
    """All of s! permutations filtered by the order-preservation test."""
    out = []
    for image in permutations(range(1, p.s + 1)):
        phi = Permutation(image)
        if all(p.leq(i, j) == p.leq(phi(i), phi(j)) for i in p.elements for j in p.elements):
            out.append(phi)
    return sorted(out, key=lambda f: f.image)


def test_chain_is_rigid():
    assert Poset.chain(3).automorphisms() == [Permutation.identity(3)]


def test_antichain_has_full_symmetric_group():
    assert len(Poset.antichain(3).automorphisms()) == 6


def test_vee_automorphisms_match_brute_force():
    p = Poset.from_covers(3, [(1, 3), (2, 3)])
    auts = p.automorphisms()
    assert auts == brute_force_automorphisms(p)
    assert [a.image for a in auts] == [(1, 2, 3), (2, 1, 3)]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_automorphisms_match_brute_force_on_all_posets(s):
    for p in all_posets(s):
        assert p.automorphisms() == brute_force_automorphisms(p)


def test_automorphism_size_cap():
    with pytest.raises(BudgetError):
        Poset.antichain(11).automorphisms()


def test_labeled_automorphisms_unequal_labels_block_swap():
    p = Poset.antichain(2)
    assert p.labeled_automorphisms(Labeling((1, 2))) == [Permutation.identity(2)]
    assert len(p.labeled_automorphisms(Labeling((2, 2)))) == 2


def test_labeled_automorphisms_vee():
    p = Poset.from_covers(3, [(1, 3), (2, 3)])
    labeled = p.labeled_automorphisms(Labeling((1, 1, 2)))
    oracle = [
        phi for phi in brute_force_automorphisms(p)
        if all((1, 1, 2)[phi(i) - 1] == (1, 1, 2)[i - 1] for i in p.elements)
    ]
    assert labeled == oracle
    assert [a.image for a in labeled] == [(1, 2, 3), (2, 1, 3)]


def test_labeled_automorphisms_are_subset():
    for p in all_posets(3):
        labeled = set(a.image for a in p.labeled_automorphisms(Labeling((1, 2, 1))))
        assert labeled <= set(a.image for a in p.automorphisms())


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_is_labeled_automorphism_matches_brute_force(s):
    labeling = Labeling(tuple(1 + i % 2 for i in range(s)))
    for p in all_posets(s):
        for image in permutations(range(1, s + 1)):
            phi = Permutation(image)
            oracle = all(
                p.leq(i, j) == p.leq(phi(i), phi(j)) for i in p.elements for j in p.elements
            ) and all(labeling.k[phi(i) - 1] == labeling.k[i - 1] for i in p.elements)
            assert p.is_labeled_automorphism(phi, labeling) == oracle, (p, image)


def test_labeled_size_mismatch():
    with pytest.raises(SizeMismatchError):
        Poset.chain(2).labeled_automorphisms(Labeling((1, 1, 1)))


def test_automorphism_group_closure():
    p = Poset.from_covers(4, [(1, 3), (2, 3), (1, 4), (2, 4)])
    auts = p.automorphisms()
    images = {a.image for a in auts}
    assert Permutation.identity(4).image in images
    for a in auts:
        assert a.inverse().image in images
        for b in auts:
            assert a.compose(b).image in images


def test_ideal_idempotence_and_union_of_principals():
    for p in all_posets(3):
        for mask in range(1 << 3):
            elems = {i + 1 for i in range(3) if mask >> i & 1}
            ideal = p.ideal_of(elems)
            assert elems <= ideal
            assert p.ideal_of(ideal) == ideal
            union = frozenset().union(*(p.principal_ideal(i)[0] for i in elems)) if elems else frozenset()
            assert ideal == union


def test_maximal_elements_regenerate_ideals():
    for p in all_posets(3):
        for ideal in p.ideals():
            mx = p.maximal_elements(ideal)
            assert mx <= ideal
            assert p.ideal_of(mx) == ideal


def test_ideals_by_size():
    p = Poset.chain(3)
    assert p.ideals() == [frozenset(), {1}, {1, 2}, {1, 2, 3}]
    assert p.ideals(size=2) == [{1, 2}]
    assert len(Poset.antichain(3).ideals()) == 8


def test_ideal_masks_match_the_subset_scan():
    for s in range(1, 5):
        for p in all_posets(s):
            assert p.ideal_masks() == ideal_masks_by_scan(p)
            for size in range(s + 1):
                assert p.ideal_masks(size) == ideal_masks_by_scan(p, size)


def test_ideal_masks_past_twenty_elements():
    chain = Poset.chain(40)
    assert chain.ideal_masks() == [(1 << i) - 1 for i in range(41)]
    assert chain.ideal_masks(size=25) == [(1 << 25) - 1]


def test_ideal_masks_refuse_past_the_cap(monkeypatch):
    monkeypatch.setattr(poset_module, "IDEAL_CAP", 100)
    assert len(Poset.antichain(6).ideal_masks()) == 64
    assert len(Poset.antichain(7).ideal_masks(size=2)) == 21
    with pytest.raises(BudgetError, match="past 100 ideals"):
        Poset.antichain(7).ideal_masks()


def test_full_ideal_listing_refuses_wide_posets_before_listing(monkeypatch):
    def unlisted(self, size):
        raise AssertionError("ideals listed before the refusal")

    monkeypatch.setattr(Poset, "_listed_ideals", unlisted)
    # 21 and 40 minimal elements; one minimal element below 21 maximal ones
    broom = Poset.from_covers(22, [(1, i) for i in range(2, 23)])
    for poset in (Poset.antichain(21), Poset.antichain(40), broom):
        with pytest.raises(BudgetError, match=f"^ideal enumeration refused past {1 << 20} ideals$"):
            poset.ideal_masks()


def test_all_posets_counts():
    # numbers of labeled posets on 1..4 points
    assert [sum(1 for _ in all_posets(s)) for s in (1, 2, 3, 4)] == [1, 3, 19, 219]


def test_covers_roundtrip():
    for p in all_posets(3):
        assert Poset.from_covers(p.s, p.covers()) == p
