from itertools import product

import numpy as np
import pytest

from posetblock import (
    Alphabet,
    BudgetError,
    Code,
    ContextMismatchError,
    NegativeRadiusError,
    Poset,
    SizeMismatchError,
    ValidationError,
    all_posets,
    ball,
    custom_weight,
    is_r_perfect,
    lee_weight,
    space_context,
)
from posetblock import algebra
from posetblock.tables import block_max_table, digit_table, ideals, profile_weights, weight_table

from oracles import supports_union


def sample_contexts():
    lee5 = lee_weight(Alphabet(5))
    lee4 = lee_weight(Alphabet(4))
    # block maxima fit one byte, while weights reach 3 * 200 = 600
    wide = custom_weight(Alphabet(5), [100 * w for w in lee5.table])
    return [
        space_context(Poset.chain(2), (1, 1), 2),
        space_context(Poset.chain(3), (1, 2, 1), 2),
        space_context(Poset.antichain(3), (1, 1, 1), 3),
        space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (2, 1, 1), 2),
        space_context(Poset.chain(2), (2, 1), 4, lee4),
        space_context(Poset.from_covers(3, [(1, 2)]), (1, 1, 1), 5, lee5),
        space_context(Poset.antichain(3), (1, 2, 1), 5, wide),
    ]


def test_offsets_partition_coordinates():
    ctx = space_context(Poset.chain(3), (1, 2, 1), 2)
    assert ctx.offsets == (0, 1, 3, 4)
    assert [ctx.block_slice(i) for i in (1, 2, 3)] == [slice(0, 1), slice(1, 3), slice(3, 4)]


def test_vector_validation():
    ctx = space_context(Poset.chain(2), (1, 1), 2)
    with pytest.raises(SizeMismatchError):
        ctx.vector((0, 1, 0))
    with pytest.raises(ValueError):
        ctx.vector((0, 2))


@pytest.mark.parametrize(
    "build, base, message",
    [
        (lambda ctx: ctx.vector((0, 2)), ValueError, "coordinates must lie in 0..1"),
        (lambda ctx: ctx.block_slice(3), IndexError, "block 3 outside 1..2"),
        (lambda ctx: ctx.basis_vector(1, 2), IndexError, "block 1 has no coordinate 2"),
    ],
    ids=["vector", "block_slice", "basis_vector"],
)
def test_space_errors_are_validation_errors(chain2_m2, build, base, message):
    with pytest.raises(ValidationError, match=message) as info:
        build(chain2_m2)
    assert isinstance(info.value, base)


def test_context_cross_validation():
    with pytest.raises(SizeMismatchError):
        space_context(Poset.chain(2), (1, 1, 1), 2)
    with pytest.raises(SizeMismatchError):
        space_context(Poset.chain(2), (1, 1), 3, lee_weight(Alphabet(4)))


def test_block_support():
    ctx = space_context(Poset.chain(2), (1, 2), 2)
    assert ctx.zero().support() == frozenset()
    assert ctx.vector((0, 1, 0)).support() == {2}
    ctx22 = space_context(Poset.chain(2), (2, 2), 2)
    assert ctx22.vector((1, 0, 0, 1)).support() == {1, 2}


def test_block_max_weight_lee():
    ctx = space_context(Poset.chain(1), (2,), 5, lee_weight(Alphabet(5)))
    table = lee_weight(Alphabet(5)).table
    u = ctx.vector((2, 4))
    assert u.block_max_weight(1) == max(table[2], table[4]) == 2


def test_block_max_weight_hamming_and_zero():
    ctx = space_context(Poset.chain(2), (2, 1), 3)
    assert ctx.vector((0, 2, 0)).block_max_weight(1) == 1
    assert ctx.vector((0, 2, 0)).block_max_weight(2) == 0
    with pytest.raises(IndexError):
        ctx.zero().block_max_weight(3)


def test_weight_chain_examples(chain2_m2):
    # single top coordinate: w(1) plus max_weight per strictly-lower ideal member
    assert chain2_m2.vector((0, 1)).weight() == 1 + 1 * 1 == 2
    assert chain2_m2.vector((1, 1)).weight() == 2
    assert chain2_m2.zero().weight() == 0


def test_basis_vector_weight_formula():
    # weight(e_ij) = w(1) + max_weight * |strict principal ideal of i|
    for ctx in sample_contexts():
        for i in ctx.poset.elements:
            strict = ctx.poset.principal_ideal(i)[1]
            expected = ctx.weight_fn(1) + ctx.max_weight * len(strict)
            for j in range(1, ctx.labeling.k[i - 1] + 1):
                assert ctx.basis_vector(i, j).weight() == expected


def test_weight_bounds_and_zero_iff():
    for ctx in sample_contexts():
        for v in ctx.vectors():
            w = v.weight()
            assert (w == 0) == v.is_zero
            assert w <= ctx.diameter


def test_hamming_weight_is_ideal_cardinality():
    for ctx in sample_contexts():
        ctx_h = ctx.hamming()
        for v in ctx_h.vectors():
            assert v.weight() == len(ctx_h.poset.ideal_of(v.support()))


def test_distance_basics(chain2_m2):
    u = chain2_m2.vector((1, 0))
    v = chain2_m2.vector((0, 1))
    assert u.distance(u) == 0
    assert u.distance(chain2_m2.zero()) == u.weight()
    assert u.distance(v) == chain2_m2.vector((1, 1)).weight() == 2


def test_distance_context_mismatch(chain2_m2, antichain2_m3):
    with pytest.raises(ContextMismatchError):
        chain2_m2.zero().distance(antichain2_m3.zero())


def test_subadditivity_witnesses():
    for ctx in sample_contexts():
        vectors = list(ctx.vectors())
        for u in vectors[:: max(1, len(vectors) // 12)]:
            for v in vectors[:: max(1, len(vectors) // 12)]:
                assert supports_union(u, v)
                assert (u + v).weight() <= u.weight() + v.weight()


def test_ball_radius_zero(chain2_m2):
    center = chain2_m2.vector((1, 0))
    assert ball(center, 0) == [center]


def test_negative_radius_is_a_validation_error_and_a_value_error(chain2_m2):
    code = Code.from_words(chain2_m2, [(0, 0), (1, 1)])
    for check in (lambda: ball(chain2_m2.zero(), -1), lambda: is_r_perfect(code, -1)):
        try:
            check()
        except ValueError as exc:
            assert isinstance(exc, NegativeRadiusError)
            assert isinstance(exc, ValidationError)
        else:
            pytest.fail("a negative radius was accepted")


def test_ball_chain_example(chain2_m2):
    members = ball(chain2_m2.zero(), 1)
    assert [v.coords for v in members] == [(0, 0), (1, 0)]


def test_ball_is_prefix_subspace_on_chains():
    # radius t * max_weight around zero is exactly the span of the first t blocks
    ctx = space_context(Poset.chain(3), (1, 2, 1), 2)
    for t in range(ctx.s + 1):
        members = {v.coords for v in ball(ctx.zero(), t * ctx.max_weight)}
        head = ctx.offsets[t]
        expected = {
            v.coords for v in ctx.vectors() if not any(v.coords[head:])
        }
        assert members == expected
        assert len(members) == ctx.m ** head


def test_ball_monotone_and_translation_invariant():
    ctx = space_context(Poset.from_covers(3, [(1, 2)]), (1, 1, 1), 3, lee_weight(Alphabet(3)))
    zero_sizes = [len(ball(ctx.zero(), r)) for r in range(ctx.diameter + 1)]
    assert zero_sizes == sorted(zero_sizes)
    assert zero_sizes[-1] == ctx.size
    center = ctx.vector((2, 0, 1))
    for r in range(ctx.diameter + 1):
        assert len(ball(center, r)) == zero_sizes[r]


def test_ball_scans_the_weight_table_once(monkeypatch):
    ctx = space_context(Poset.antichain(1), (1,), 60, lee_weight(Alphabet(60)))
    scans = []

    def counted_max(*args, **kwargs):
        scans.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(algebra, "max", counted_max, raising=False)
    assert len(ball(ctx.zero(), 3)) == 7
    assert len(scans) == 1


def test_ball_budget():
    ctx = space_context(Poset.chain(2), (1, 1), 2)
    with pytest.raises(BudgetError):
        ball(ctx.zero(), 1, budget=2)


def test_rank_roundtrip_and_lexicographic_order():
    ctx = space_context(Poset.chain(2), (1, 1), 3)
    coords = [v.coords for v in ctx.vectors()]
    assert coords == sorted(coords)
    for rank, c in enumerate(coords):
        assert ctx.index_of(c) == rank
        assert ctx.vector_at(rank).coords == c


def test_weight_table_matches_per_vector():
    for ctx in sample_contexts():
        table = weight_table(ctx)
        expected = np.array([v.weight() for v in ctx.vectors()])
        assert (table == expected).all()


def test_weight_table_in_steps_matches_one_step():
    ctx = space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (4, 4, 3), 3)
    assert ctx.size > 2 * (1 << 16)
    digits = digit_table(ctx)
    table = weight_table(ctx)
    assert (table == profile_weights(ctx, block_max_table(ctx, digits))).all()
    for rank in range(0, ctx.size, 997):
        v = ctx.vector_at(rank)
        assert tuple(digits[rank]) == v.coords and table[rank] == v.weight()


def test_profile_weight_agrees_with_vector_weight():
    for ctx in sample_contexts():
        for v in ctx.vectors():
            assert ctx.weight_of_profile(v.profile()) == v.weight()


def test_profile_weights_match_weight_of_profile():
    for ctx in sample_contexts():
        values = sorted(set(ctx.weight_fn.table))
        profiles = list(product(values, repeat=ctx.s))
        expected = [ctx.weight_of_profile(p) for p in profiles]
        assert profile_weights(ctx, np.array(profiles)).tolist() == expected
    # random profiles of every density on 70 blocks, past any 64-bit mask
    rng = np.random.default_rng(70)
    lee5 = lee_weight(Alphabet(5))
    for poset in (Poset.chain(70), Poset.antichain(70)):
        ctx = space_context(poset, (1,) * 70, 5, lee5)
        profiles = rng.integers(0, 3, (200, 70)) * (rng.random((200, 70)) < rng.random((200, 1)))
        expected = [ctx.weight_of_profile(p) for p in profiles.tolist()]
        assert profile_weights(ctx, profiles).tolist() == expected


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_ideals_match_poset_masks(s):
    subsets = np.array(list(product((False, True), repeat=s)))
    masks = [sum(1 << e for e in range(s) if row[e]) for row in subsets.tolist()]
    # a (G, s, s) stack holding every subset in every slot
    stack = (np.arange(len(subsets))[:, None] + np.arange(s)) % len(subsets)
    for poset in all_posets(s):
        closures = [poset.ideal_mask(mask) for mask in masks]
        expected = np.array(
            [[[mask >> e & 1 for e in range(s)] for mask in closures],
             [[poset.maximal_mask(mask) >> e & 1 for e in range(s)] for mask in closures]],
            dtype=bool,
        )
        for supports, want in ((subsets, expected), (subsets[stack], expected[:, stack])):
            ideal, maximal = ideals(poset, supports)
            assert ideal.dtype == maximal.dtype == bool
            assert (np.array([ideal, maximal]) == want).all()


def test_metric_axioms_by_sampling_on_large_space():
    # beyond the exhaustive cutoff, spot-check random triples
    import random

    ctx = space_context(Poset.chain(5), (2, 2, 2, 2, 2), 3, lee_weight(Alphabet(3)))
    assert ctx.size > 4096
    rng = random.Random(17)
    for _ in range(300):
        u, v, w = (ctx.vector_at(rng.randrange(ctx.size)) for _ in range(3))
        assert (u.distance(v) == 0) == (u == v)
        assert u.distance(v) == v.distance(u)
        assert u.distance(v) <= u.distance(w) + w.distance(v)
