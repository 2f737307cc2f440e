import json
import random
import re
from itertools import combinations, product

import numpy as np
import pytest

from posetblock import (
    Alphabet,
    ArityError,
    BudgetError,
    Code,
    LabelError,
    Labeling,
    NegativeRadiusError,
    NotChainError,
    NotFinerError,
    Poset,
    SpaceContext,
    TooSmallError,
    ValidationError,
    WeightFunction,
    all_posets,
    analyze,
    ball,
    enumerate_linear_codes,
    finer_mds_check,
    hamming_min_distance,
    hamming_weight,
    identity_tail_map,
    is_r_perfect,
    lee_weight,
    mds_iff_perfect_check,
    min_distance,
    packing_radius,
    perfect_code_from_function,
    random_code,
    random_tail_map,
    reconstruct_tail_map,
    singleton_params,
    space_context,
    zero_tail_map,
)
from posetblock import codes, tables
from posetblock.cli import main
from posetblock.codes import SingletonParams
from posetblock.space import DEFAULT_VECTOR_BUDGET
from posetblock.tables import distinct_rows, weight_order, weight_table

from oracles import closure_error, is_hierarchical, pairwise_distances


def repetition_code(ctx):
    return Code.from_words(ctx, [(0, 0), (1, 1)], linear=True)


def balls_of(code, r):
    return [{v.coords for v in ball(c, r)} for c in code.codewords]


def packing_radius_oracle(code):
    """Grow r until two codeword balls intersect."""
    r = 0
    while True:
        sets = balls_of(code, r + 1)
        if any(a & b for a, b in combinations(sets, 2)):
            return r
        r += 1


def is_r_perfect_oracle(code, r):
    sets = balls_of(code, r)
    disjoint = not any(a & b for a, b in combinations(sets, 2))
    covered = set().union(*sets) == {v.coords for v in code.context.vectors()}
    return disjoint and covered


def test_code_canonicalization(chain2_m2):
    code = Code.from_words(chain2_m2, [(1, 1), (0, 0), (1, 1)])
    assert code.coords_list() == [(0, 0), (1, 1)]
    assert code.size == 2
    same = Code.from_words(chain2_m2, [chain2_m2.vector((1, 1)), (0, 0)])
    assert code == same and hash(code) == hash(same)
    assert code != Code.from_words(chain2_m2, [(0, 0), (1, 1)], linear=True)


def test_linear_certificate_verified(chain2_m2):
    with pytest.raises(ValidationError):
        Code.from_words(chain2_m2, [(0, 0), (1, 0), (1, 1)], linear=True)
    with pytest.raises(ValidationError):
        Code.from_words(chain2_m2, [(1, 1)], linear=True)


@pytest.mark.parametrize("chunk", [codes._CHUNK, 7])
def test_linear_closure_matches_loop_oracle(monkeypatch, chunk):
    monkeypatch.setattr(codes, "_CHUNK", chunk)
    rng = random.Random(29)
    spaces = [
        space_context(Poset.chain(3), (1, 1, 1), 2),
        space_context(Poset.antichain(2), (1, 2), 4),
        space_context(Poset.chain(2), (1, 1), 6),
    ]
    kinds = set()
    for ctx in spaces:
        for _ in range(80):
            gens = [ctx.vector_at(rng.randrange(ctx.size)).coords for _ in range(2)]
            words = Code.from_generator(ctx, gens).coords_list()
            choice = rng.randrange(3)
            if choice == 0:
                words = [ctx.vector_at(r).coords for r in rng.sample(range(ctx.size), 5)]
            elif choice == 1 and len(words) > 1:
                words.remove(rng.choice(words[1:]))
            elif choice == 2:
                words.append(ctx.vector_at(rng.randrange(ctx.size)).coords)
            expected = closure_error(ctx, Code.from_words(ctx, words).coords_list())
            kinds.add(expected and expected.split(":")[0])
            if expected is None:
                assert Code.from_words(ctx, words, linear=True).linear
            else:
                with pytest.raises(ValidationError, match=f"^{re.escape(expected)}$"):
                    Code.from_words(ctx, words, linear=True)
    assert kinds == {
        None,
        "linear code must contain the zero vector",
        "not closed under scaling",
        "not closed under addition",
    }


def test_from_generator_spans(antichain2_m3):
    code = Code.from_generator(antichain2_m3, [(1, 2)])
    assert code.coords_list() == [(0, 0), (1, 2), (2, 1)]
    assert code.linear


def test_min_distance_pairwise_oracle(chain2_m2):
    code = repetition_code(chain2_m2)
    pairwise = min(u.distance(v) for u, v in combinations(code.codewords, 2))
    assert min_distance(code) == pairwise == 2


def test_min_distance_whole_space_is_min_nonzero_weight():
    ctx = space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 1), 4, lee_weight(Alphabet(4)))
    code = Code.from_words(ctx, [v.coords for v in ctx.vectors()])
    assert min_distance(code) == ctx.min_nonzero_weight == 1


def test_min_distance_linear_shortcut_matches_pairwise():
    ctx = space_context(Poset.chain(2), (1, 1), 3)
    for code in enumerate_linear_codes(ctx):
        if code.size < 2:
            continue
        pairwise = min(u.distance(v) for u, v in combinations(code.codewords, 2))
        assert min_distance(code) == pairwise


@pytest.mark.parametrize("chunk", [codes._CHUNK, 5])
def test_min_distances_match_pairwise_on_random_codes(monkeypatch, chunk):
    monkeypatch.setattr(codes, "_CHUNK", chunk)
    rng = random.Random(13)
    vee = Poset.from_covers(3, [(1, 3), (2, 3)])
    spaces = [
        space_context(Poset.chain(3), (1, 2, 1), 3, lee_weight(Alphabet(3))),
        space_context(vee, (1, 1, 2), 4, lee_weight(Alphabet(4))),
        space_context(Poset.antichain(3), (2, 1, 1), 5, lee_weight(Alphabet(5))),
        # a zero off 0: d_H reads nonzero digits, d_w only positive weights
        space_context(vee, (1, 1, 2), 4, WeightFunction((0, 0, 1, 0))),
    ]
    for ctx in spaces:
        for _ in range(15):
            rows = rng.randint(1, 2)
            gens = [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(rows)]
            for code in (random_code(ctx, rng.randint(2, 12), rng), Code.from_generator(ctx, gens)):
                expected = pairwise_distances(code)
                assert (min_distance(code), hamming_min_distance(code)) == expected
                assert codes._min_weights(code) == expected


@pytest.mark.parametrize("poset", [Poset.antichain(70), Poset.chain(70)])
def test_min_distance_exact_beyond_64_blocks(poset):
    ctx = space_context(poset, (1,) * 70, 2)
    e1, e70 = (1,) + (0,) * 69, (0,) * 69 + (1,)
    code = Code.from_words(ctx, [(0,) * 70, e1, e70])
    assert min_distance(code) == hamming_min_distance(code) == 1
    assert (1, 1) == pairwise_distances(code)
    # closure is checked on exact ranks beyond 2^63 vectors
    with pytest.raises(ValidationError, match=re.escape(f"addition: {e70} + {e1}")):
        Code.from_words(ctx, code.coords_list(), linear=True)
    both = tuple(a + b for a, b in zip(e1, e70))
    linear = Code.from_words(ctx, code.coords_list() + [both], linear=True)
    assert (min_distance(linear), hamming_min_distance(linear)) == pairwise_distances(linear)


def test_min_distances_need_no_whole_space_table():
    ctx = space_context(Poset.chain(3), (3, 3, 3), 5, lee_weight(Alphabet(5)))
    with pytest.raises(BudgetError):
        weight_table(ctx)
    rng = random.Random(5)
    for _ in range(3):
        gens = [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(2)]
        for code in (random_code(ctx, 10, rng), Code.from_generator(ctx, gens)):
            assert (min_distance(code), hamming_min_distance(code)) == pairwise_distances(code)


def test_analytics_compute_each_quantity_once(monkeypatch, chain2_m2):
    walks = []
    walk = codes._packing

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(codes, "_packing", counted_walk)
    code = repetition_code(chain2_m2)
    caches = (tables._weight_table, tables._digit_table, tables._weight_order)
    for table in caches:
        table.cache_clear()

    def unused(self):
        raise AssertionError("codewords built as BlockVector objects")

    with monkeypatch.context() as hooked:
        hooked.setattr(Code, "codewords", property(unused))
        analyze(code)
        assert len(walks) == 1
        # the level route reads no whole-space table
        assert [table.cache_info().misses for table in caches] == [0, 0, 0]
        # the N poset is not hierarchical: the walk runs there
        n_poset = space_context(Poset.from_covers(4, [(1, 3), (2, 3), (2, 4)]), (1, 1, 1, 1), 2)
        # d_w = 1 fixes the packing radius 0 with no table
        analyze(Code.from_words(n_poset, [(0, 0, 0, 0), (1, 0, 0, 0)]))
        assert len(walks) == 2
        assert [table.cache_info().misses for table in caches] == [0, 0, 0]
        other = Code.from_words(n_poset, [(0, 0, 0, 0), (1, 1, 1, 1)])
        analyze(other)
        assert len(walks) == 3
        assert [table.cache_info().misses for table in caches] == [1, 1, 1]
        # one weight order per context, shared by the walk and the ball volume
        for r in range(3):
            is_r_perfect(code, r)
            is_r_perfect(other, r)
        assert tables._weight_order.cache_info().misses == 1
    walks.clear()
    mds_iff_perfect_check(code)
    assert len(walks) == 1

    built = []
    init = Code.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Code, "__init__", counted_init)
    assert hamming_min_distance(code) == 2
    assert built == []


def test_min_distance_too_small(chain2_m2):
    with pytest.raises(TooSmallError):
        min_distance(Code.from_words(chain2_m2, [(0, 0)]))


def test_singleton_params_repetition(chain2_m2):
    params = singleton_params(repetition_code(chain2_m2))
    assert (params.ideal_size, params.ideal_dimension) == (1, 1)
    assert params.bound == 2 and params.is_mds


def test_singleton_params_whole_space(chain2_m2):
    code = Code.from_words(chain2_m2, [v.coords for v in chain2_m2.vectors()])
    params = singleton_params(code)
    assert (params.ideal_size, params.ideal_dimension) == (0, 0)
    assert params.bound == 4 and params.is_mds


def test_singleton_bound_on_chain_is_prefix_dimension():
    ctx = space_context(Poset.chain(3), (1, 2, 1), 2)
    code = Code.from_generator(ctx, [(0, 0, 0, 1)])
    params = singleton_params(code)
    # on a chain the best ideal of that size is the prefix of blocks
    prefix = sum(ctx.labeling.k[: params.ideal_size])
    assert params.ideal_dimension == prefix
    assert params.bound == ctx.m ** (ctx.n - prefix)


def test_packing_radius_examples(chain2_m2):
    code = repetition_code(chain2_m2)
    assert packing_radius(code) == packing_radius_oracle(code) == 1
    whole = Code.from_words(chain2_m2, [v.coords for v in chain2_m2.vectors()])
    assert packing_radius(whole) == 0


NEGATIVE_RADIUS = "^packing radius -1: balls of radius 0 around distinct codewords meet$"


def test_packing_radius_minus_one_when_balls_of_radius_zero_meet():
    # w(1) = 0, so B(0, 0) = {0, 1} and the radius-0 balls of 0 and 1 share 1
    ctx = SpaceContext(Poset.chain(1), Labeling((1,)), Alphabet(4), WeightFunction((0, 0, 1, 0)))
    code = Code.from_words(ctx, [(0,), (1,)])
    assert packing_radius(code) == -1
    assert not any(is_r_perfect(code, r) for r in (0, 1, 2))
    with pytest.raises(NegativeRadiusError, match=NEGATIVE_RADIUS):
        analyze(code)
    # the same off the level route, where d_w = 0 fixes the radius
    antichain = SpaceContext(Poset.antichain(2), Labeling((1, 1)), Alphabet(4),
                             WeightFunction((0, 0, 1, 0)))
    code = Code.from_words(antichain, [(0, 0), (1, 0)])
    assert (min_distance(code), packing_radius(code)) == (0, -1)
    with pytest.raises(NegativeRadiusError, match=NEGATIVE_RADIUS):
        analyze(code)


def test_packing_radius_matches_oracle_on_random_codes(monkeypatch):
    rng = random.Random(11)
    ctx = space_context(Poset.chain(3), (1, 1, 1), 2)
    lee = space_context(Poset.chain(2), (1, 1), 5, lee_weight(Alphabet(5)))
    vee = space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 1), 3)
    # a chunk of 7 coordinates walks a shell in many steps (the walk runs on vee)
    chunks = (codes._CHUNK, 7)
    for space in (ctx, lee, vee):
        for _ in range(12):
            code = random_code(space, rng.randint(2, 5), rng)
            for chunk in chunks:
                monkeypatch.setattr(codes, "_CHUNK", chunk)
                assert packing_radius(code) == packing_radius_oracle(code)


def test_chain_route_reads_no_whole_space_table_and_never_walks(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk ran on the chain route")

    monkeypatch.setattr(codes, "_walk", refuse)
    caches = (tables._digit_table, tables._weight_table, tables._weight_order)
    for table in caches:
        table.cache_clear()
    rng = random.Random(8)
    relabeled = space_context(Poset.from_covers(3, [(2, 3), (3, 1)]), (2, 1, 1), 3)
    lee = space_context(Poset.chain(2), (1, 1), 6, lee_weight(Alphabet(6)))
    for ctx in (relabeled, lee):
        generator = ctx.vector_at(rng.randrange(1, ctx.size)).coords
        for code in (random_code(ctx, 6, rng), Code.from_generator(ctx, [generator])):
            analyze(code)
            packing_radius(code)
            mds_iff_perfect_check(code)
            for r in range(ctx.diameter + 1):
                is_r_perfect(code, r)
    assert [table.cache_info().misses for table in caches] == [0, 0, 0]


def test_walk_runs_off_the_chain_route(monkeypatch):
    walks = []
    walk = codes._walk

    def counted_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(codes, "_walk", counted_walk)
    zero = SpaceContext(Poset.chain(1), Labeling((1,)), Alphabet(4), WeightFunction((0, 0, 1, 0)))
    assert packing_radius(Code.from_words(zero, [(0,), (1,)])) == -1
    tree = space_context(Poset.from_covers(4, [(1, 2), (1, 3), (3, 4)]), (1, 1, 1, 1), 3)
    off_levels = Code.from_words(tree, [(0, 0, 0, 0), (1, 2, 0, 1)])
    assert packing_radius(off_levels) == packing_radius_oracle(off_levels)
    assert len(walks) == 2
    # the m x m split table past the budget, then the coordinates of the in-group pairs
    lee5 = Code.from_words(space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5))),
                           [(0,), (2,)])
    # (a Hamming block would need no pairs: each difference there weighs 1)
    block = space_context(Poset.chain(1), (3,), 4, lee_weight(Alphabet(4)))
    whole = Code.from_words(block, [v.coords for v in block.vectors()])
    assert (packing_radius(lee5, budget=10), packing_radius(whole, budget=64)) == (0, 0)
    assert len(walks) == 4
    assert (packing_radius(lee5), packing_radius(whole)) == (0, 0)
    assert len(walks) == 4


def test_chain_fallbacks_scan_the_differences_once(monkeypatch):
    scans = []
    differences = codes._differences

    def counted(code):
        scans.append(code)
        return differences(code)

    monkeypatch.setattr(codes, "_differences", counted)
    # the m x m split table past the budget, then the coordinates of the in-group pairs
    lee5 = Code.from_words(space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5))),
                           [(0,), (2,)])
    block = space_context(Poset.chain(1), (3,), 4, lee_weight(Alphabet(4)))
    whole = Code.from_words(block, [v.coords for v in block.vectors()])
    for code, budget in ((lee5, 10), (whole, 64)):
        report = analyze(code, budget)
        assert scans == [code]
        scans.clear()
        assert (report.min_distance, report.hamming_min_distance) == pairwise_distances(code)
        assert report.packing_radius == packing_radius_oracle(code)
        assert report.is_perfect == is_r_perfect_oracle(code, report.packing_radius)


@pytest.mark.parametrize("chunk", [codes._CHUNK, 5])
def test_capped_walk_matches_the_walk_and_the_oracle(monkeypatch, chunk):
    """The walk below d_w gives the radius of the uncapped walk and of the
    ball oracle, and perfection through the volume at that radius is the
    ball oracle's; a chunk of 5 coordinates takes one row a round."""
    monkeypatch.setattr(codes, "_CHUNK", chunk)
    rng = random.Random(31)
    vee = Poset.from_covers(3, [(1, 3), (2, 3)])
    n_poset = Poset.from_covers(4, [(1, 3), (2, 3), (2, 4)])
    spaces = [
        space_context(vee, (1, 1, 2), 3),
        space_context(n_poset, (1, 2, 1, 1), 2, hamming_weight(Alphabet(2))),
        space_context(n_poset, (1, 1, 1, 1), 4, lee_weight(Alphabet(4))),
        space_context(Poset.antichain(3), (2, 1, 1), 3, lee_weight(Alphabet(3))),
        SpaceContext(vee, Labeling((1, 1, 2)), Alphabet(4), WeightFunction((0, 0, 1, 0))),
    ]
    stops = 0
    for ctx in spaces:
        for _ in range(12):
            rows = rng.randint(1, 2)
            gens = [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(rows)]
            for code in (random_code(ctx, rng.randint(2, 12), rng), Code.from_generator(ctx, gens)):
                if code.size < 2:
                    continue
                capped = codes._walk(code, 1 << 20, min_distance(code))
                assert capped == codes._walk(code, 1 << 20)
                # the oracle starts at radius 0, which a zero off 0 can make meet
                meet = any(a & b for a, b in combinations(balls_of(code, 0), 2))
                assert capped == (-1 if meet else packing_radius_oracle(code))
                perfect = capped >= 0 and (
                    code.size * codes._volume(ctx, capped, 1 << 20) == ctx.size
                )
                assert perfect == (capped >= 0 and is_r_perfect_oracle(code, capped))
                ranked = weight_order(ctx)[1]
                volume = np.searchsorted(ranked, capped + 1, side="right")
                stops += code.size * volume > ctx.size
    assert stops
    # the Hamming [7, 4] code: perfect, so the walk ends at the volume stop below d_w = 3
    hamming7 = space_context(Poset.antichain(7), (1,) * 7, 2)
    code = Code.from_generator(hamming7, [(1, 0, 0, 0, 1, 1, 0), (0, 1, 0, 0, 1, 0, 1),
                                          (0, 0, 1, 0, 0, 1, 1), (0, 0, 0, 1, 1, 1, 1)])
    assert codes._walk(code, 1 << 20, min_distance(code)) == 1
    assert code.size * codes._volume(hamming7, 1, 1 << 20) == hamming7.size
    assert packing_radius_oracle(code) == 1 and is_r_perfect_oracle(code, 1)


def test_one_volume_per_perfection_test(monkeypatch):
    """`is_r_perfect` and `analyze` each compute |B(0, r)| once, on the chain
    route and off it, also when the volume test passes and the packing radius
    is needed too."""
    volumes = []
    volume = codes._volume

    def counted(*args):
        volumes.append(args)
        return volume(*args)

    monkeypatch.setattr(codes, "_volume", counted)
    rng = random.Random(23)
    chain = space_context(Poset.chain(3), (1, 2, 1), 2)
    vee = space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 2), 3)
    for ctx, perfect in ((chain, perfect_code_from_function(chain, 1, identity_tail_map(chain, 1))),
                         (vee, Code.from_words(vee, [v.coords for v in vee.vectors()]))):
        generator = ctx.vector_at(rng.randrange(1, ctx.size)).coords
        passed = 0
        for code in (random_code(ctx, 6, rng), Code.from_generator(ctx, [generator]), perfect):
            for r in range(ctx.diameter + 1):
                volumes.clear()
                passed += is_r_perfect(code, r)
                assert volumes == [(ctx, r, DEFAULT_VECTOR_BUDGET)]
            volumes.clear()
            report = analyze(code)
            assert volumes == [(ctx, report.packing_radius, DEFAULT_VECTOR_BUDGET)]
        assert passed and analyze(perfect).is_perfect


def test_distance_one_fixes_the_packing_radius_with_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a whole-space table was built")

    monkeypatch.setattr(codes, "digit_table", refuse)
    monkeypatch.setattr(codes, "weight_order", refuse)
    ctx = space_context(Poset.antichain(3), (1, 1, 1), 3)
    for words in ([(0, 0, 0), (0, 0, 1), (2, 2, 2)], [v.coords for v in ctx.vectors()]):
        code = Code.from_words(ctx, words)
        report = analyze(code)
        assert (report.min_distance, report.packing_radius) == (1, 0)
        assert report.is_perfect == (code.size == ctx.size)


def test_is_r_perfect_examples(chain2_m2):
    code = repetition_code(chain2_m2)
    assert is_r_perfect(code, 1)
    assert balls_of(code, 1) == [{(0, 0), (1, 0)}, {(0, 1), (1, 1)}]
    assert not is_r_perfect(code, 0)
    whole = Code.from_words(chain2_m2, [v.coords for v in chain2_m2.vectors()])
    assert is_r_perfect(whole, 0)


def test_is_r_perfect_matches_oracle_on_random_codes():
    rng = random.Random(3)
    ctx = space_context(Poset.from_covers(3, [(1, 2)]), (1, 1, 1), 2)
    for _ in range(10):
        code = random_code(ctx, rng.randint(2, 6), rng)
        for r in range(ctx.diameter + 1):
            assert is_r_perfect(code, r) == is_r_perfect_oracle(code, r)


def test_perfect_construction_identity(chain2_m2):
    code = perfect_code_from_function(chain2_m2, 1, identity_tail_map(chain2_m2, 1))
    assert code.coords_list() == [(0, 0), (1, 1)]
    assert is_r_perfect(code, 1 * chain2_m2.max_weight)


def test_perfect_construction_t_extremes(chain2_m2):
    whole = perfect_code_from_function(chain2_m2, 0, zero_tail_map(chain2_m2, 0))
    assert whole.size == chain2_m2.size and is_r_perfect(whole, 0)
    single = perfect_code_from_function(chain2_m2, 2, zero_tail_map(chain2_m2, 2))
    assert single.size == 1
    assert is_r_perfect(single, 2 * chain2_m2.max_weight)


def test_perfect_construction_random_maps():
    ctx = space_context(Poset.chain(3), (1, 2, 1), 2)
    rng = random.Random(0)
    for t in range(ctx.s + 1):
        for _ in range(5):
            code = perfect_code_from_function(ctx, t, random_tail_map(ctx, t, rng))
            assert code.size == ctx.m ** (ctx.n - ctx.offsets[t])
            assert is_r_perfect(code, t * ctx.max_weight)
            assert is_r_perfect_oracle(code, t * ctx.max_weight)


def test_perfect_construction_requires_natural_chain(vee_m2):
    with pytest.raises(NotChainError):
        perfect_code_from_function(vee_m2, 1, identity_tail_map(vee_m2, 1))


def test_perfect_construction_arity_errors(chain2_m2):
    with pytest.raises(ArityError):
        perfect_code_from_function(chain2_m2, 3, {})
    with pytest.raises(ArityError):
        perfect_code_from_function(chain2_m2, 1, {(0,): (0,)})
    with pytest.raises(ArityError):
        perfect_code_from_function(chain2_m2, 1, {(0,): (0, 0), (1,): (0, 0)})


def test_reconstruct_tail_map_roundtrip():
    ctx = space_context(Poset.chain(2), (2, 1), 3)
    rng = random.Random(5)
    for t in range(ctx.s + 1):
        table = random_tail_map(ctx, t, rng)
        code = perfect_code_from_function(ctx, t, table)
        assert reconstruct_tail_map(code, t) == table


def test_reconstruct_tail_map_rejects_non_graph(chain2_m2):
    code = Code.from_words(chain2_m2, [(0, 0), (1, 0)])
    with pytest.raises(ValidationError):
        reconstruct_tail_map(code, 1)


def test_perfect_chain_codes_are_exactly_graph_codes(chain2_m2):
    # complete enumeration: a code is (t*max_weight)-perfect iff it is a graph
    ctx = chain2_m2
    vectors = [v.coords for v in ctx.vectors()]
    for t in range(ctx.s + 1):
        radius = t * ctx.max_weight
        for mask in range(1, 1 << len(vectors)):
            words = [vectors[i] for i in range(len(vectors)) if mask >> i & 1]
            code = Code.from_words(ctx, words)
            perfect = is_r_perfect(code, radius)
            try:
                reconstruct_tail_map(code, t)
                is_graph = True
            except ValidationError:
                is_graph = False
            assert perfect == is_graph


def test_perfect_codes_from_linear_maps_reconstruct_linear():
    # a linear graph code reconstructs to an additive tail map
    ctx = space_context(Poset.chain(2), (1, 1), 3)
    code = Code.from_generator(ctx, [(2, 1)])
    assert is_r_perfect(code, ctx.max_weight)
    table = reconstruct_tail_map(code, 1)
    m = ctx.m
    for u in range(m):
        for v in range(m):
            assert table[((u + v) % m,)] == tuple(
                (a + b) % m for a, b in zip(table[(u,)], table[(v,)])
            )


def test_mds_iff_perfect_examples(chain2_m2):
    good = mds_iff_perfect_check(repetition_code(chain2_m2))
    assert good.applicable and good.is_mds and good.is_perfect and good.consistent

    bad = mds_iff_perfect_check(Code.from_words(chain2_m2, [(0, 0), (1, 0)]))
    assert bad.applicable and not bad.is_mds and not bad.is_perfect and bad.consistent


def test_mds_iff_perfect_requires_chain(vee_m2):
    code = Code.from_words(vee_m2, [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(NotChainError):
        mds_iff_perfect_check(code)


def test_finer_mds_transfer_from_antichain():
    # an MDS code under the antichain stays MDS under every refinement
    ctx = space_context(Poset.antichain(2), (1, 1), 2)
    code = Code.from_words(ctx, [(0, 0), (1, 1)])
    assert singleton_params(code).is_mds
    for q in [Poset.chain(2), Poset.from_covers(2, [(2, 1)]), Poset.antichain(2)]:
        assert finer_mds_check(code, q)


def test_finer_mds_vacuous_for_non_mds():
    ctx = space_context(Poset.antichain(2), (1, 1), 3)
    code = Code.from_words(ctx, [(0, 0), (1, 0), (2, 0)])
    assert not singleton_params(code).is_mds
    assert finer_mds_check(code, Poset.chain(2))


def test_finer_mds_errors(chain2_m2):
    code = repetition_code(chain2_m2)
    with pytest.raises(NotFinerError):
        finer_mds_check(code, Poset.antichain(2))
    ctx = space_context(Poset.antichain(2), (1, 2), 2)
    uneven = Code.from_words(ctx, [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(LabelError):
        finer_mds_check(uneven, Poset.chain(2))


def test_singleton_bound_never_violated_on_random_codes():
    rng = random.Random(23)
    spaces = [
        space_context(Poset.chain(2), (1, 1), 3),
        space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 1), 2),
        space_context(Poset.chain(2), (2, 1), 4, lee_weight(Alphabet(4))),
    ]
    for ctx in spaces:
        for _ in range(40):
            code = random_code(ctx, rng.randint(2, min(10, ctx.size)), rng)
            assert code.size <= singleton_params(code).bound


def test_linear_chain_distance_bound():
    # linear codes on a chain with unit blocks: d <= max_weight*(n-k) + min weight
    ctx = space_context(Poset.chain(3), (1, 1, 1), 3, lee_weight(Alphabet(3)))
    for code in enumerate_linear_codes(ctx):
        if code.size < 2:
            continue
        k = 0
        while ctx.m**k < code.size:
            k += 1
        assert ctx.m**k == code.size
        assert min_distance(code) <= ctx.max_weight * (ctx.n - k) + ctx.min_nonzero_weight


def test_analyze_repetition_report(chain2_m2):
    report = analyze(repetition_code(chain2_m2))
    assert report.size == 2
    assert report.min_distance == 2
    assert report.hamming_min_distance == 2
    assert (report.ideal_size, report.ideal_dimension) == (1, 1)
    assert report.singleton_bound == 2
    assert report.is_mds and report.is_perfect
    assert report.packing_radius == 1


def test_hamming_min_distance_uses_same_block_structure():
    ctx = space_context(Poset.chain(2), (1, 1), 5, lee_weight(Alphabet(5)))
    code = Code.from_words(ctx, [(0, 0), (0, 2)])
    # Lee distance sees weight 2 in the top block; Hamming sees ideal size 2
    assert min_distance(code) == 2 + 1 * 2
    assert hamming_min_distance(code) == 2


def test_analyze_walks_the_differences_once(monkeypatch):
    walks = []
    differences = codes._differences

    def counted(code):
        walks.append(code)
        return differences(code)

    monkeypatch.setattr(codes, "_differences", counted)
    # the N poset is not hierarchical, so its distances come from the differences
    ctx = space_context(Poset.from_covers(4, [(1, 3), (2, 3), (2, 4)]), (1, 1, 2, 1), 3)
    rng = random.Random(5)
    generator = [(1, 0, 2, 1, 1), (0, 1, 1, 0, 2)]
    for code in (random_code(ctx, 9, rng), Code.from_generator(ctx, generator)):
        walks.clear()
        report = analyze(code)
        assert walks == [code]
        assert (report.min_distance, report.hamming_min_distance) == pairwise_distances(code)


def test_analyze_checks_the_vector_budget_before_any_distance(monkeypatch, tmp_path, capsys):
    ctx = space_context(Poset.chain(11), (2,) * 11, 2)
    code = random_code(ctx, 3, random.Random(0))

    def refuse(code):
        raise AssertionError("a distance scan ran before the budget check")

    monkeypatch.setattr(codes, "_differences", refuse)
    with pytest.raises(BudgetError, match="^space has 4194304 vectors, budget 1048576$"):
        analyze(code)
    with pytest.raises(TooSmallError):
        analyze(Code.from_words(ctx, code.coords_list()[:1]))
    docs = {
        "poset": {"s": 11, "covers": [[i, i + 1] for i in range(1, 11)]},
        "labeling": {"k": [2] * 11},
        "alphabet": {"m": 2},
        "weight": {"builtin": "hamming"},
        "code": {"codewords": code.digits.tolist()},
    }
    args = ["code-report", "--budget", "1000"]
    for role, doc in docs.items():
        (tmp_path / f"{role}.json").write_text(json.dumps(doc), encoding="utf-8")
        args += [f"--{role}", str(tmp_path / f"{role}.json")]
    assert main(args) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["message"] == "space has 4194304 vectors, budget 1000"


def test_singleton_params_past_twenty_blocks():
    ctx = space_context(Poset.chain(25), (1,) * 25, 2)
    code = Code.from_words(ctx, [(0,) * 25, (0,) * 24 + (1,)])
    assert singleton_params(code) == SingletonParams(24, 24, 2, True)


def test_singleton_data_from_the_levels_matches_the_ideal_listing():
    """On every hierarchical poset with s <= 5, under random labelings, the
    ideal dimension mu from the levels equals the largest dimension sum over
    `Poset.ideal_masks(size=lambda)` at every lambda; `tables._levels`
    finds exactly the posets that `is_hierarchical` finds."""
    rng = random.Random(67)
    seen = 0
    for s in range(1, 6):
        for poset in all_posets(s):
            k = tuple(rng.randint(1, 3) for _ in range(s))
            ctx = space_context(poset, k, 2)
            assert (tables._levels(ctx) is not None) == is_hierarchical(poset), poset.down
            if not is_hierarchical(poset):
                continue
            code = Code.from_words(ctx, [(0,) * ctx.n, (1,) * ctx.n])
            for lam in range(s + 1):
                expected = max(sum(k[i] for i in range(s) if mask >> i & 1)
                               for mask in poset.ideal_masks(size=lam))
                # Hamming: lambda = d - 1
                params = codes._singleton_params(code, lam + 1)
                assert (params.ideal_size, params.ideal_dimension) == (lam, expected), (poset.down, k)
            seen += 1
    assert seen == 1 + 3 + 13 + 75 + 541


def test_singleton_params_on_a_wide_antichain():
    """antichain(24), where the ideal listing refuses past 2^20 ideals: mu
    comes from the one level."""
    ctx = space_context(Poset.antichain(24), (1,) * 24, 2)
    code = Code.from_words(ctx, [(0,) * 24, (1,) * 13 + (0,) * 11])
    with pytest.raises(BudgetError):
        ctx.poset.ideal_masks()
    assert singleton_params(code) == SingletonParams(12, 12, 4096, False)


def test_tail_maps_keep_their_entries_and_draws():
    ctx = space_context(Poset.chain(3), (1, 2, 1), 3)
    heads = {
        1: {
            "identity": [(0,)] * 9 + [(1,)] * 9 + [(2,)] * 9,
            "zero": [(0,)] * 27,
            "random": [(h,) for h in (2, 1, 2, 1, 2, 2, 2, 2, 0, 1, 0, 2, 0, 0,
                                      0, 1, 1, 0, 1, 2, 0, 2, 0, 0, 2, 0, 1)],
        },
        2: {
            "identity": [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
            "zero": [(0, 0, 0)] * 3,
            "random": [(2, 1, 2), (1, 2, 2), (2, 2, 0)],
        },
    }
    for t, expected in heads.items():
        tails = list(product(range(3), repeat=4 - ctx.offsets[t]))
        built = {
            "identity": identity_tail_map(ctx, t),
            "zero": zero_tail_map(ctx, t),
            "random": random_tail_map(ctx, t, random.Random(5)),
        }
        for name, table in built.items():
            assert list(table.items()) == list(zip(tails, expected[name])), (t, name)


@pytest.mark.parametrize("rows", [
    [[3, 1, 2]] * 5,
    [[7, -2]],
    [[np.iinfo(np.int64).max, 0], [np.iinfo(np.int64).min, 5], [0, np.iinfo(np.int64).min],
     [np.iinfo(np.int64).max, 0], [-1, np.iinfo(np.int64).max]],
    np.random.default_rng(3).integers(-4, 4, size=(200, 3)).tolist(),
])
def test_distinct_rows_sort_and_deduplicate(rows):
    keys = np.array(rows, dtype=np.int64)
    first, inverse = distinct_rows(keys)
    only_first, none = distinct_rows(keys, inverse=False)
    assert only_first.tolist() == first.tolist() and none is None
    expected = sorted(set(map(tuple, rows)))
    assert list(map(tuple, keys[first].tolist())) == expected
    assert [expected[i] for i in inverse] == list(map(tuple, rows))
