"""Acceptance suite: exact, exhaustive checks at desk scale.

One test per criterion; each prints a single pass/fail line.  Tolerances
are zero throughout: every comparison is exact integer or boolean
equality over fully enumerated domains or fixed seeded samples.
"""

import json
import random
import re
import time
from itertools import chain, combinations, islice, product
from math import factorial

import numpy as np
import pytest

from posetblock import (
    Alphabet,
    BlockMatrix,
    Code,
    Labeling,
    Poset,
    SpaceContext,
    all_posets,
    analyze,
    check_weight_axioms,
    check_weight_axioms_bruteforce,
    custom_weight,
    enumerate_isometry_group,
    enumerate_linear_codes,
    hamming_min_distance,
    hamming_weight,
    identity_tail_map,
    in_triangular_group,
    induced_automorphism,
    is_r_perfect,
    lee_weight,
    mds_iff_perfect_check,
    min_distance,
    packing_radius,
    perfect_code_from_function,
    random_code,
    random_tail_map,
    singleton_params,
    space_context,
    verify_semidirect,
)
from posetblock import WeightFunction, codes, tables
from posetblock.cli import main
from posetblock.tables import block_max_table, digit_table, weight_order, weight_table

from oracles import (
    code_from_generator,
    code_from_words,
    difference_rank_table,
    graph_code,
    is_hierarchical,
    is_invertible_mod,
    pairwise_distances,
    scan_profiles,
)

MAX_EXHAUSTIVE_SIZE = 4096
ALPHABETS = (2, 3, 4, 5)


def report(number: int, name: str, violations: list) -> None:
    status = "FAIL" if violations else "PASS"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not violations, f"criterion {number} ({name}): {violations[:5]}"


def fixture_bundles():
    """All posets with s <= 4, labelings k_i <= 2 with n <= 5, both weights."""
    for s in (1, 2, 3, 4):
        for poset in all_posets(s):
            for k in product((1, 2), repeat=s):
                if sum(k) > 5:
                    continue
                for m in ALPHABETS:
                    alphabet = Alphabet(m)
                    for weight in (hamming_weight(alphabet), lee_weight(alphabet)):
                        yield SpaceContext(poset, Labeling(k), alphabet, weight)


def semidirect_fixtures():
    return [
        ("chain 1<2, k=(1,1), m=2, Hamming", space_context(Poset.chain(2), (1, 1), 2), 2),
        ("antichain [2], k=(1,1), m=3, Hamming", space_context(Poset.antichain(2), (1, 1), 3), 8),
        ("s=1, k=(2), m=2, Hamming", space_context(Poset.chain(1), (2,), 2), 6),
        (
            "s=1, k=(1), m=5, Lee",
            space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5))),
            2,
        ),
        (
            "vee covers (1,3),(2,3), k=(1,1,1), m=2, Hamming",
            space_context(Poset.from_covers(3, [(1, 3), (2, 3)]), (1, 1, 1), 2),
            None,
        ),
    ]


def chain_fixtures():
    return [
        space_context(Poset.chain(2), (1, 1), 2),
        space_context(Poset.chain(2), (1, 1), 3),
        space_context(Poset.chain(3), (1, 2, 1), 2),
        space_context(Poset.chain(2), (2, 1), 4, lee_weight(Alphabet(4))),
        space_context(Poset.chain(2), (1, 1), 5, lee_weight(Alphabet(5))),
    ]


def test_criterion_1_weight_axiom_suite():
    started = time.monotonic()
    violations = []
    checked = 0
    for ctx in fixture_bundles():
        if ctx.size > MAX_EXHAUSTIVE_SIZE:
            continue
        result = check_weight_axioms(ctx)
        if not result.ok:
            violations.append((ctx.poset.covers(), ctx.labeling.k, ctx.m, result))
        checked += 1
        # periodic cross-validation against the direct pairwise enumeration
        if checked % 181 == 0 and ctx.size <= 512:
            brute = check_weight_axioms_bruteforce(ctx)
            if brute.ok != result.ok:
                violations.append(("bruteforce disagrees", ctx.poset.covers(), ctx.m))
    assert checked == 9936
    elapsed = time.monotonic() - started
    if elapsed >= 60:
        violations.append(("runtime target missed", elapsed))
    report(1, "weight-axiom suite", violations)


def test_criterion_2_reduction_suite():
    violations = []
    for ctx in fixture_bundles():
        weights = weight_table(ctx)
        digits = digit_table(ctx)
        # 0-based block-support bitmasks, fine for these few blocks
        supports = sum(
            digits[:, ctx.block_slice(i)].any(axis=1).astype(np.int64) << (i - 1)
            for i in ctx.poset.elements
        )
        is_hamming = ctx.weight_fn.table == hamming_weight(ctx.alphabet).table
        is_lee = ctx.weight_fn.table == lee_weight(ctx.alphabet).table

        if is_hamming:
            ideal_size = np.array(
                [ctx.poset.ideal_mask(mask).bit_count() for mask in range(1 << ctx.s)]
            )
            if not (weights == ideal_size[supports]).all():
                violations.append(("hamming ideal size", ctx.poset.covers(), ctx.labeling.k, ctx.m))
            if ctx.poset.is_antichain and set(ctx.labeling.k) == {1}:
                classical = (digits != 0).sum(axis=1)
                if not (weights == classical).all():
                    violations.append(("classical hamming", ctx.poset.covers(), ctx.m))

        if is_lee:
            if ctx.max_weight != ctx.m // 2:
                violations.append(("lee max weight", ctx.m))
            expansion = _maximal_plus_floor_expansion(ctx, digits, supports)
            if not (weights == expansion).all():
                violations.append(("lee expansion", ctx.poset.covers(), ctx.labeling.k, ctx.m))
    report(2, "reduction suite", violations)


def _maximal_plus_floor_expansion(ctx, digits, supports):
    """Recompute weights as maximal block maxima plus floor(m/2) per lower ideal member."""
    block_max = block_max_table(ctx, digits)
    expansion = np.zeros(len(digits), dtype=np.int64)
    for mask in range(1 << ctx.s):
        members = np.nonzero(supports == mask)[0]
        if len(members) == 0:
            continue
        elems = {i + 1 for i in range(ctx.s) if mask >> i & 1}
        ideal = ctx.poset.ideal_of(elems)
        maximals = ctx.poset.maximal_elements(ideal)
        total = np.zeros(len(members), dtype=np.int64)
        for i in maximals:
            total += block_max[members, i - 1]
        total += (ctx.m // 2) * (len(ideal) - len(maximals))
        expansion[members] = total
    return expansion


def test_criterion_3_semidirect_product():
    started = time.monotonic()
    violations = []
    for name, ctx, expected_gl in semidirect_fixtures():
        rep = verify_semidirect(ctx)
        expected = rep.u_order * 2 if expected_gl is None else expected_gl
        if rep.gl_order != expected:
            violations.append((name, "gl_order", rep.gl_order, expected))
        if not rep.product_matches or not rep.all_decomposed:
            violations.append((name, "factorization", rep))
        if rep.gl_order != rep.u_order * rep.aut_order:
            violations.append((name, "order product", rep))

        if ctx.m ** (ctx.n * ctx.n) <= 1 << 20:
            pruned = enumerate_isometry_group(ctx)
            exhaustive = enumerate_isometry_group(ctx, exhaustive=True)
            if [t.rows for t in pruned] != [t.rows for t in exhaustive]:
                violations.append((name, "pruned vs exhaustive"))

        group = enumerate_isometry_group(ctx)
        for T in group:
            eta = induced_automorphism(T)
            for i in ctx.poset.elements:
                target_ideal = ctx.poset.principal_ideal(eta(i))[0]
                for v in _nonzero_block_vectors(ctx, i):
                    if ctx.poset.ideal_of(T.apply(v).support()) != target_ideal:
                        violations.append((name, "principal ideal", T.rows, i))
                        break
                if ctx.labeling.k[i - 1] != ctx.labeling.k[eta(i) - 1]:
                    violations.append((name, "dimension", T.rows, i))
                if len(ctx.poset.principal_ideal(i)[0]) != len(target_ideal):
                    violations.append((name, "ideal cardinality", T.rows, i))
            for i in ctx.poset.elements:
                for j in ctx.poset.elements:
                    if ctx.poset.leq(i, j) and not ctx.poset.leq(eta(i), eta(j)):
                        violations.append((name, "order preservation", T.rows, (i, j)))
    elapsed = time.monotonic() - started
    if elapsed >= 120:
        violations.append(("runtime target missed", elapsed))
    report(3, "semidirect product", violations)


def _nonzero_block_vectors(ctx, i):
    k = ctx.labeling.k[i - 1]
    offset = ctx.offsets[i - 1]
    for blk in product(range(ctx.m), repeat=k):
        if any(blk):
            coords = [0] * ctx.n
            coords[offset : offset + k] = blk
            yield ctx.vector(coords)


def test_criterion_4_example_specializations():
    violations = []
    # Hamming: triangular membership must equal shape plus invertible diagonal
    hamming_spaces = [
        ctx for _, ctx, _ in semidirect_fixtures()
        if ctx.weight_fn.table == hamming_weight(ctx.alphabet).table
    ]
    for ctx in hamming_spaces:
        for entries in product(range(ctx.m), repeat=ctx.n * ctx.n):
            T = BlockMatrix(
                ctx, tuple(entries[r * ctx.n : (r + 1) * ctx.n] for r in range(ctx.n))
            )
            shape_ok = all(
                not any(any(row) for row in T.block(i, j))
                for i in ctx.poset.elements
                for j in ctx.poset.elements
                if not ctx.poset.leq(i, j)
            )
            diag_ok = all(
                is_invertible_mod(T.block(r, r), ctx.m) for r in ctx.poset.elements
            )
            if in_triangular_group(T) != (shape_ok and diag_ok):
                violations.append(("triangular vs invertible", ctx.m, T.rows))

    # antichains: group order is the per-block product times label symmetries
    antichain_spaces = [
        space_context(Poset.antichain(2), (1, 1), 3),
        space_context(Poset.antichain(2), (1, 2), 2),
        space_context(Poset.antichain(3), (1, 1, 1), 2),
        space_context(Poset.antichain(2), (1, 1), 4, lee_weight(Alphabet(4))),
    ]
    for ctx in antichain_spaces:
        per_block = 1
        for k in ctx.labeling.k:
            block = space_context(Poset.chain(1), (k,), ctx.m, ctx.weight_fn)
            per_block *= len(enumerate_isometry_group(block))
        counts: dict[int, int] = {}
        for k in ctx.labeling.k:
            counts[k] = counts.get(k, 0) + 1
        symmetries = 1
        for c in counts.values():
            symmetries *= factorial(c)
        if len(enumerate_isometry_group(ctx)) != per_block * symmetries:
            violations.append(("antichain product", ctx.labeling.k, ctx.m))
    report(4, "example specializations", violations)


def test_criterion_5_singleton_mds_perfect_suite():
    violations = []
    rng = random.Random(2024)

    # Singleton bound on 1000 seeded random codes per fixture space
    for name, ctx, _ in semidirect_fixtures():
        for _ in range(1000):
            code = random_code(ctx, rng.randint(2, min(12, ctx.size)), rng)
            if code.size > singleton_params(code).bound:
                violations.append(("singleton violated", name, code.coords_list()))

    # chain graph codes are (t * max_weight)-perfect for identity and random maps
    for t, _, code in chain_graph_codes(rng):
        ctx = code.context
        if not is_r_perfect(code, t * ctx.max_weight):
            violations.append(("graph code not perfect", ctx.labeling.k, ctx.m, t))

    # full subspace enumeration of the two smallest chain spaces
    applicable_seen = 0
    for m in (2, 3):
        ctx = space_context(Poset.chain(2), (1, 1), m)
        for code in enumerate_linear_codes(ctx):
            if code.size < 2:
                continue
            check = mds_iff_perfect_check(code)
            if check.applicable:
                applicable_seen += 1
                if not check.consistent:
                    violations.append(("mds/perfect mismatch", m, code.coords_list()))
    if applicable_seen == 0:
        violations.append(("no applicable linear code found",))
    report(5, "singleton/MDS/perfect suite", violations)


def test_min_distances_match_pairwise_on_fixture_bundles():
    rng = random.Random(71)
    # every 7th bundle: the stride is prime to the 8 (alphabet, weight) pairs per labeling
    for ctx in islice(fixture_bundles(), 0, None, 7):
        hamming = ctx.hamming()
        generator = ctx.vector_at(rng.randrange(1, ctx.size)).coords
        for code in (
            random_code(ctx, rng.randint(2, min(5, ctx.size)), rng),
            Code.from_generator(ctx, [generator]),
        ):
            words = code.codewords
            d_w = min(u.distance(v) for u, v in combinations(words, 2))
            as_hamming = [hamming.vector(v.coords) for v in words]
            d_h = min(u.distance(v) for u, v in combinations(as_hamming, 2))
            assert (min_distance(code), hamming_min_distance(code)) == (d_w, d_h), (
                ctx.poset.covers(), ctx.labeling.k, ctx.weight_fn.table, code.coords_list()
            )


def chain_graph_codes(rng):
    """The graph codes of criterion 5, with t and the tail map: identity and
    random tail maps, every t."""
    for ctx in chain_fixtures():
        for t in range(ctx.s + 1):
            tables = [identity_tail_map(ctx, t)]
            tables += [random_tail_map(ctx, t, rng) for _ in range(100)]
            seen = set()
            for table in tables:
                key = tuple(sorted(table.items()))
                if key not in seen:
                    seen.add(key)
                    yield t, table, perfect_code_from_function(ctx, t, table)


def test_packing_and_perfection_match_distance_scan():
    """packing_radius, analyze(...).is_perfect and is_r_perfect at every radius
    up to the diameter against the d1/d2 scan oracle, on the chain graph codes
    and on one code of every fixture bundle: a random code or, on every other
    bundle, the span of one random vector."""
    rng = random.Random(43)

    def bundle_codes():
        for index, ctx in enumerate(fixture_bundles()):
            if index % 2:
                yield Code.from_generator(ctx, [ctx.vector_at(rng.randrange(1, ctx.size)).coords])
            else:
                yield random_code(ctx, rng.randint(2, min(5, ctx.size)), rng)

    graph_codes = (code for _, _, code in chain_graph_codes(rng))
    for code in chain(bundle_codes(), graph_codes):
        ctx = code.context
        d1, d2 = scan_profiles(code)
        radii = range(ctx.diameter + 1)
        perfect = [bool((d1 <= r).all() and (d2 > r).all()) for r in radii]
        where = (ctx.poset.covers(), ctx.labeling.k, ctx.weight_fn.table, code.coords_list())
        assert [is_r_perfect(code, r) for r in radii] == perfect, where
        if code.size > 1:
            rho = int(d2.min()) - 1
            assert packing_radius(code) == rho, where
            assert analyze(code).is_perfect == perfect[rho], where


def same_code(build, oracle):
    """`build()` gives the code `oracle()` describes, or both raise the same
    exception type with the same message."""
    try:
        coords, linear, generator = oracle()
    except Exception as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            build()
        return
    code = build()
    assert (code.coords_list(), code.size, code.linear, code.generator) == (
        coords, len(coords), linear, generator
    )


CODE_INPUTS = (
    "generator", "zero code", "bad generator", "words", "linear words", "bad words",
    "empty", "span", "span and one word", "span without zero",
)


def code_input(ctx, rng, kind):
    """A constructor call and the same call to its oracle, as thunks, for one
    kind of input; bad rows (a wrong length, an out-of-range coordinate or,
    for words, a foreign-context vector) go in once or twice at random
    places, so the first one must raise."""
    n, m = ctx.n, ctx.m

    def coords():
        return [rng.randrange(m) for _ in range(n)]

    bad = [
        lambda: [0] * (n + rng.choice((-1, 1))),
        lambda: [rng.choice((-1, m))] + [0] * (n - 1),
        lambda: space_context(ctx.poset, ctx.labeling.k, 7).vector(coords()),
    ]

    def with_bad(rows, kinds):
        rows = list(rows)
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(kinds)())
        return rows

    gens = [coords() for _ in range(rng.randrange(3))]
    if kind in ("generator", "zero code", "bad generator"):
        if kind == "zero code":
            gens = []
        elif kind == "bad generator":
            gens = with_bad(gens, bad[:2])
        return lambda: Code.from_generator(ctx, gens), lambda: code_from_generator(ctx, gens)
    if kind.startswith("span"):
        span = code_from_generator(ctx, gens)[0]
        words = span + rng.sample(span, rng.randrange(len(span) + 1))
        rng.shuffle(words)
        if kind == "span and one word":
            words.append(tuple(coords()))  # usually not closed
        elif kind == "span without zero":
            words = [w for w in words if any(w)] or [(1,) * n]
        linear = True
    else:
        words = [rng.choice([c, tuple(c), ctx.vector(c)]) for c in (coords() for _ in range(6))]
        words += rng.sample(words, rng.randrange(len(words) + 1))  # duplicates
        if kind == "bad words":
            words = with_bad(words, bad)
        elif kind == "empty":
            words = []
        linear = kind == "linear words" or (kind == "bad words" and rng.random() < 0.5)
    return (
        lambda: Code.from_words(ctx, words, linear=linear),
        lambda: code_from_words(ctx, words, linear=linear),
    )


def test_code_constructors_match_vector_oracles():
    """`Code.from_words`, `from_generator` and `perfect_code_from_function`
    against the same constructions one `BlockVector` at a time
    (`tests/oracles.py`): codewords, size, linear flag and generator, or the
    exception for a wrong length, an out-of-range coordinate, a foreign-context
    vector, an empty code and a linear certificate that fails closure.  Three
    kinds of input on every fixture bundle, every kind on a 70-block binary
    space, where no vector rank fits in int64, and the chain graph codes with
    their tail maps, also with a missing tail, a short head or an out-of-range
    head."""
    rng = random.Random(57)
    wide = space_context(Poset.chain(70), (1,) * 70, 2)
    cases = chain(
        ((ctx, kind) for ctx in fixture_bundles() for kind in rng.sample(CODE_INPUTS, 3)),
        ((wide, kind) for kind in CODE_INPUTS for _ in range(5)),
    )
    for ctx, kind in cases:
        same_code(*code_input(ctx, rng, kind))
    for t, table, code in chain_graph_codes(rng):
        ctx = code.context
        same_code(lambda: code, lambda: graph_code(ctx, t, table))
        faulty = dict(table)
        for _ in range(rng.randint(1, 2)):
            tail = rng.choice(sorted(table))
            head = faulty.pop(tail, table[tail])
            fault = rng.choice(["missing", "short", "range"])
            if fault == "short":
                faulty[tail] = head[:-1] if head else (0,)
            elif fault == "range":
                faulty[tail] = head[:-1] + (ctx.m,)
        same_code(
            lambda: perfect_code_from_function(ctx, t, faulty), lambda: graph_code(ctx, t, faulty)
        )


_FIXTURE_CODE_CACHE: dict = {}


def chain_fixture_codes(ctx, seed):
    """All linear codes of the tiny fixtures plus 50 seeded random codes."""
    key = (ctx, seed)
    if key not in _FIXTURE_CODE_CACHE:
        rng = random.Random(seed)
        codes = []
        if ctx.size <= 32:
            codes += [c for c in enumerate_linear_codes(ctx) if c.size >= 2]
        codes += [random_code(ctx, rng.randint(2, min(8, ctx.size)), rng) for _ in range(50)]
        _FIXTURE_CODE_CACHE[key] = codes
    return _FIXTURE_CODE_CACHE[key]


def test_criterion_6_ball_containment_and_radius_bound():
    violations = []
    for ctx in chain_fixtures():
        weights = weight_table(ctx)
        hamming_weights = weight_table(ctx.hamming())
        digits = digit_table(ctx)
        max_w = ctx.max_weight

        # ball containment with equality exactly at full steps of max_weight
        for center_rank in range(ctx.size):
            center = ctx.vector_at(center_rank).coords
            diff = difference_rank_table(ctx, center, digits)
            dist_w = weights[diff]
            dist_h = hamming_weights[diff]
            for i in range(ctx.s):
                for l in range(1, max_w + 1):
                    r = l + i * max_w
                    inner = dist_w <= r
                    outer = dist_h <= i + 1
                    if (inner & ~outer).any():
                        violations.append(("ball not contained", ctx.labeling.k, ctx.m, r))
                    if (inner == outer).all() != (l == max_w):
                        violations.append(("ball equality", ctx.labeling.k, ctx.m, r))

        # radius lower bound, and equality whenever the distance condition holds
        for code in chain_fixture_codes(ctx, seed=99):
            rho = packing_radius(code)
            d_h = hamming_min_distance(code)
            d_w = min_distance(code)
            floor = max_w * (d_h - 1)
            if rho < floor:
                violations.append(("radius below bound", ctx.m, code.coords_list()))
            if d_w == ctx.min_nonzero_weight + (d_h - 1) * max_w and rho != floor:
                violations.append(("radius equality (if direction)", ctx.m, code.coords_list()))
    report(6, "ball containment and radius bound", violations)


def _split_weights(table):
    """mu(x) = min over a in Z_m of max(w(a), w(x - a)), for every x in Z_m."""
    m = len(table)
    return [min(max(table[a], table[(x - a) % m]) for a in range(m)) for x in range(m)]


def _chain_radius_terms(ctx, code):
    """(d_H, gamma) of a code on a chain 1 < ... < s.

    Computed from the scalar weight table and the codewords only: d_H is
    the least top nonzero block over codeword differences, and gamma the
    least, over differences whose top block is d_H, of the largest split
    weight mu on that block's coordinates.
    """
    mu = _split_weights(ctx.weight_fn.table)
    best = None
    for a, b in combinations(code.coords_list(), 2):
        diff = [(x - y) % ctx.m for x, y in zip(a, b)]
        top = max(i for i in range(1, ctx.s + 1) if any(diff[ctx.block_slice(i)]))
        terms = (top, max(mu[x] for x in diff[ctx.block_slice(top)]))
        best = terms if best is None else min(best, terms)
    return best


def test_criterion_6_radius_equality_condition_as_stated():
    """The stated radius-equality condition, corrected and pinned.

    Claim as stated: on a chain, rho = M * (d_H - 1) iff
    d_w = min_weight + (d_H - 1) * M, where M is the maximum scalar weight.
    The only-if direction is false: over Z_5 with the Lee weight, the code
    {0, 2} on a single block has packing radius 0 = M * (d_H - 1) although
    d_w = 2 differs from min_weight + (d_H - 1) * M = 1, since radius-1
    balls meet at 1 = 0 + 1 = 2 - 1.

    What holds: balls of radius r around c and c' meet iff c' - c = x + y
    with w(x), w(y) <= r.  On a chain one of x, y reaches the top block of
    the difference, each coordinate of that block splits on its own, and
    the lower blocks cost nothing extra; a difference reaching above block
    d_H costs at least M * d_H + 1.  With the split weight
    mu(x) = min_a max(w(a), w(x - a)) and gamma the least, over differences
    whose top block is d_H, of the largest mu on that block,

        rho = M * (d_H - 1) + gamma - 1.

    So rho = M * (d_H - 1) iff gamma = 1 (for min_weight = 1).  The stated
    condition is sufficient because mu <= w, and also necessary when no
    element of weight >= 2 is a sum of two elements of weight <= 1
    (Hamming, Lee Z_2, Lee Z_3); Lee Z_4 and Z_5 have such splits.  Lee Z_6
    and Z_7 add codes with gamma >= 2, where rho exceeds M * (d_H - 1).
    """
    violations = []
    above_floor = 0
    lee_wide = [
        space_context(Poset.chain(2), (1, 1), m, lee_weight(Alphabet(m))) for m in (6, 7)
    ]
    for ctx in chain_fixtures() + lee_wide:
        max_w = ctx.max_weight
        # some element of weight >= 2 is a sum of two of weight <= 1
        table = ctx.weight_fn.table
        splits = any(mu <= 1 < w for mu, w in zip(_split_weights(table), table))
        for code in chain_fixture_codes(ctx, seed=99):
            rho = packing_radius(code)
            d_h, gamma = _chain_radius_terms(ctx, code)
            floor = max_w * (d_h - 1)
            if d_h != hamming_min_distance(code):
                violations.append(("poset-block distance", ctx.m, code.coords_list()))
            if rho != floor + gamma - 1:
                violations.append(("radius formula", ctx.m, code.coords_list()))
            above_floor += rho > floor
            stated = min_distance(code) == ctx.min_nonzero_weight + (d_h - 1) * max_w
            if (rho == floor) != stated and (not splits or stated):
                violations.append(("stated condition", ctx.m, splits, code.coords_list()))
    if above_floor == 0:
        violations.append(("no code with rho > M * (d_H - 1)",))

    lee5 = space_context(Poset.chain(1), (1,), 5, lee_weight(Alphabet(5)))
    witness = Code.from_words(lee5, [(0,), (2,)])
    observed = (packing_radius(witness), hamming_min_distance(witness), min_distance(witness))
    if observed != (0, 1, 2) or _chain_radius_terms(lee5, witness) != (1, 1):
        violations.append(("Lee Z_5 witness {0, 2}", observed))
    report(6, "radius equality condition (corrected)", violations)


def chain_route_spaces():
    """The chain fixtures plus Lee Z_6 and Z_7 (gamma >= 2), relabeled chains
    with unequal blocks, and custom weight tables, one of which splits w(1) = 2
    as 3 + 3 with w(3) = 1."""
    relabeled = Poset.from_covers(3, [(3, 1), (1, 2)])
    lee_wide = [space_context(Poset.chain(2), (1, 1), m, lee_weight(Alphabet(m))) for m in (6, 7)]
    return chain_fixtures() + lee_wide + [
        space_context(relabeled, (2, 1, 1), 3),
        space_context(relabeled, (1, 2, 1), 5, custom_weight(Alphabet(5), [0, 2, 1, 1, 2])),
        space_context(Poset.from_covers(3, [(2, 3), (3, 1)]), (1, 1, 2), 4,
                      custom_weight(Alphabet(4), [0, 3, 2, 3])),
        space_context(Poset.chain(3), (2, 1, 1), 6, lee_weight(Alphabet(6))),
    ]


def hierarchical_spaces():
    """Sixteen hierarchical spaces: antichains, "two below one" (covers
    (1,3), (2,3)), "one below two" (covers (1,2), (1,3), the benchmark's V),
    2+2 and 1+2+1 levels and chains, over Hamming, Lee and custom weights."""
    two_below_one = Poset.from_covers(3, [(1, 3), (2, 3)])
    one_below_two = Poset.from_covers(3, [(1, 2), (1, 3)])
    two_two = Poset.from_covers(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    diamond = Poset.from_covers(4, [(1, 2), (1, 3), (2, 4), (3, 4)])

    def lee(m):
        return lee_weight(Alphabet(m))

    return [
        space_context(Poset.antichain(4), (2, 1, 1, 1), 2),
        space_context(Poset.antichain(6), (1,) * 6, 3),
        space_context(Poset.antichain(7), (2,) * 7, 2),
        space_context(Poset.antichain(3), (1, 1, 1), 7, lee(7)),
        space_context(Poset.antichain(3), (1, 2, 1), 5, custom_weight(Alphabet(5), [0, 2, 3, 3, 2])),
        space_context(two_below_one, (2, 1, 1), 3),
        space_context(two_below_one, (1, 1, 2), 5, lee(5)),
        space_context(two_below_one, (2, 2, 1), 5, lee(5)),
        space_context(one_below_two, (2, 1, 1), 4, lee(4)),
        space_context(one_below_two, (2, 2, 1), 5, lee(5)),
        space_context(two_two, (1, 2, 1, 1), 3, lee(3)),
        space_context(two_two, (1, 2, 1, 1), 5, custom_weight(Alphabet(5), [0, 2, 1, 1, 2])),
        space_context(diamond, (1, 1, 2, 1), 4, lee(4)),
        space_context(Poset.chain(3), (1, 2, 1), 5, lee(5)),
        space_context(Poset.chain(4), (2, 2, 1, 1), 3),
        space_context(Poset.chain(5), (2, 2, 1, 1, 1), 4, lee(4)),
    ]


def test_chain_route_matches_the_walk():
    """The chain route's packing radius equals the walk's, and perfection
    through the volume at that radius equals perfection through the weight
    order (and the d1/d2 scan on small spaces), on linear and nonlinear codes
    over every chain route space, on every chain graph code with two or more
    words, and on the t = 1 graph code of chain(10), k = 2, m = 2 (K = 2^18)."""
    rng = random.Random(19)

    def chain_codes():
        for ctx in chain_route_spaces():
            for _ in range(20):
                yield random_code(ctx, rng.randint(2, min(12, ctx.size)), rng)
                rows = rng.randint(1, 2)
                yield Code.from_generator(
                    ctx, [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(rows)]
                )
        yield from (code for _, _, code in chain_graph_codes(rng))
        wide = space_context(Poset.chain(10), (2,) * 10, 2)
        yield perfect_code_from_function(wide, 1, identity_tail_map(wide, 1))

    for code in chain_codes():
        ctx = code.context
        if code.size < 2:
            continue
        where = (ctx.poset.down, ctx.labeling.k, ctx.weight_fn.table, code.coords_list()[:8])
        found = codes._level_packing(code, 1 << 20, False)
        rho = codes._walk(code, 1 << 20)
        assert found is not None and found[0] == rho, where
        perfect = code.size * codes._volume(ctx, rho, 1 << 20) == ctx.size
        volume = np.searchsorted(weight_order(ctx)[1], rho, side="right")
        assert perfect == (code.size * volume == ctx.size), where
        if ctx.size <= 256:
            d1, d2 = scan_profiles(code)
            assert perfect == bool((d1 <= rho).all() and (d2 > rho).all()), where


def test_level_route_matches_the_walk_and_the_oracles(monkeypatch):
    """On hierarchical spaces with w positive off 0 the level route gives the
    walk's packing radius and the pairwise distances, with or without the
    distances, and perfection at every radius matches the d1/d2 scan on
    small spaces: random and linear codes over the hierarchical spaces, the
    chain route spaces and every 15th hierarchical acceptance fixture (the
    stride is prime to the 8 alphabet and weight pairs), with the walk and
    the difference scan in steps of 5 coordinates."""
    monkeypatch.setattr(codes, "_CHUNK", 5)
    rng = random.Random(59)
    bundles = [ctx for ctx in islice(fixture_bundles(), 0, None, 15) if is_hierarchical(ctx.poset)]
    checked = 0
    for ctx in hierarchical_spaces() + chain_route_spaces() + bundles:
        assert tables._levels(ctx) is not None
        for _ in range(6 if ctx.size > 64 else 1):
            count = rng.randint(1, 3 if ctx.m == 2 else 2 if ctx.m <= 5 else 1)
            rows = [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(count)]
            for code in (random_code(ctx, rng.randint(2, min(12, ctx.size)), rng),
                         Code.from_generator(ctx, rows)):
                if code.size < 2:
                    continue
                where = (ctx.poset.down, ctx.labeling.k, ctx.weight_fn.table, code.coords_list()[:8])
                rho = codes._walk(code, 1 << 20)
                assert codes._level_packing(code, 1 << 20, True) == (rho, *pairwise_distances(code)), where
                assert codes._level_packing(code, 1 << 20, False)[0] == rho, where
                if ctx.size <= 1024:
                    d1, d2 = scan_profiles(code)
                    assert rho == int(d2.min()) - 1, where
                    perfect = [bool((d1 <= r).all() and (d2 > r).all()) for r in range(ctx.diameter + 1)]
                    assert [is_r_perfect(code, r) for r in range(ctx.diameter + 1)] == perfect, where
                checked += 1
    assert checked > 500


def test_level_route_reads_no_whole_space_table_and_never_walks(monkeypatch):
    """`analyze`, `packing_radius` and `is_r_perfect` at every radius on the
    hierarchical spaces neither walk nor scan the pair differences, and miss
    no whole-space table cache."""

    def refuse(*args):
        raise AssertionError("the walk or the difference scan ran on the level route")

    monkeypatch.setattr(codes, "_walk", refuse)
    monkeypatch.setattr(codes, "_differences", refuse)
    caches = (tables._digit_table, tables._weight_table, tables._weight_order)
    for table in caches:
        table.cache_clear()
    rng = random.Random(61)
    for ctx in hierarchical_spaces():
        generator = [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(2)]
        for code in (random_code(ctx, 12, rng), Code.from_generator(ctx, generator)):
            analyze(code)
            packing_radius(code)
            for r in range(ctx.diameter + 1):
                is_r_perfect(code, r)
    assert [table.cache_info().misses for table in caches] == [0, 0, 0]


def test_chain_route_distances_match_pairwise(monkeypatch):
    """`analyze` reads d_w and d_H from the chain sort, with no scan of the
    pair differences; they equal the pairwise minima on linear and nonlinear
    codes over every chain route space and on every chain graph code with
    two or more words."""

    def refuse(code):
        raise AssertionError("the pair differences were scanned on the chain route")

    monkeypatch.setattr(codes, "_differences", refuse)
    rng = random.Random(37)

    def chain_codes():
        for ctx in chain_route_spaces():
            for _ in range(10):
                yield random_code(ctx, rng.randint(2, min(12, ctx.size)), rng)
                rows = rng.randint(1, 2)
                yield Code.from_generator(
                    ctx, [ctx.vector_at(rng.randrange(1, ctx.size)).coords for _ in range(rows)]
                )
        yield from (code for _, _, code in chain_graph_codes(rng))

    checked = 0
    for code in chain_codes():
        if code.size < 2:
            continue
        report = analyze(code)
        assert (report.min_distance, report.hamming_min_distance) == pairwise_distances(code), (
            code.context.poset.down, code.context.labeling.k, code.coords_list()[:8]
        )
        checked += 1
    assert checked > 100


def test_split_weights_match_criterion_6():
    weights = [(0, 2, 1, 1, 2), (0, 3, 2, 3), (0, 1, 2, 3, 2, 1)]
    for m in range(2, 9):
        weights += [hamming_weight(Alphabet(m)).table, lee_weight(Alphabet(m)).table]
    for table in weights:
        ctx = SpaceContext(Poset.chain(1), Labeling((1,)), Alphabet(len(table)), WeightFunction(table))
        assert tables._split_tables(ctx)[0].tolist() == _split_weights(table)


def test_volume_matches_the_weight_order(monkeypatch):
    """`codes._volume` equals the `searchsorted` volume of the weight order at
    every radius up to one past the diameter: from the level counts on every
    hierarchical space with w positive off 0 (the chain route spaces, the
    hierarchical spaces, a V space whose custom Z_5 weight is at least 2 off
    0, and the hierarchical acceptance fixtures), and by the shortcut below
    the least nonzero weight, both with no weight order; elsewhere, on the
    non-hierarchical acceptance fixtures (N, the tree, a chain beside a
    point, ...) and a weight with a zero off 0, where the shortcut must not
    fire, from the weight order."""
    vee = Poset.from_covers(3, [(1, 3), (2, 3)])
    custom = space_context(vee, (1, 2, 1), 5, custom_weight(Alphabet(5), [0, 2, 3, 3, 2]))
    zero = SpaceContext(Poset.antichain(2), Labeling((1, 1)), Alphabet(4),
                        WeightFunction((0, 0, 1, 0)))
    others = [ctx for _, ctx, _ in semidirect_fixtures() if not ctx.poset.is_chain]
    others += [ctx for ctx in fixture_bundles() if not ctx.poset.is_chain and ctx.size <= 64]
    reads = []

    def counted_order(ctx, budget):
        reads.append(ctx)
        return weight_order(ctx, budget)

    monkeypatch.setattr(codes, "weight_order", counted_order)
    shortcuts = 0
    walked = 0
    for ctx in chain_route_spaces() + hierarchical_spaces() + [custom, zero] + others:
        ranked = weight_order(ctx)[1]
        levels = is_hierarchical(ctx.poset) and ctx.min_nonzero_weight > 0
        for r in range(ctx.diameter + 2):
            reads.clear()
            assert codes._volume(ctx, r, 1 << 20) == np.searchsorted(ranked, r, side="right"), (
                ctx.poset.down, ctx.labeling.k, ctx.weight_fn.table, r
            )
            shortcut = r < ctx.min_nonzero_weight
            assert reads == ([] if shortcut or levels else [ctx])
            shortcuts += shortcut
            walked += reads == [ctx]
    # w(1) = w(3) = 0, so B(0, 0) = {0, 1, 3}^2
    assert codes._volume(zero, 0, 1 << 20) == 9
    assert shortcuts >= 2 and walked >= 100


CLI_BUNDLE = {
    "poset.json": {"s": 2, "covers": [[1, 2]]},
    "labeling.json": {"k": [1, 1]},
    "alphabet.json": {"m": 2},
    "weight.json": {"builtin": "hamming"},
    "code.json": {"codewords": [[0, 0], [1, 1]]},
    "matrix.json": {"rows": [[1, 1], [0, 1]]},
    "vector.json": {"coords": [0, 1]},
    "vector2.json": {"coords": [1, 0]},
    "map.json": {"t": 1, "map": [{"tail": [0], "head": [0]}, {"tail": [1], "head": [1]}]},
}


def test_criterion_7_cli_determinism(tmp_path, capsys):
    for name, doc in CLI_BUNDLE.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    base = [
        "--poset", str(tmp_path / "poset.json"),
        "--labeling", str(tmp_path / "labeling.json"),
        "--alphabet", str(tmp_path / "alphabet.json"),
        "--weight", str(tmp_path / "weight.json"),
    ]
    commands = [
        ["poset-info", *base],
        ["weigh", *base, "--vector", str(tmp_path / "vector.json")],
        ["distance", *base, "--vector", str(tmp_path / "vector.json"),
         "--vector2", str(tmp_path / "vector2.json")],
        ["ball", *base, "--center", str(tmp_path / "vector.json"), "--radius", "1", "--list"],
        ["code-report", *base, "--code", str(tmp_path / "code.json")],
        ["perfect-construct", *base, "--map", str(tmp_path / "map.json"), "--list"],
        ["perfect-construct", *base, "--t", "1", "--generate", "random", "--seed", "7"],
        ["isometry-check", *base, "--matrix", str(tmp_path / "matrix.json")],
        ["isometry-group", *base, "--list"],
        ["decompose", *base, "--matrix", str(tmp_path / "matrix.json")],
        ["validate", *base, "--code", str(tmp_path / "code.json")],
    ]
    violations = []
    for argv in commands:
        first_status = main(argv)
        first = capsys.readouterr().out
        second_status = main(argv)
        second = capsys.readouterr().out
        if first_status != 0 or second_status != 0:
            violations.append((argv[0], "nonzero exit", first_status, second_status))
        if first != second:
            violations.append((argv[0], "output drift"))
        try:
            json.loads(first)
        except json.JSONDecodeError:
            violations.append((argv[0], "invalid JSON"))
    report(7, "CLI determinism", violations)
