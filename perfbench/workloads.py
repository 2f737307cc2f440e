"""Workloads of the posetblock benchmark and the checks on their outputs.

A workload is an endless sequence of decks.  Every deck holds DECK_SIZE ops
of a fixed composition; the seed only draws the contents (generators,
codewords, centres, element relabelings) and the order.  Each op belongs
to a slot (its kind, space and size) whose cost does not depend on the
drawn contents.  Runs always finish whole decks, so each run sees the same
mix, and with an odd DECK_SIZE that is a multiple of 5 the median and p90
of the op latencies fall inside one deck rank instead of between two (for
two or more decks).

Every deck starts with the library's caches cleared (`reset`), as a fresh
script would.  Each op runs once, in three steps: `run` (the only timed
step, the program's calls), `summarize` (turns the result into JSON data for
the digest) and `check` (compares it with what the benchmark derives
independently).  Checks run after the timed phase, so the benchmark's own
reference tables neither warm the library's caches nor count in set-up time
or peak memory.  The seeded `oracle` pass re-checks a sample through the
library's slow routes named as oracles: `BlockVector.weight`/`distance`,
`check_weight_axioms_bruteforce` and `exhaustive=True`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from posetblock import codes, isometry, space, verify
from posetblock.algebra import Alphabet, custom_weight, hamming_weight, lee_weight
from posetblock.poset import Labeling, Poset
from posetblock.space import SpaceContext

import tracing

DECK_SIZE = 25


class CheckFailure(Exception):
    """An op's output disagrees with what the benchmark expects."""


@dataclass
class Op:
    kind: str
    params: dict  # JSON description; the op list is made of these
    inputs: object = None  # ready-made arguments for the timed call
    known_defect: str | None = None
    slot: str = ""  # ops of one slot do the same work from the same cache state


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(canonical(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# -- spaces ----------------------------------------------------------------------


def chain(s: int) -> list[list[int]]:
    return [[i, i + 1] for i in range(1, s)]


V = [[1, 2], [1, 3]]
LAMBDA = [[1, 3], [2, 3]]
N = [[1, 3], [2, 3], [2, 4]]
TREE = [[1, 2], [1, 3], [3, 4]]


def spec(s: int, covers, k, m: int, weight) -> dict:
    """JSON description of a space; `weight` is 'hamming', 'lee' or a table."""
    return {"s": s, "covers": [list(c) for c in covers], "k": list(k), "m": m, "weight": weight}


def powers(sp: dict) -> np.ndarray:
    """Place values of the coordinates: a vector's rank is coords . powers."""
    return sp["m"] ** np.arange(sum(sp["k"]) - 1, -1, -1, dtype=np.int64)


def coords_of(sp: dict, rank: int) -> list[int]:
    return [int(c) for c in rank // powers(sp) % sp["m"]]


def rank_of(sp: dict, coords) -> int:
    return int(np.dot(np.asarray(coords, dtype=np.int64), powers(sp)))


def build_context(sp: dict) -> SpaceContext:
    alphabet = Alphabet(sp["m"])
    if sp["weight"] == "hamming":
        weight = hamming_weight(alphabet)
    elif sp["weight"] == "lee":
        weight = lee_weight(alphabet)
    else:
        weight = custom_weight(alphabet, sp["weight"])
    poset = Poset.from_covers(sp["s"], [tuple(c) for c in sp["covers"]])
    return SpaceContext(poset, Labeling(tuple(sp["k"])), alphabet, weight)


def relabel(sp: dict, rng: random.Random) -> dict:
    """The same space with its poset elements renamed by a random permutation."""
    image = list(range(1, sp["s"] + 1))
    rng.shuffle(image)
    covers = sorted([image[a - 1], image[b - 1]] for a, b in sp["covers"])
    k = [0] * sp["s"]
    for i, dim in enumerate(sp["k"]):
        k[image[i] - 1] = dim
    return {**sp, "covers": covers, "k": k}


class Reference:
    """Whole-space weights built by the benchmark, independently of `tables`.

    Block-max profiles are computed here with numpy; each distinct profile is
    weighed by `SpaceContext.weight_of_profile`, the route behind
    `BlockVector.weight`.
    """

    def __init__(self, ctx: SpaceContext):
        self.ctx = ctx
        self.m = ctx.m
        self.powers = ctx.m ** np.arange(ctx.n - 1, -1, -1, dtype=np.int64)
        ranks = np.arange(ctx.size, dtype=np.int64)
        self.digits = ranks[:, None] // self.powers % ctx.m
        scalar = np.asarray(ctx.weight_fn.table, dtype=np.int64)[self.digits]
        profile = np.stack(
            [scalar[:, ctx.block_slice(i)].max(axis=1) for i in range(1, ctx.s + 1)], axis=1
        )
        unique, inverse = np.unique(profile, axis=0, return_inverse=True)
        per_profile = np.array(
            [ctx.weight_of_profile(tuple(int(x) for x in p)) for p in unique], dtype=np.int64
        )
        self.weights = per_profile[inverse.reshape(-1)]
        # shifted[i][c]: what coordinate i adds to the rank of x - y when y_i = c
        self.shifted = [
            [(self.digits[:, i] - c) % ctx.m * self.powers[i] for c in range(ctx.m)]
            for i in range(ctx.n)
        ]

    def rank(self, coords) -> int:
        return int(np.dot(np.asarray(coords, dtype=np.int64), self.powers))

    def distances_from(self, rank: int) -> np.ndarray:
        diff = sum(self.shifted[i][c] for i, c in enumerate(self.digits[rank]))
        return self.weights[diff]

    def min_pairwise(self, ranks: list[int]) -> int:
        words = self.digits[ranks]
        diff = (words[:, None, :] - words[None, :, :]) % self.m @ self.powers
        dist = self.weights[diff]
        np.fill_diagonal(dist, np.iinfo(np.int64).max)
        return int(dist.min())

    def two_smallest(self, ranks: list[int]) -> tuple[np.ndarray, np.ndarray]:
        big = np.iinfo(np.int64).max
        d1 = np.full(len(self.weights), big, dtype=np.int64)
        d2 = d1.copy()
        for r in ranks:
            d = self.distances_from(r)
            d2 = np.minimum(d2, np.maximum(d1, d))
            d1 = np.minimum(d1, d)
        return d1, d2


class Workload:
    """Base: seeded decks, a reference per space, and the cache reset."""

    name = ""
    in_process = True  # False: the program runs in child processes, traced there
    tracer = None  # the Tracer of a traced phase, for workloads that trace children

    def __init__(self, seed: int):
        self.seed = seed
        self.cache = [0, 0]  # weight-table cache hits and misses, see reset()
        self.missing: set[str] = set()  # traced names a CLI child could not find
        self._refs: dict[str, Reference] = {}

    def deck(self, index: int, phase_dir: Path) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        ops = self._deck(rng, phase_dir / f"deck-{index}")
        if len(ops) != DECK_SIZE:
            raise AssertionError(f"{self.name} deck has {len(ops)} ops, not {DECK_SIZE}")
        for position, op in enumerate(ops):
            op.slot = op.slot or f"#{position}"
        rng.shuffle(ops)
        self._arrange(ops)
        return ops

    def _arrange(self, ops: list[Op]) -> None:
        """Fix what the shuffled order must keep; by default nothing."""

    def reference(self, sp: dict) -> Reference:
        key = canonical(sp)
        if key not in self._refs:
            self._refs[key] = Reference(build_context(sp))
        return self._refs[key]

    def reset(self) -> None:
        """Empty every table cache of the library, so the next run starts cold.

        The weight-table cache's hit and miss counts are added to
        `self.cache` first, since clearing the cache also clears its counts.
        """
        from posetblock import tables

        if self.in_process:
            hits, misses = tracing.weight_cache_info()
            self.cache[0] += hits
            self.cache[1] += misses
        for module in (tables, verify):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def prepare(self, op: Op) -> None:
        """Bring the caches to the state `op` starts from; by default as the deck left them."""

    def _deck(self, rng: random.Random, deck_dir: Path) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def summarize(self, op: Op, raw) -> dict:
        raise NotImplementedError

    def check(self, op: Op, out: dict) -> None:
        raise NotImplementedError

    def oracle(self, done: list[tuple[Op, dict]], rng: random.Random) -> list[str]:
        return []

    def peak_rss_mb(self) -> float | None:
        """None: the benchmark process's own peak is the workload's peak."""
        return None


# -- code-analytics --------------------------------------------------------------

CA_SPACES = {
    "anti6-m3": spec(6, [], [1] * 6, 3, "hamming"),  # 3^6 vectors
    "chain4-k2211-m3": spec(4, chain(4), [2, 2, 1, 1], 3, "hamming"),  # 3^6
    "V-k221-m5-lee": spec(3, V, [2, 2, 1], 5, "lee"),  # 5^5
    "chain5-k22111-m4-lee": spec(5, chain(5), [2, 2, 1, 1, 1], 4, "lee"),  # 2^14
    "anti7-k2-m2": spec(7, [], [2] * 7, 2, "hamming"),  # 2^14
}

# (kind, space, size, copies): size is the generator rows for `linear`, the
# code size K for `nonlinear`, the block count t for `perfect` and the
# radius for `ball`.
CA_DECK = (
    ("linear", "anti6-m3", 3, 3),
    ("linear", "V-k221-m5-lee", 2, 2),
    ("linear", "anti7-k2-m2", 4, 2),
    ("linear", "chain5-k22111-m4-lee", 3, 1),
    ("nonlinear", "anti6-m3", 32, 3),
    ("nonlinear", "V-k221-m5-lee", 16, 2),
    ("nonlinear", "chain5-k22111-m4-lee", 32, 1),
    ("nonlinear", "anti7-k2-m2", 64, 2),
    ("perfect", "chain4-k2211-m3", 1, 2),
    ("perfect", "chain5-k22111-m4-lee", 2, 2),
    ("ball", "anti6-m3", 3, 2),
    ("ball", "anti7-k2-m2", 4, 3),
)


class CodeAnalytics(Workload):
    """In-process code analytics over a few fixed spaces of 3^6 to 2^14 vectors.

    `tables`, `codes` and `space` do the work and `isometry` none.  Caches
    are cleared at each deck start, so each space's tables are built once
    per deck, by its first op, and then read by the deck's other ops on it.
    """

    name = "code-analytics"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.contexts = {key: build_context(sp) for key, sp in CA_SPACES.items()}

    def reset(self) -> None:
        super().reset()
        self.contexts = {key: build_context(sp) for key, sp in CA_SPACES.items()}

    def _deck(self, rng, deck_dir):
        ops = []
        for kind, key, size, copies in CA_DECK:
            for _ in range(copies):
                op = getattr(self, f"_make_{kind}")(rng, key, size)
                op.slot = f"{kind} {key} {size}"
                ops.append(op)
        return ops

    def _arrange(self, ops):
        """Open each space with its first listed op, in a slot of its own.

        The opener (the first CA_DECK entry of the space) moves to the
        space's first position in the deck, so it alone pays the space's
        table builds; every later op on the space finds the tables built.
        """
        for key in CA_SPACES:
            kind, _, size, _ = next(entry for entry in CA_DECK if entry[1] == key)
            first = next(i for i, op in enumerate(ops) if op.params["space"] == key)
            opener = next(i for i, op in enumerate(ops) if op.slot == f"{kind} {key} {size}")
            ops[first], ops[opener] = ops[opener], ops[first]
            ops[first].slot += " opener"

    def _make_linear(self, rng, key, rows):
        sp = CA_SPACES[key]
        n, m, place = sum(sp["k"]), sp["m"], powers(sp)
        coeffs = np.array(list(product(range(m), repeat=rows)), dtype=np.int64)
        while True:  # redraw until the rows are free, so K = m^rows exactly
            gen = [[rng.randrange(m) for _ in range(n)] for _ in range(rows)]
            span = np.unique(coeffs @ np.array(gen, dtype=np.int64) % m @ place)
            if len(span) == m**rows:
                break
        params = {"space": key, "generator": gen}
        return Op("linear", params, (key, gen, [int(r) for r in span]))

    def _make_nonlinear(self, rng, key, size):
        sp = CA_SPACES[key]
        ranks = sorted(rng.sample(range(sp["m"] ** sum(sp["k"])), size))
        words = [coords_of(sp, r) for r in ranks]
        return Op("nonlinear", {"space": key, "codewords": words}, (key, words, ranks))

    def _make_perfect(self, rng, key, t):
        sp = CA_SPACES[key]
        head_n = sum(sp["k"][:t])
        table = {
            tail: tuple(rng.randrange(sp["m"]) for _ in range(head_n))
            for tail in product(range(sp["m"]), repeat=sum(sp["k"]) - head_n)
        }
        params = {"space": key, "t": t, "map": sorted([list(h), list(tl)] for tl, h in table.items())}
        ranks = [rank_of(sp, h + tl) for tl, h in table.items()]
        return Op("perfect", params, (key, t, table, ranks))

    def _make_ball(self, rng, key, radius):
        sp = CA_SPACES[key]
        center = coords_of(sp, rng.randrange(sp["m"] ** sum(sp["k"])))
        return Op("ball", {"space": key, "center": center, "radius": radius}, (key, center, radius))

    def run(self, op):
        if op.kind in ("linear", "nonlinear"):
            key, words = op.inputs[0], op.inputs[1]
            ctx = self.contexts[key]
            if op.kind == "linear":
                code = codes.Code.from_generator(ctx, words)
            else:
                code = codes.Code.from_words(ctx, words)
            return codes.analyze(code)
        if op.kind == "perfect":
            key, t, table, _ = op.inputs
            ctx = self.contexts[key]
            code = codes.perfect_code_from_function(ctx, t, table)
            return code.size, codes.is_r_perfect(code, t * ctx.max_weight)
        key, center, radius = op.inputs
        ctx = self.contexts[key]
        return space.ball(ctx.vector(center), radius)

    def summarize(self, op, raw):
        if op.kind in ("linear", "nonlinear"):
            return {
                "K": raw.size, "d_w": raw.min_distance, "d_H": raw.hamming_min_distance,
                "lambda": raw.ideal_size, "mu": raw.ideal_dimension,
                "bound": raw.singleton_bound, "is_mds": raw.is_mds,
                "packing_radius": raw.packing_radius, "is_perfect": raw.is_perfect,
            }
        if op.kind == "perfect":
            return {"K": raw[0], "is_r_perfect": raw[1]}
        coords = np.array([v.coords for v in raw], dtype=np.int64)
        return {"members": (coords @ powers(CA_SPACES[op.inputs[0]])).tolist()}

    def check(self, op, out):
        key = op.inputs[0]
        sp, ctx = CA_SPACES[key], self.contexts[key]
        ref = self.reference(sp)
        if op.kind in ("linear", "nonlinear"):
            ranks = op.inputs[2]
            href = self.reference({**sp, "weight": "hamming"})
            if op.kind == "linear":
                nonzero = [r for r in ranks if r]
                d_w, d_h = int(ref.weights[nonzero].min()), int(href.weights[nonzero].min())
                expect(out["K"] == sp["m"] ** len(op.inputs[1]), f"K {out['K']} of {op.params}")
            else:
                d_w, d_h = ref.min_pairwise(ranks), href.min_pairwise(ranks)
                expect(out["K"] == len(ranks), f"K {out['K']} of {op.params}")
            d1, d2 = ref.two_smallest(ranks)
            rho = int(d2.min()) - 1
            perfect = bool((d1 <= rho).all() and (d2 > rho).all())
            lam = (d_w - ctx.min_nonzero_weight) // ctx.max_weight
            expect(
                (out["d_w"], out["d_H"], out["packing_radius"], out["is_perfect"], out["lambda"])
                == (d_w, d_h, rho, perfect, lam),
                f"{op.kind} report {out} != d_w {d_w}, d_H {d_h}, rho {rho}, "
                f"perfect {perfect}, lambda {lam} for {op.params}",
            )
            expect(out["packing_radius"] <= out["d_w"] - 1, f"packing radius >= d_w in {out}")
            expect(
                out["bound"] == sp["m"] ** (ctx.n - out["mu"]) and out["K"] <= out["bound"]
                and out["is_mds"] == (out["K"] == out["bound"]),
                f"Singleton data inconsistent in {out}",
            )
        elif op.kind == "perfect":
            _, t, table, ranks = op.inputs
            radius = t * ctx.max_weight
            d1, d2 = ref.two_smallest(ranks)
            expect(out["K"] == len(table), f"graph code size {out['K']} != {len(table)}")
            expect(
                out["is_r_perfect"] and bool((d1 <= radius).all() and (d2 > radius).all()),
                f"graph code on a chain not {radius}-perfect: {op.params}",
            )
        else:
            _, center, radius = op.inputs
            within = np.nonzero(ref.distances_from(ref.rank(center)) <= radius)[0]
            expect(out["members"] == within.tolist(), f"ball members differ for {op.params}")

    def oracle(self, done, rng):
        """Weight tables vs BlockVector.weight; d_w, packing radius and
        perfection of sampled codes from BlockVector distances."""
        notes = []
        from posetblock import tables

        for key, sp in CA_SPACES.items():
            ctx, ref = self.contexts[key], self.reference(sp)
            sample = rng.sample(range(ctx.size), 32)
            expect(
                all(int(ref.weights[r]) == ctx.vector_at(r).weight() for r in sample),
                f"reference weights disagree with BlockVector.weight on {key}",
            )
            expect(
                np.array_equal(tables.weight_table(ctx), ref.weights),
                f"tables.weight_table disagrees with BlockVector.weight on {key}",
            )
        notes.append(f"weight tables of {len(CA_SPACES)} spaces == BlockVector.weight")
        small = [
            (op, out) for op, out in done
            if op.kind in ("linear", "nonlinear")
            and len(op.inputs[2]) * self.contexts[op.inputs[0]].size <= 40_000
        ]
        for op, out in rng.sample(small, min(3, len(small))):
            ctx = self.contexts[op.inputs[0]]
            words = [ctx.vector_at(r) for r in op.inputs[2]]
            d_w = min(u.distance(v) for i, u in enumerate(words) for v in words[i + 1:])
            d1, d2 = [], []
            for x in ctx.vectors():
                dist = sorted((x - c).weight() for c in words)
                d1.append(dist[0])
                d2.append(dist[1])
            rho = min(d2) - 1
            perfect = all(a <= rho for a in d1) and all(b > rho for b in d2)
            expect(
                (out["d_w"], out["packing_radius"], out["is_perfect"]) == (d_w, rho, perfect),
                f"oracle (BlockVector.distance) disagrees on {op.params}",
            )
            notes.append(f"oracle {op.kind} K={len(words)} on {op.inputs[0]}: ok")
        return notes


# -- isometry-group ----------------------------------------------------------------

# (label, space, (gl_order, u_order, aut_order), copies).  Posets have
# s <= 5, blocks of size 1 or 2, m in {2, 3, 5, 7}; the orders are the
# isometry-group factorization every op must reproduce, and every relabeling
# of a space has the same orders.
ISO_FAMILY = (
    ("anti3-m3", spec(3, [], [1, 1, 1], 3, "hamming"), (48, 8, 6), 1),
    ("anti4-m2", spec(4, [], [1] * 4, 2, "hamming"), (24, 1, 24), 1),
    ("anti3-k211-m2", spec(3, [], [2, 1, 1], 2, "hamming"), (12, 6, 2), 1),
    ("anti2-m7", spec(2, [], [1, 1], 7, "hamming"), (72, 36, 2), 1),
    ("chain3-m2", spec(3, chain(3), [1, 1, 1], 2, "hamming"), (8, 8, 1), 1),
    ("chain2-m5", spec(2, chain(2), [1, 1], 5, "hamming"), (80, 80, 1), 1),
    ("V-m2", spec(3, V, [1, 1, 1], 2, "hamming"), (8, 4, 2), 1),
    ("L-m2", spec(3, LAMBDA, [1, 1, 1], 2, "hamming"), (8, 4, 2), 1),
    ("V-m3", spec(3, V, [1, 1, 1], 3, "hamming"), (144, 72, 2), 5),
    ("N-m2", spec(4, N, [1] * 4, 2, "hamming"), (8, 8, 1), 1),
    ("tree-m2", spec(4, TREE, [1] * 4, 2, "hamming"), (16, 16, 1), 1),
    ("chain3-m3", spec(3, chain(3), [1, 1, 1], 3, "hamming"), (216, 216, 1), 1),
    ("V-m5-lee", spec(3, V, [1, 1, 1], 5, "lee"), (400, 200, 2), 1),
    ("anti5-m2", spec(5, [], [1] * 5, 2, "hamming"), (120, 1, 120), 1),
    ("anti4-m3", spec(4, [], [1] * 4, 3, "hamming"), (384, 16, 24), 1),
    ("chain3-m5-custom", spec(3, chain(3), [1, 1, 1], 5, [0, 2, 1, 1, 2]), (1000, 1000, 1), 1),
    ("chain5-m2", spec(5, chain(5), [1] * 5, 2, "hamming"), (1024, 1024, 1), 4),
)

# One axiom-only op per deck, on this s = 6 space with 4 distinct scalar
# weights: 4^6 profiles, so the profile check builds 4^12 pair entries
# (about 0.4 GB of int64 arrays).
AXIOM_SPACE = spec(6, [[1, 2], [1, 3], [3, 4], [3, 5], [5, 6]], [1] * 6, 7, [0, 2, 3, 1, 1, 3, 2])

EXHAUSTIVE_LIMIT = 20_000  # matrices m^(n^2) an oracle op may scan
BRUTEFORCE_LIMIT = 343  # vectors per space for the pairwise axiom oracle


class IsometryGroup(Workload):
    """In-process: `check_weight_axioms` + `verify_semidirect` per space.

    `isometry` dominates and `codes` does nothing.  Antichains leave room to
    prune (few candidates are isometries); on chains every candidate is a
    member, so the per-candidate cost dominates.  The axiom-only op makes
    `verify` and peak memory show.
    """

    name = "isometry-group"

    def prepare(self, op):
        # Every op is cold: its space is new to the process, even when the
        # seed drew a relabeling equal to one met earlier in the deck.
        self.reset()

    def _deck(self, rng, deck_dir):
        ops = []
        for label, sp, orders, copies in ISO_FAMILY:
            for _ in range(copies):
                params = {"family": label, "space": relabel(sp, rng)}
                ops.append(Op("group", params, orders, slot=label))
        params = {"family": "tree6-m7-custom", "space": relabel(AXIOM_SPACE, rng)}
        ops.append(Op("axioms", params, slot="tree6-m7-custom"))
        return ops

    def run(self, op):
        ctx = build_context(op.params["space"])
        axioms = verify.check_weight_axioms(ctx)
        if op.kind == "axioms":
            return axioms, None
        return axioms, isometry.verify_semidirect(ctx)

    def summarize(self, op, raw):
        axioms, report = raw
        out = {"axioms_ok": axioms.ok}
        if report is not None:
            out.update(
                gl_order=report.gl_order, u_order=report.u_order, aut_order=report.aut_order,
                product_matches=report.product_matches, all_decomposed=report.all_decomposed,
            )
        return out

    def check(self, op, out):
        expect(out["axioms_ok"], f"weight axioms reported broken on {op.params}")
        if op.kind == "group":
            gl, u, aut = op.inputs
            expect(
                (out["gl_order"], out["u_order"], out["aut_order"]) == (gl, u, aut)
                and out["gl_order"] == out["u_order"] * out["aut_order"]
                and out["product_matches"] and out["all_decomposed"],
                f"group report {out} != orders {(gl, u, aut)} for {op.params['family']}",
            )

    def oracle(self, done, rng):
        """Exhaustive group search and pairwise axiom check on small spaces."""
        notes = []
        tiny = [
            op for op, _ in done
            if op.kind == "group" and op.params["space"]["m"] ** (sum(op.params["space"]["k"]) ** 2)
            <= EXHAUSTIVE_LIMIT
        ]
        for op in rng.sample(tiny, min(2, len(tiny))):
            ctx = build_context(op.params["space"])
            found = len(isometry.enumerate_isometry_group(ctx, exhaustive=True))
            expect(found == op.inputs[0], f"exhaustive search finds {found} on {op.params}")
            notes.append(f"oracle exhaustive {op.params['family']}: {found} isometries")
        small = [
            op for op, _ in done
            if op.params["space"]["m"] ** sum(op.params["space"]["k"]) <= BRUTEFORCE_LIMIT
        ]
        for op in rng.sample(small, min(2, len(small))):
            ctx = build_context(op.params["space"])
            expect(
                verify.check_weight_axioms_bruteforce(ctx).ok,
                f"pairwise axiom oracle fails on {op.params}",
            )
            notes.append(f"oracle pairwise axioms {op.params['family']}: ok")
        return notes


def make(name: str, seed: int) -> Workload:
    from climix import CliMix

    workloads = {cls.name: cls for cls in (CodeAnalytics, IsometryGroup, CliMix)}
    return workloads[name](seed)
