"""Tracing for the benchmark's traced runs, done entirely from outside the library.

`install` replaces module-level names of `posetblock` where their callers
look them up (for example `codes.weight_table`, which `codes` reads from its
own globals, and `isometry._is_isometry_fast`, the per-candidate test that
the group search calls).  Span wrappers record (name, start, end, parent,
op id) in memory; counter wrappers only count, attributed to the enclosing
span, because they sit on per-vector or per-candidate paths.  `restore`
puts every original back.  `per_layer_metrics` reduces spans and counters
to the per-layer metrics listed in BENCHMARK.json.

Counts marked *computed* are derived from the call arguments by formula
(vectors scanned, profile pairs, candidates of the unpruned search); all
other counts are observed calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from itertools import product
from pathlib import Path

LAYERS = ("tables", "codes", "space", "isometry", "verify", "poset", "jsonio", "cli")

JSONIO_LOADERS = (
    "read_document",
    "poset_from_doc",
    "labeling_from_doc",
    "alphabet_from_doc",
    "weight_from_doc",
    "vector_from_doc",
    "code_from_doc",
    "matrix_from_doc",
    "tail_map_from_doc",
)


class Tracer:
    """In-memory span and counter store; one per traced phase or CLI child."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: Counter = Counter()
        self.op_id: int | None = None
        self.last_op_span = -1  # root span of the op that finished last
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float) -> None:
        """A closed span measured elsewhere, attached to the current parent."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op_id])

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrapping ------------------------------------------------------------

    def span(self, owner, attr: str, name: str, meter=None) -> None:
        """Wrap owner.attr so each call records a span; `meter(args, kwargs)`
        returns computed counts to add."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if meter is not None:
                    tracer.counts.update(meter(args, kwargs))
                index = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)

            return wrapper

        self._replace(owner, attr, make)

    def counter(self, owner, attr: str, on_call) -> None:
        """Wrap owner.attr so each call runs `on_call(counts, parent, result)`."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(tracer.counts, tracer.parent_name(), result)
                return result

            return wrapper

        self._replace(owner, attr, make)

    def _replace(self, owner, attr: str, make) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- persistence -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def absorb(self, record: dict) -> None:
        """Attach a CLI child's spans and counts below the last op's root span."""
        base = len(self.spans)
        parent = self.last_op_span
        for name, start, end, child_parent in record["spans"]:
            self.spans.append(
                [name, start, end, parent if child_parent < 0 else base + child_parent, self.op_id]
            )
        self.counts.update(record["counts"])


# -- what is wrapped ------------------------------------------------------------


def _scanned(args, kwargs):
    # two_smallest_code_distances(ctx, codeword_coords, weights, digits)
    return {"tables.vectors_scanned": len(args[1]) * len(args[2])}


def _profile_pairs(args, kwargs):
    ctx = args[0]
    profiles = len(set(ctx.weight_fn.table)) ** ctx.s
    return {"verify.profile_pairs": profiles * profiles}


def _candidates(args, kwargs):
    exhaustive = kwargs.get("exhaustive", args[3] if len(args) > 3 else False)
    ctx = args[0]
    if exhaustive:
        return {"isometry.candidates_computed": ctx.m ** (ctx.n * ctx.n)}
    return {"isometry.candidates_computed": pruned_candidate_count(ctx)}


def pruned_candidate_count(ctx) -> int:
    """Matrices the structural search assembles before testing any of them.

    Block i's basis vectors map into pools of vectors generating a principal
    ideal {j} of matching ideal size and block dimension, with a unit-weight
    block j and anything strictly below j.
    """
    down, k, m, table = ctx.poset.down, ctx.labeling.k, ctx.m, ctx.weight_fn.table
    unit = table[1]

    def unit_blocks(dim):
        return sum(1 for blk in product(range(m), repeat=dim) if max(table[c] for c in blk) == unit)

    def pool(j):
        below = down[j] & ~(1 << j)
        free = sum(k[b] for b in range(ctx.s) if below >> b & 1)
        return unit_blocks(k[j]) * m**free

    total = 1
    for i in range(ctx.s):
        targets = [
            j for j in range(ctx.s)
            if down[j].bit_count() == down[i].bit_count() and k[j] == k[i]
        ]
        total *= sum(pool(j) ** k[i] for j in targets)
    return total


def _candidate_test(counts, parent, result):
    if parent == "isometry.enumerate_isometry_group":
        counts["isometry.candidates_tested"] += 1
        counts["isometry.members_found"] += bool(result)
    elif parent == "isometry.decompose":
        counts["isometry.reverify.calls"] += 1


def _vector_weight(counts, parent, result):
    counts["space.block_vector_weight.calls"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every traced name of posetblock; undo with `tracer.restore()`."""
    from posetblock import cli, codes, isometry, jsonio, poset, space, verify

    for module in (codes, isometry):
        tracer.span(module, "weight_table", "tables.weight_table")
        tracer.span(module, "digit_table", "tables.digit_table")
    tracer.span(
        codes, "two_smallest_code_distances", "tables.two_smallest_code_distances", _scanned
    )
    for fn in ("analyze", "min_distance", "packing_radius", "is_r_perfect",
               "perfect_code_from_function"):
        tracer.span(codes, fn, f"codes.{fn}")
    tracer.span(codes.Code, "from_generator", "codes.Code.from_generator")
    tracer.span(codes.Code, "from_words", "codes.Code.from_words")
    tracer.span(space, "ball", "space.ball")
    tracer.span(cli, "ball", "space.ball")
    tracer.counter(space.BlockVector, "weight", _vector_weight)
    tracer.span(isometry, "verify_semidirect", "isometry.verify_semidirect")
    tracer.span(
        isometry, "enumerate_isometry_group", "isometry.enumerate_isometry_group", _candidates
    )
    tracer.span(isometry, "decompose", "isometry.decompose")
    tracer.span(isometry, "triangular_group_order", "isometry.triangular_group_order")
    tracer.counter(isometry, "_is_isometry_fast", _candidate_test)
    tracer.span(verify, "check_weight_axioms", "verify.check_weight_axioms", _profile_pairs)
    tracer.span(poset.Poset, "labeled_automorphisms", "poset.labeled_automorphisms")
    for fn in JSONIO_LOADERS:
        tracer.span(jsonio, fn, f"jsonio.{fn}")
    tracer.span(cli, "run", "cli.run")


def weight_cache_info() -> tuple[int, int]:
    """(hits, misses) of the weight-table cache, read through `cache_info()`."""
    from posetblock import tables

    cached = getattr(tables, "_weight_table", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


# -- reduction ------------------------------------------------------------------

# (metric name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = (
    ("tables.weight_table.ms", "ms/op", "lower"),
    ("tables.digit_table.ms", "ms/op", "lower"),
    ("tables.weight_cache_hit_ratio", "ratio", "higher"),
    ("tables.weight_cache_misses", "count/op", "lower"),
    ("tables.two_smallest_code_distances.calls", "count/op", "lower"),
    ("tables.two_smallest_code_distances.ms", "ms/op", "lower"),
    ("tables.vectors_scanned", "count/op", "lower"),
    ("tables.self_ms", "ms/op", "lower"),
    ("codes.analyze.self_ms", "ms/op", "lower"),
    ("codes.min_distance.calls", "count/op", "lower"),
    ("codes.min_distance.ms", "ms/op", "lower"),
    ("codes.packing_radius.ms", "ms/op", "lower"),
    ("codes.is_r_perfect.ms", "ms/op", "lower"),
    ("codes.perfect_code_from_function.ms", "ms/op", "lower"),
    ("codes.self_ms", "ms/op", "lower"),
    ("space.ball.ms", "ms/op", "lower"),
    ("space.ball.calls", "count/op", "lower"),
    ("space.block_vector_weight.calls", "count/op", "lower"),
    ("space.self_ms", "ms/op", "lower"),
    ("isometry.enumerate_isometry_group.ms", "ms/op", "lower"),
    ("isometry.candidates_tested", "count/op", "lower"),
    ("isometry.candidates_computed", "count/op", "lower"),
    ("isometry.members_found", "count/op", "higher"),
    ("isometry.hit_ratio", "ratio", "higher"),
    ("isometry.us_per_candidate", "us", "lower"),
    ("isometry.decompose.ms", "ms/op", "lower"),
    ("isometry.reverify.calls", "count/op", "lower"),
    ("isometry.triangular_group_order.ms", "ms/op", "lower"),
    ("isometry.verify_semidirect.self_ms", "ms/op", "lower"),
    ("isometry.self_ms", "ms/op", "lower"),
    ("verify.check_weight_axioms.ms", "ms/op", "lower"),
    ("verify.profile_pairs", "count/op", "lower"),
    ("verify.self_ms", "ms/op", "lower"),
    ("poset.labeled_automorphisms.ms", "ms/op", "lower"),
    ("poset.self_ms", "ms/op", "lower"),
    ("cli.interpreter_ms", "ms/op", "lower"),
    ("cli.import_ms", "ms/op", "lower"),
    ("cli.run.ms", "ms/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("jsonio.load_ms", "ms/op", "lower"),
    ("jsonio.self_ms", "ms/op", "lower"),
    ("bench.op_self_ms", "ms/op", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count/op", "lower"),
)


def per_layer_metrics(
    tracer: Tracer,
    runs: int,
    cache: tuple[int, int],
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
) -> dict[str, float]:
    """Layer metrics per op run, from one traced phase of `runs` op runs.

    Self time of a span is its duration minus the durations of its child
    spans; a layer's self time sums that over the layer's spans.  Ratios
    state their base: the hit ratio is over weight-table lookups, the
    isometry hit ratio over candidates tested; both read 0 when the base is 0.
    """
    spans = tracer.spans
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        inclusive[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += end - start - child_time[index]
    layer_self: dict[str, float] = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".")[0]] += value

    counts = tracer.counts
    hits, misses = cache
    tested = counts["isometry.candidates_tested"]
    enumerate_s = inclusive["isometry.enumerate_isometry_group"]

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / runs

    def per_op(count: float) -> float:
        return count / runs

    metrics = {
        "tables.weight_table.ms": ms(inclusive["tables.weight_table"]),
        "tables.digit_table.ms": ms(inclusive["tables.digit_table"]),
        "tables.weight_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "tables.weight_cache_misses": per_op(misses),
        "tables.two_smallest_code_distances.calls": per_op(
            calls["tables.two_smallest_code_distances"]
        ),
        "tables.two_smallest_code_distances.ms": ms(
            inclusive["tables.two_smallest_code_distances"]
        ),
        "tables.vectors_scanned": per_op(counts["tables.vectors_scanned"]),
        "codes.analyze.self_ms": ms(self_time["codes.analyze"]),
        "codes.min_distance.calls": per_op(calls["codes.min_distance"]),
        "codes.min_distance.ms": ms(inclusive["codes.min_distance"]),
        "codes.packing_radius.ms": ms(inclusive["codes.packing_radius"]),
        "codes.is_r_perfect.ms": ms(inclusive["codes.is_r_perfect"]),
        "codes.perfect_code_from_function.ms": ms(inclusive["codes.perfect_code_from_function"]),
        "space.ball.ms": ms(inclusive["space.ball"]),
        "space.ball.calls": per_op(calls["space.ball"]),
        "space.block_vector_weight.calls": per_op(counts["space.block_vector_weight.calls"]),
        "isometry.enumerate_isometry_group.ms": ms(enumerate_s),
        "isometry.candidates_tested": per_op(tested),
        "isometry.candidates_computed": per_op(counts["isometry.candidates_computed"]),
        "isometry.members_found": per_op(counts["isometry.members_found"]),
        "isometry.hit_ratio": counts["isometry.members_found"] / tested if tested else 0.0,
        "isometry.us_per_candidate": 1e6 * enumerate_s / tested if tested else 0.0,
        "isometry.decompose.ms": ms(inclusive["isometry.decompose"]),
        "isometry.reverify.calls": per_op(counts["isometry.reverify.calls"]),
        "isometry.triangular_group_order.ms": ms(inclusive["isometry.triangular_group_order"]),
        "isometry.verify_semidirect.self_ms": ms(self_time["isometry.verify_semidirect"]),
        "verify.check_weight_axioms.ms": ms(inclusive["verify.check_weight_axioms"]),
        "verify.profile_pairs": per_op(counts["verify.profile_pairs"]),
        "poset.labeled_automorphisms.ms": ms(inclusive["poset.labeled_automorphisms"]),
        "cli.interpreter_ms": ms(inclusive["process.interpreter"]),
        "cli.import_ms": ms(inclusive["process.import"]),
        "cli.run.ms": ms(inclusive["cli.run"]),
        "jsonio.load_ms": ms(sum(inclusive[f"jsonio.{fn}"] for fn in JSONIO_LOADERS)),
        "bench.op_self_ms": ms(self_time["bench.op"]),
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.traced_ops_per_s": traced_ops_per_s,
        "trace.overhead_pct": 100.0 * (1.0 - traced_ops_per_s / untraced_ops_per_s),
        "trace.spans": per_op(len(spans)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = ms(layer_self[layer])
    return {name: metrics[name] for name, _, _ in PER_LAYER}
