"""Self-tests of the benchmark.

Run from the repository root:  python3 perfbench/selftest.py   (three to five minutes)

Each workload gets a one-deck smoke run; the same seed must give the same op
list and output digest, another seed another op list, and the traced run the
untraced digest.  The checkers must reject a tampered output, the benchmark
must refuse to run without the library sources, and the ops of a slot must
do the same traced work whatever contents the seed drew.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_runs: dict = {}


def bench(workload: str, seed: int, trace: int = 0, fresh: bool = False):
    """One-deck run in this process, memoized unless `fresh`:
    (exit status, result, digest, op list digest, stderr)."""
    key = (workload, seed, trace)
    if fresh or key not in _runs:
        out, err = io.StringIO(), io.StringIO()
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run.main(argv, decks=1)
        lines = out.getvalue().strip().splitlines()
        words = next(line for line in lines if line.lstrip().startswith("digest ")).split()
        done = (status, json.loads(lines[-1]), words[1], words[-1], err.getvalue())
        if fresh:
            return done
        _runs[key] = done
    return _runs[key]


class Runs(unittest.TestCase):
    def test_smoke_and_result_line(self):
        for workload in NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    status, result, _, _, stderr = bench(workload, 11, trace)
                    self.assertEqual(status, 0, stderr)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_same_seed_same_ops_and_digest(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                first, again = bench(workload, 11), bench(workload, 11, trace=1)
                repeat = bench(workload, 11, fresh=True)
                self.assertEqual(repeat[2:4], first[2:4])
                self.assertEqual((again[2], again[3]), (first[2], first[3]), "traced != untraced")

    def test_other_seed_other_ops(self):
        for workload in NAMES:
            with self.subTest(workload=workload):
                self.assertNotEqual(bench(workload, 11)[3], bench(workload, 12)[3])

    def test_known_defects_are_the_only_failures(self):
        _, result, _, _, _ = bench("cli-mix", 11)
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1 - 2 / workloads.DECK_SIZE)
        for workload in ("code-analytics", "isometry-group"):
            self.assertEqual(bench(workload, 11)[1]["failed"], 0)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


class Checkers(unittest.TestCase):
    """A wrong output must be caught by the workload's own check."""

    DECKS = ROOT / ".bench_build" / "selftest-checkers"

    def first_output(self, name, kind):
        wl = workloads.make(name, 5)
        op = next(op for op in wl.deck(0, self.DECKS) if op.kind == kind and not op.known_defect)
        out = wl.summarize(op, wl.run(op))
        wl.check(op, out)
        return wl, op, out

    def test_code_report_tampered(self):
        wl, op, out = self.first_output("code-analytics", "nonlinear")
        with self.assertRaises(workloads.CheckFailure):
            wl.check(op, {**out, "packing_radius": out["packing_radius"] + 1})

    def test_ball_tampered(self):
        wl, op, out = self.first_output("code-analytics", "ball")
        with self.assertRaises(workloads.CheckFailure):
            wl.check(op, {"members": out["members"][:-1]})

    def test_group_report_tampered(self):
        wl, op, out = self.first_output("isometry-group", "group")
        with self.assertRaises(workloads.CheckFailure):
            wl.check(op, {**out, "gl_order": out["gl_order"] * 2, "u_order": out["u_order"] * 2})

    def test_cli_contract_break(self):
        wl, op, out = self.first_output("cli-mix", "cli")
        with self.assertRaises(workloads.CheckFailure):
            wl.check(op, {"exit": out["exit"], "stdout": "Traceback ...\n"})
        shutil.rmtree(self.DECKS, ignore_errors=True)


class Spec(unittest.TestCase):
    def test_per_layer_list_matches_tracing(self):
        listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
        self.assertEqual(listed, list(tracing.PER_LAYER))

    def test_slot_work_does_not_depend_on_contents(self):
        """Ops of one slot make the same traced calls and counts, and miss the
        same library caches, in every deck: this is what lets an op's latency
        be its slot's fastest."""
        from posetblock import tables, verify

        caches = [value for module in (tables, verify) for value in vars(module).values()
                  if hasattr(value, "cache_info")]
        for name in ("code-analytics", "isometry-group"):
            wl = workloads.make(name, 7)
            signatures: dict = {}
            for index in range(3):
                ops = wl.deck(index, ROOT / ".bench_build" / "selftest-slots")
                wl.reset()
                for op in ops:
                    wl.prepare(op)
                    before = [cache.cache_info().misses for cache in caches]
                    tracer = tracing.Tracer()
                    tracing.install(tracer)
                    try:
                        wl.run(op)
                    finally:
                        tracer.restore()
                    misses = [cache.cache_info().misses - b for cache, b in zip(caches, before)]
                    work = (sorted(tracer.counts.items()), sorted(span[0] for span in tracer.spans),
                            misses)
                    signatures.setdefault(op.slot, []).append(work)
            for slot, works in signatures.items():
                with self.subTest(workload=name, slot=slot):
                    self.assertGreaterEqual(len(works), 3)
                    self.assertTrue(all(work == works[0] for work in works), slot)
            wl.reset()

    def test_traced_counts(self):
        """The search tests at most the computed candidates and finds the group."""
        from posetblock import isometry

        for label, sp, (gl, _, _), _ in workloads.ISO_FAMILY[:12]:
            with self.subTest(space=label):
                ctx = workloads.build_context(sp)
                tracer = tracing.Tracer()
                tracing.install(tracer)
                try:
                    found = isometry.enumerate_isometry_group(ctx)
                finally:
                    tracer.restore()
                self.assertEqual(len(found), gl)
                self.assertEqual(tracer.counts["isometry.members_found"], gl)
                self.assertLessEqual(tracer.counts["isometry.candidates_tested"],
                                     tracer.counts["isometry.candidates_computed"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
