"""cli-mix: one `python -m posetblock` process per op, on small documents.

Process start dominates here (interpreter plus numpy import), tables are
rebuilt cold in every process, and `jsonio` and `cli` only show up in this
workload.  Every deck covers all ten commands and holds a few documents
that break the contract on purpose: two are handled (a cyclic poset, exit
1; an exceeded budget, exit 2) and two are the known defects that escape as
tracebacks today (`{"s": 0}` and `ball --radius -1`), which count as failed.

Drawing a deck only writes the op documents.  What an op must print is
worked out by `check`, after the timed phase: from the construction, from
the benchmark's reference, or from the library called in this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from posetblock import codes
from posetblock.poset import Labeling, Poset

from workloads import (
    ISO_FAMILY,
    N,
    V,
    Op,
    Workload,
    build_context,
    chain,
    coords_of,
    expect,
    relabel,
    spec,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 60
KNOWN_DEFECT = "ROADMAP item 5: bare ValueError escapes as a traceback"

SPACES = {
    "anti3-m3": spec(3, [], [1, 1, 1], 3, "hamming"),
    "anti3-m5": spec(3, [], [1, 1, 1], 5, "hamming"),
    "anti6-m3": spec(6, [], [1] * 6, 3, "hamming"),
    "V-m5-lee": spec(3, V, [1, 1, 1], 5, "lee"),
    "N-m3": spec(4, N, [1] * 4, 3, "hamming"),
    "chain3-m3": spec(3, chain(3), [1, 1, 1], 3, "hamming"),
    "chain2-k21-m3": spec(2, chain(2), [2, 1], 3, "hamming"),
}
GOLDEN_ORDERS = {label: orders for label, _, orders, _ in ISO_FAMILY}


def space_docs(sp: dict) -> dict:
    weight = {"builtin": sp["weight"]} if isinstance(sp["weight"], str) else {"table": sp["weight"]}
    return {
        "poset.json": {"s": sp["s"], "covers": sp["covers"]},
        "labeling.json": {"k": sp["k"]},
        "alphabet.json": {"m": sp["m"]},
        "weight.json": weight,
    }


SPACE_ARGS = ["--poset", "poset.json", "--labeling", "labeling.json",
              "--alphabet", "alphabet.json", "--weight", "weight.json"]


class CliMix(Workload):
    name = "cli-mix"
    in_process = False

    def __init__(self, seed: int):
        super().__init__(seed)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.max_child_rss_kb = 0

    # -- decks ---------------------------------------------------------------

    def _deck(self, rng, deck_dir):
        ops = [
            self._poset_info(rng, N), self._poset_info(rng, V),
            self._weigh(rng, "V-m5-lee"), self._distance(rng, "N-m3"),
            self._ball(rng, "anti6-m3", 2, False), self._ball(rng, "V-m5-lee", 2, True),
            self._ball(rng, "chain2-k21-m3", 1, True),
            self._code_report(rng, "anti6-m3", 16, False),
            self._code_report(rng, "V-m5-lee", 2, True),
            self._code_report(rng, "N-m3", 8, False),
            self._perfect_generate(rng), self._perfect_map(rng),
            self._isometry_check(rng, True), self._isometry_check(rng, False),
            # the four slowest ops, alike so that p90 falls among them
            self._group(rng, "V-m3", False), self._group(rng, "V-m3", False),
            self._group(rng, "V-m3", True), self._group(rng, "V-m3", True),
            self._decompose_antichain(rng), self._decompose_chain(rng),
            self._validate(rng),
            self._error_op("poset-info", {"poset.json": {"s": 2, "covers": [[1, 2], [2, 1]]}},
                           ["--poset", "poset.json"], 1, "validation"),
            self._error_op("ball", {**space_docs(SPACES["anti6-m3"]), "v.json": {"coords": [0] * 6}},
                           [*SPACE_ARGS, "--center", "v.json", "--radius", "1", "--budget", "10"],
                           2, "budget"),
            self._error_op("poset-info", {"poset.json": {"s": 0}}, ["--poset", "poset.json"],
                           1, "validation", KNOWN_DEFECT),
            self._error_op("ball", {**space_docs(SPACES["chain3-m3"]), "v.json": {"coords": [0] * 3}},
                           [*SPACE_ARGS, "--center", "v.json", "--radius", "-1"],
                           1, "validation", KNOWN_DEFECT),
        ]
        for index, op in enumerate(ops):
            op_dir = deck_dir / f"op-{index:02d}"
            op_dir.mkdir(parents=True, exist_ok=True)
            for name, doc in op.params["docs"].items():
                (op_dir / name).write_text(json.dumps(doc), encoding="utf-8")
            op.params["dir"] = op_dir.name
            op.inputs["dir"] = op_dir
        return ops

    @staticmethod
    def _op(command, docs, args, expected, exit_code=0, known_defect=None):
        """`expected`: the payload fields an op must print, or a function giving them."""
        params = {"command": command, "docs": docs, "args": [command, *args], "exit": exit_code}
        return Op("cli", params, {"expected": expected}, known_defect)

    def _poset_info(self, rng, covers):
        s = max(max(c) for c in covers)
        sp = relabel(spec(s, covers, [1] * s, 2, "hamming"), rng)
        sp["k"] = [rng.choice([1, 2]) for _ in sp["k"]]

        def expected():
            poset = Poset.from_covers(sp["s"], [tuple(c) for c in sp["covers"]])
            return {
                "s": sp["s"], "covers": sp["covers"], "is_chain": poset.is_chain,
                "is_antichain": poset.is_antichain, "num_ideals": len(poset.ideal_masks()),
                "aut_order": len(poset.automorphisms()),
                "labeled_aut_order": len(poset.labeled_automorphisms(Labeling(tuple(sp["k"])))),
            }

        docs = {"poset.json": {"s": sp["s"], "covers": sp["covers"]}, "labeling.json": {"k": sp["k"]}}
        return self._op("poset-info", docs, ["--poset", "poset.json", "--labeling", "labeling.json"],
                        expected)

    def _vector(self, rng, sp):
        return [rng.randrange(sp["m"]) for _ in range(sum(sp["k"]))]

    def _weigh(self, rng, key):
        sp = SPACES[key]
        coords = self._vector(rng, sp)

        def expected():
            ctx = build_context(sp)
            u = ctx.vector(coords)
            ideal = ctx.poset.ideal_of(u.support())
            ref = self.reference(sp)
            return {
                "weight": int(ref.weights[ref.rank(coords)]), "support": sorted(u.support()),
                "ideal": sorted(ideal), "maximals": sorted(ctx.poset.maximal_elements(ideal)),
            }

        docs = {**space_docs(sp), "v.json": {"coords": coords}}
        return self._op("weigh", docs, [*SPACE_ARGS, "--vector", "v.json"], expected)

    def _distance(self, rng, key):
        sp = SPACES[key]
        a, b = self._vector(rng, sp), self._vector(rng, sp)

        def expected():
            ref = self.reference(sp)
            return {"distance": int(ref.distances_from(ref.rank(a))[ref.rank(b)])}

        docs = {**space_docs(sp), "u.json": {"coords": a}, "v.json": {"coords": b}}
        return self._op("distance", docs, [*SPACE_ARGS, "--vector", "u.json", "--vector2", "v.json"],
                        expected)

    def _ball(self, rng, key, radius, listed):
        sp = SPACES[key]
        center = self._vector(rng, sp)

        def expected():
            ref = self.reference(sp)
            members = (ref.distances_from(ref.rank(center)) <= radius).nonzero()[0]
            fields = {"radius": radius, "size": len(members)}
            if listed:
                fields["vectors"] = [[int(c) for c in ref.digits[r]] for r in members]
            return fields

        docs = {**space_docs(sp), "c.json": {"coords": center}}
        args = [*SPACE_ARGS, "--center", "c.json", "--radius", str(radius)]
        return self._op("ball", docs, args + (["--list"] if listed else []), expected)

    def _code_report(self, rng, key, size, generator):
        sp = SPACES[key]
        if generator:
            doc = {"generator": [self._vector(rng, sp) for _ in range(size)]}
        else:
            ranks = rng.sample(range(sp["m"] ** sum(sp["k"])), size)
            doc = {"codewords": [coords_of(sp, r) for r in ranks]}

        def expected():
            ctx = build_context(sp)
            if generator:
                code = codes.Code.from_generator(ctx, doc["generator"])
            else:
                code = codes.Code.from_words(ctx, doc["codewords"])
            rep = codes.analyze(code)
            return {
                "K": rep.size, "d_w": rep.min_distance, "d_H": rep.hamming_min_distance,
                "lambda": rep.ideal_size, "mu": rep.ideal_dimension, "bound": rep.singleton_bound,
                "is_mds": rep.is_mds, "packing_radius": rep.packing_radius,
                "is_perfect": rep.is_perfect, "linear": code.linear,
            }

        docs = {**space_docs(sp), "code.json": doc}
        return self._op("code-report", docs, [*SPACE_ARGS, "--code", "code.json"], expected)

    def _perfect_generate(self, rng):
        sp = SPACES["chain3-m3"]
        expected = {"t": 1, "radius": 1, "K": 9, "is_r_perfect": True}
        generate = rng.choice(["identity", "zero", "random"])
        args = [*SPACE_ARGS, "--generate", generate, "--t", "1", "--seed", str(rng.randrange(1 << 30))]
        op = self._op("perfect-construct", space_docs(sp), args, expected)
        op.slot = f"perfect-construct --generate {generate}"
        return op

    def _perfect_map(self, rng):
        sp = SPACES["chain2-k21-m3"]
        table = [{"tail": [tail], "head": [rng.randrange(3), rng.randrange(3)]} for tail in range(3)]
        words = sorted(e["head"] + e["tail"] for e in table)
        expected = {"t": 1, "radius": 1, "K": 3, "is_r_perfect": True, "codewords": words}
        docs = {**space_docs(sp), "map.json": {"t": 1, "map": table}}
        return self._op("perfect-construct", docs, [*SPACE_ARGS, "--map", "map.json", "--list"],
                        expected)

    @staticmethod
    def _monomial(rng, m, s):
        """T = U . lift(phi) on an antichain with unit blocks: returns (T, phi, U)."""
        phi = list(range(1, s + 1))
        rng.shuffle(phi)
        diag = [[rng.randrange(1, m) if r == c else 0 for c in range(s)] for r in range(s)]
        rows = [[0] * s for _ in range(s)]
        for c in range(s):
            rows[phi[c] - 1][c] = diag[phi[c] - 1][phi[c] - 1]
        return rows, phi, diag

    @staticmethod
    def _unitriangular(rng, m, s):
        """An upper-triangular matrix with nonzero diagonal: a chain isometry."""
        return [[rng.randrange(1, m) if r == c else rng.randrange(m) if r < c else 0
                 for c in range(s)] for r in range(s)]

    def _isometry_check(self, rng, isometric):
        if isometric:
            sp = SPACES["anti3-m3"]
            rows, phi, _ = self._monomial(rng, 3, 3)
            expected = {"is_isometry": True, "in_triangular_group": phi == [1, 2, 3]}
        else:
            sp = SPACES["chain3-m3"]
            rows = self._unitriangular(rng, 3, 3)
            for r in range(3):
                rows[r][1] = 0  # a zero column: not invertible
            expected = {"is_isometry": False, "in_triangular_group": False}
        docs = {**space_docs(sp), "t.json": {"rows": rows}}
        return self._op("isometry-check", docs, [*SPACE_ARGS, "--matrix", "t.json"], expected)

    def _group(self, rng, label, listed):
        sp = relabel(next(s for lab, s, _, _ in ISO_FAMILY if lab == label), rng)
        gl, u, aut = GOLDEN_ORDERS[label]
        expected = {"gl_order": gl, "u_order": u, "aut_order": aut,
                    "product_matches": True, "all_decomposed": True}
        args = SPACE_ARGS + (["--list"] if listed else [])
        op = self._op("isometry-group", space_docs(sp), args, expected)
        op.slot = " ".join(["isometry-group", label, *args[len(SPACE_ARGS):]])
        return op

    def _decompose_antichain(self, rng):
        rows, phi, diag = self._monomial(rng, 5, 3)
        expected = {"phi": phi, "s_part": diag, "recomposition_exact": True}
        docs = {**space_docs(SPACES["anti3-m5"]), "t.json": {"rows": rows}}
        return self._op("decompose", docs, [*SPACE_ARGS, "--matrix", "t.json"], expected)

    def _decompose_chain(self, rng):
        rows = self._unitriangular(rng, 3, 3)
        expected = {"phi": [1, 2, 3], "s_part": rows, "recomposition_exact": True}
        docs = {**space_docs(SPACES["chain3-m3"]), "t.json": {"rows": rows}}
        return self._op("decompose", docs, [*SPACE_ARGS, "--matrix", "t.json"], expected)

    def _validate(self, rng):
        sp = relabel(SPACES["N-m3"], rng)
        docs = {**space_docs(sp), "labeling.json": {"k": [1, 0, 1, 1]}}
        expected = {"diagnostics": 1}
        return self._op("validate", docs, SPACE_ARGS, expected)

    def _error_op(self, command, docs, args, exit_code, code, known_defect=None):
        return self._op(command, docs, args, {"code": code}, exit_code, known_defect)

    # -- running ---------------------------------------------------------------

    def run(self, op):
        op_dir = op.inputs["dir"]
        args = op.params["args"]
        with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
            spawn = time.perf_counter()
            if self.tracer is None:
                cmd = [sys.executable, "-m", "posetblock", *args]
            else:
                cmd = [sys.executable, str(HERE / "cli_child.py"), repr(spawn),
                       str(op_dir / "trace.json"), *args]
            proc = subprocess.Popen(cmd, cwd=op_dir, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss

    def summarize(self, op, raw):
        status, maxrss_kb = raw
        self.max_child_rss_kb = max(self.max_child_rss_kb, maxrss_kb)
        op_dir = op.inputs["dir"]
        if self.tracer is not None and (op_dir / "trace.json").exists():
            record = json.loads((op_dir / "trace.json").read_text(encoding="utf-8"))
            self.tracer.absorb(record)
            self.cache[0] += record["cache"][0]
            self.cache[1] += record["cache"][1]
            self.missing.update(record["missing"])
        stdout = (op_dir / "stdout.txt").read_text(encoding="utf-8")
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = None
        one_object = isinstance(payload, dict) and stdout.endswith("\n") and stdout.count("\n") == 1
        out = {"exit": status, "stdout": payload if one_object else stdout}
        if not one_object:
            stderr = (op_dir / "stderr.txt").read_text(encoding="utf-8").strip().splitlines()
            out["stderr_tail"] = stderr[-1] if stderr else ""
        return out

    def check(self, op, out):
        params, expected = op.params, op.inputs["expected"]
        if callable(expected):
            expected = expected()
        payload = out["stdout"]
        expect(
            isinstance(payload, dict),
            f"{params['command']} broke the CLI contract: stdout is not one JSON object "
            f"(exit {out['exit']}, stderr: {out.get('stderr_tail', '')!r})",
        )
        expect(out["exit"] == params["exit"],
               f"{params['command']} exited {out['exit']}, expected {params['exit']}: {payload}")
        if params["exit"] != 0:
            expect(payload.get("code") == expected["code"],
                   f"{params['command']} error payload {payload} lacks code {expected['code']}")
            return
        expect(payload.get("command") == params["command"] and "inputs_digest" in payload,
               f"{params['command']} report lacks command/inputs_digest: {payload}")
        if params["command"] == "validate":
            diags = payload["diagnostics"]
            expect(len(diags) == 1 and diags[0]["code"] == "validation"
                   and diags[0]["message"].startswith("labeling"),
                   f"validate diagnostics {diags}")
            return
        if params["command"] == "isometry-group" and "--list" in params["args"]:
            expect(len(payload.get("elements", ())) == expected["gl_order"],
                   f"isometry-group --list gives {len(payload.get('elements', ()))} elements")
        got = {key: payload.get(key) for key in expected}
        expect(got == expected, f"{params['command']} gave {got}, expected {expected}")

    def oracle(self, done, rng):
        """An exhaustive group search for one isometry-group op of the run."""
        groups = [op for op, _ in done if op.params["command"] == "isometry-group"]
        if not groups:
            return []
        from posetblock import isometry

        op = rng.choice(groups)
        docs = op.params["docs"]
        sp = {**docs["poset.json"], "k": docs["labeling.json"]["k"], "m": docs["alphabet.json"]["m"],
              "weight": docs["weight.json"]["builtin"]}
        found = len(isometry.enumerate_isometry_group(build_context(sp), exhaustive=True))
        expect(found == op.inputs["expected"]["gl_order"],
               f"exhaustive search finds {found} isometries for {sp}")
        return [f"oracle exhaustive isometry-group on {sp}: {found} isometries"]

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0

