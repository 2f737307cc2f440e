"""The posetblock benchmark: one closed-loop client, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: code-analytics, isometry-group, cli-mix (see workloads.py and
climix.py for what each stresses and why).  The run imports `posetblock`
from `src/` beside this directory, draws its inputs from the seed, times
whole decks of ops until S seconds have passed and at least MIN_OPS ops are
done (so at least ten latencies lie beyond p90), checks every output after
the timed phase, and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same decks
twice, first untraced and then with spans recorded from outside the library
(tracing.py), each for S/2 seconds; it reports the per-layer metrics and the
tracing overhead, and requires both halves to give the same output digest.

Exit status: 0 after a result with every check passed, 1 after a result with
a failed check, 2 without a result when the sources are missing.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread for BLAS/OpenMP pools, in this process and every child it starts;
# numpy is imported after this point.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
NAMES = ("code-analytics", "isometry-group", "cli-mix")
MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_SAMPLES = (8, 7)  # fresh processes timed for setup_s, before and after the phase
PHASE_LIMIT_S = 110.0  # a phase stops starting decks after this, whatever MIN_OPS says


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name: str, seed: int, workdir: Path):
    """Import the library and draw the first deck: the user's set-up cost."""
    import workloads

    wl = workloads.make(name, seed)
    wl.deck(0, workdir / "setup")
    return wl


def setup_samples(args, count: int) -> list[float]:
    """Set-up time of `count` fresh processes, from script start to first deck ready."""
    samples = []
    for _ in range(count):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def execute(wl, op, tracer):
    """Run an op once: (seconds, summarized output, error text or None)."""
    if tracer is not None:
        root = tracer.begin("bench.op")
    t0 = time.perf_counter()
    try:
        raw, error = wl.run(op), None
    except Exception as exc:  # the op failed; record it and keep the client running
        raw, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(root)
        tracer.last_op_span = root
    if error is None:
        try:
            return seconds, wl.summarize(op, raw), None
        except Exception as exc:  # output unreadable, e.g. not JSON
            error = f"{type(exc).__name__}: {exc}"
    return seconds, {"error": error}, error


def run_phase(wl, seconds: float, min_ops: int, decks, phase_dir: Path, tracer=None) -> dict:
    """Run whole decks until `seconds` and `min_ops` are reached (or `decks` decks).

    Every deck starts from cleared library caches, and each op runs once.
    An op's latency is the fastest op of its slot during the phase (`raw`
    keeps each op's own time).  Ops of a slot do the same work from the
    same cache state, whatever contents the seed drew (README: Same work in
    a slot), so the slower ones of a slot carry interference from other
    tenants of the machine, not the program: on a 2-vCPU VM the median of a
    fixed loop swings by up to 35% between 2-second windows while its
    minimum stays within 6%.  Outputs are checked afterwards, by
    `check_phase`.
    """
    raw, outputs, errors, deck_digests, op_list = [], [], [], [], []
    begin = time.perf_counter()
    index = 0
    while True:
        ops = wl.deck(index, phase_dir)
        wl.reset()
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(raw)
            wl.prepare(op)
            seconds_taken, out, error = execute(wl, op, tracer)
            raw.append(seconds_taken)
            outputs.append((op, out))
            errors.append(error)
            op_list.append(op.params)
        deck_digests.append(digest_of([out for _, out in outputs[-len(ops):]]))
        index += 1
        elapsed = time.perf_counter() - begin
        if decks is not None:
            if index >= decks:
                break
        elif (elapsed >= seconds and len(raw) >= min_ops) or elapsed >= PHASE_LIMIT_S:
            break
    fastest: dict[str, float] = {}
    for (op, _), t in zip(outputs, raw):
        fastest[op.slot] = min(t, fastest.get(op.slot, t))
    return {
        "latencies": [fastest[op.slot] for op, _ in outputs], "raw": raw,
        "outputs": outputs, "errors": errors, "deck_digests": deck_digests,
        "op_list": digest_of(op_list), "decks": index,
    }


def check_phase(wl, phase: dict) -> None:
    """Check every output of a phase; sort the failures into known and unexpected."""
    failures, known = [], []
    for (op, out), error in zip(phase["outputs"], phase["errors"]):
        if error is None:
            try:
                wl.check(op, out)
            except Exception as exc:  # a wrong output or a contract break
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            (known if op.known_defect else failures).append((op, error))
    phase["failures"], phase["known"] = failures, known


def digest_of(items) -> str:
    import workloads  # importable once main() has put src/ on sys.path

    return workloads.digest_of(items)


def stamp() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "posetblock").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def end_to_end(phase: dict, setup_s: list[float], peak_rss_mb: float) -> dict:
    lat = phase["latencies"]
    attempted = len(lat)
    failed = len(phase["failures"]) + len(phase["known"])
    return {
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000.0 * statistics.quantiles(lat, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def report_failures(phase: dict) -> None:
    for op, error in phase["failures"]:
        print(f"FAILED {op.kind} {json.dumps(op.params)[:300]}\n  {error}", file=sys.stderr)


def plain_run(args, wl, workdir: Path, in_process_setup: float, rng, decks):
    """--trace 0: one measured phase; returns (metrics, phases, oracle notes).

    Set-up is timed in fresh processes before and after the phase, so that
    its median spans the whole run.
    """
    samples = setup_samples(args, SETUP_SAMPLES[0])
    phase = run_phase(wl, args.seconds, MIN_OPS, decks, workdir / "run")
    child_rss = wl.peak_rss_mb()
    rss = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples += setup_samples(args, SETUP_SAMPLES[1])
    check_phase(wl, phase)
    notes = run_oracle(wl, phase, rng)
    metrics = end_to_end(phase, samples, rss)
    lat, own = phase["latencies"], phase["raw"]
    beyond = sum(1 for x in lat if 1000.0 * x >= metrics["op_p90_ms"][0])
    detail = {
        "ops_per_s": f"{len(lat)} ops in {phase['decks']} decks, {sum(own):.2f} s timed",
        "op_p50_ms": f"over each op's own time: {1000 * statistics.median(own):.4f}",
        "op_p90_ms": f"n={len(lat)}, {beyond} at or beyond"
                     + ("" if beyond >= 10 else " (fewer than 10: not valid)")
                     + f"; over each op's own time: "
                       f"{1000 * statistics.quantiles(own, n=10)[8]:.4f}",
        "setup_s": "median of " + ", ".join(f"{x:.4f}" for x in samples)
                   + f"; in-process {in_process_setup:.4f}",
        "peak_rss_mb": "largest CLI child" if child_rss else "benchmark process",
        "ok_ratio": f"fail_ratio {1 - metrics['ok_ratio'][0]:.4f}: "
                    f"{len(phase['known'])} known-defect, {len(phase['failures'])} unexpected",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:>12.4f} {unit:<5} {detail.get(name, '')}")
    return metrics, [phase], notes


def traced_run(args, wl, workdir: Path, rng, decks):
    """--trace 1: untraced then traced phase; returns (metrics, phases, oracle notes).

    The notes are None when an oracle check or the digest comparison failed.
    """
    import tracing

    plain = run_phase(wl, args.seconds / 2, 0, decks, workdir / "untraced")
    wl.reset()
    wl.cache = [0, 0]
    tracer = tracing.Tracer()
    if wl.in_process:
        tracing.install(tracer)
    wl.tracer = tracer
    try:
        traced = run_phase(wl, args.seconds / 2, 0, decks, workdir / "traced", tracer)
    finally:
        tracer.restore()
        wl.tracer = None
    wl.reset()
    tracer.missing.extend(sorted(wl.missing))
    check_phase(wl, plain)
    check_phase(wl, traced)
    common = min(plain["decks"], traced["decks"])
    same = plain["deck_digests"][:common] == traced["deck_digests"][:common]
    notes = run_oracle(wl, traced, rng)
    layer = tracing.per_layer_metrics(
        tracer, len(traced["latencies"]), wl.cache,
        len(plain["latencies"]) / sum(plain["latencies"]),
        len(traced["latencies"]) / sum(traced["latencies"]),
    )
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in layer.items()}
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(f"  traced digest {'==' if same else '!='} untraced digest over {common} decks; "
          f"{len(tracer.spans)} spans written")
    for name in tracer.missing:
        print(f"  WARNING: traced name {name} not found; its metrics read 0")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    if not same:
        print("traced digest differs from the untraced digest", file=sys.stderr)
        notes = None
    return metrics, [plain, traced], notes


def run_oracle(wl, phase, rng):
    """The seeded oracle pass over the ops that ran; None when it found a wrong output."""
    done = [(op, out) for op, out in phase["outputs"] if "error" not in out]
    try:
        return wl.oracle(done, rng)
    except Exception as exc:  # a disagreement with an oracle route
        print(f"ORACLE FAILED: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None


def main(argv=None, decks=None) -> int:
    """Run the benchmark; `decks` fixes the decks per phase (the self-tests use 1)."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "posetblock" / "__init__.py").is_file():
        print(f"perfbench: no posetblock sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.setup_probe:
        probe_dir = workdir / f"probe-{os.getpid()}"
        setup(args.workload, args.seed, probe_dir)
        print(time.perf_counter() - T_START)
        shutil.rmtree(probe_dir, ignore_errors=True)
        return 0

    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    wl = setup(args.workload, args.seed, workdir)
    in_process_setup = time.perf_counter() - t0
    info = stamp()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in info.items()))
    rng = random.Random(f"oracle:{args.workload}:{args.seed}")
    if args.trace:
        metrics, phases, notes = traced_run(args, wl, workdir, rng, decks)
    else:
        metrics, phases, notes = plain_run(args, wl, workdir, in_process_setup, rng, decks)

    for phase in phases:
        report_failures(phase)
    last = phases[-1]
    run_digest = digest_of(last["deck_digests"])
    print(f"  digest {run_digest} over {last['decks']} decks; op list {last['op_list']}")
    for line in notes or []:
        print(f"  check: {line}")
    result = {
        "correct": notes is not None and not any(p["failures"] for p in phases),
        "attempted": sum(len(p["latencies"]) for p in phases),
        "failed": sum(len(p["failures"]) + len(p["known"]) for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {**result, "stamp": info, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "digest": run_digest, "op_list": last["op_list"]}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
