"""One traced `posetblock` CLI command, run as the child of a traced cli-mix op.

Usage: python3 cli_child.py SPAWN_TIME RECORD_FILE CLI_ARGS...

SPAWN_TIME is the parent's `time.perf_counter()` just before it started this
process (CLOCK_MONOTONIC on Linux, shared by both processes).  The command
writes stdout, stderr and its exit status exactly as `python -m posetblock`
does; spans, counters and weight-cache statistics go to RECORD_FILE.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (this directory is sys.path[0])


def main() -> None:
    spawn, record_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.add_span("process.interpreter", spawn, START)
    import_start = time.perf_counter()
    from posetblock import cli

    tracer.add_span("process.import", import_start, time.perf_counter())
    tracing.install(tracer)
    try:
        status = cli.main(argv)
    finally:
        hits, misses = tracing.weight_cache_info()
        record = {
            "spans": [span[:4] for span in tracer.spans],
            "counts": dict(tracer.counts),
            "cache": [hits, misses],
            "missing": tracer.missing,
        }
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
