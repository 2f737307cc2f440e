"""The library names that the benchmark's tracer wraps stay where it looks for them."""

import importlib.util
from pathlib import Path

from posetblock import codes, isometry, tables

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_wrapped_name_but_the_one_removed():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert codes.weight_table is not tables.weight_table
    finally:
        tracer.restore()
    # two_smallest_code_distances left the library when the d1/d2 scan moved
    # to the test oracles; every other wrapped name must still be found
    assert tracer.missing == ["posetblock.codes.two_smallest_code_distances"]
    assert codes.weight_table is tables.weight_table
    assert isometry.digit_table is tables.digit_table
