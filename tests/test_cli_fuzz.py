"""Fuzzed CLI contract: any argv prints exactly one JSON object and exits 0, 1 or 2.

Each example draws one small space (s <= 3, m <= 3, n <= 3, inside the
default budgets, so no table is large), documents
that mostly fit it, and the inputs its command needs.  Any document may
instead be malformed, and flags may be dropped, added or given bad values,
to reach the parse and validation paths as well as the reports.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetblock import codes
from posetblock.cli import main

SPACE = ("--poset", "--labeling", "--alphabet", "--weight")
NEEDS = {
    "poset-info": ("--poset", "--labeling"),
    "weigh": SPACE + ("--vector",),
    "distance": SPACE + ("--vector", "--vector2"),
    "ball": SPACE + ("--center", "--radius"),
    "code-report": SPACE + ("--code",),
    "perfect-construct": SPACE + ("--generate", "--t"),
    "isometry-check": SPACE + ("--matrix",),
    "isometry-group": SPACE,
    "decompose": SPACE + ("--matrix",),
    "validate": SPACE + ("--vector", "--code", "--matrix", "--map"),
}
DOCUMENT_FLAGS = SPACE + ("--vector", "--vector2", "--center", "--code", "--matrix", "--map")
SWITCHES = ("--list", "--exhaustive", "--pretty", "--bogus")
JUNK = st.one_of(
    st.text(max_size=12),
    st.just("[1, 2]"),
    # small values only, so that no junk document sizes a large table
    st.builds(json.dumps, st.dictionaries(st.sampled_from("skmt"), st.integers(-1, 2), max_size=2)),
)


def _mistyped(doc):
    """The document with one field of the wrong type (never an integer, which could be large)."""
    return st.tuples(
        st.sampled_from(sorted(doc)), st.sampled_from(["x", None, 1.5, {}, ["x"], [[0, "x"]]])
    ).map(lambda item: {**doc, item[0]: item[1]})


@st.composite
def _space(draw):
    s = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, s + 1) for j in range(i + 1, s + 1)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    m = draw(st.integers(2, 3))
    # a 3-coordinate block over Z_3 has an 11,232-member isometry group, whose
    # search and factorization take tens of milliseconds
    k = draw(st.lists(st.integers(1, 3), min_size=s, max_size=s).filter(lambda k: sum(k) <= 3))
    weight = draw(st.one_of(
        st.sampled_from([{"builtin": "hamming"}, {"builtin": "lee"}]),
        st.just({"table": [0] + [2] * (m - 1)}),
    ))
    return s, covers, k, m, weight


def _coords(n, m):
    return st.lists(st.integers(0, m - 1), min_size=n, max_size=n)


def _documents(space):
    """Strategies for each flag's document, fitting this space."""
    s, covers, k, m, weight = space
    n = sum(k)
    return {
        "--poset": st.just({"s": s, "covers": [list(c) for c in covers]}),
        "--labeling": st.just({"k": k}),
        "--alphabet": st.just({"m": m}),
        "--weight": st.just(weight),
        "--vector": st.builds(lambda c: {"coords": c}, _coords(n, m)),
        "--vector2": st.builds(lambda c: {"coords": c}, _coords(n, m)),
        "--center": st.builds(lambda c: {"coords": c}, _coords(n, m)),
        "--code": st.one_of(
            st.fixed_dictionaries(
                {"codewords": st.lists(_coords(n, m), max_size=4)},
                optional={"linear": st.booleans()},
            ),
            st.fixed_dictionaries({"generator": st.lists(_coords(n, m), max_size=2)}),
        ),
        "--matrix": st.builds(lambda r: {"rows": r}, st.lists(_coords(n, m), min_size=n, max_size=n)),
        "--map": st.fixed_dictionaries({
            "t": st.integers(0, s),
            "map": st.lists(
                st.fixed_dictionaries({"tail": _coords(1, m), "head": _coords(n - 1, m)}),
                max_size=3,
            ),
        }),
    }


VALUES = {
    "--radius": st.integers(0, 8).map(str),
    "--t": st.integers(0, 3).map(str),
    "--generate": st.sampled_from(["identity", "zero", "random"]),
    "--budget": st.integers(0, 1 << 20).map(str),
    "--matrix-budget": st.integers(0, 1 << 16).map(str),
    "--seed": st.integers(0, 9).map(str),
}
BAD_VALUES = {
    "--radius": st.integers(-2, -1).map(str),
    "--t": st.sampled_from(["-1", "9", "x"]),
    "--generate": st.just("other"),
    "--budget": st.sampled_from(["-1", "abc"]),
    "--matrix-budget": st.sampled_from(["-1", "1.5"]),
    "--seed": st.just(""),
}
OPTIONS = {
    "ball": ("--list",),
    "perfect-construct": ("--list",),
    "isometry-group": ("--list", "--exhaustive"),
}


@st.composite
def invocations(draw):
    """(argv with document names in place of paths, {document name: text}).

    About half the examples fit their space and command; the others break one
    thing: drop a needed flag, add any flag, give a bad value or a
    malformed document.
    """
    command = draw(st.sampled_from(sorted(NEEDS)))
    documents = _documents(draw(_space()))
    flags = list(NEEDS[command])
    flags += draw(st.lists(st.sampled_from(("--budget", "--matrix-budget", "--seed")), max_size=1))
    switches = draw(st.lists(st.sampled_from(OPTIONS.get(command, ()) + ("--pretty",)), unique=True))
    values, junk = dict(VALUES), None
    fault = draw(st.sampled_from(("none", "none", "none", "drop", "add", "value", "document")))
    if fault == "drop":
        flags.remove(draw(st.sampled_from(flags)))
    elif fault == "add":
        flags.append(draw(st.sampled_from(DOCUMENT_FLAGS + tuple(VALUES) + SWITCHES)))
    elif fault == "value":
        flag = draw(st.sampled_from(sorted(BAD_VALUES)))
        flags.append(flag)
        values[flag] = BAD_VALUES[flag]
    elif fault == "document":
        junk = draw(st.sampled_from([f for f in flags if f in documents]))
    argv, files = [command], {}
    for flag in dict.fromkeys(flags):
        if flag in SWITCHES:
            argv.append(flag)
        elif flag in values:
            argv += [flag, draw(values[flag])]
        else:
            name = flag.lstrip("-") + ".json"
            doc = documents[flag].map(json.dumps)
            if flag == junk:
                doc = st.one_of(documents[flag].flatmap(_mistyped).map(json.dumps), JUNK)
            files[name] = draw(doc)
            argv += [flag, name]
    return argv + switches, files


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_any_invocation_prints_one_json_object(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        argv = [str(root / a) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 1, 2)
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())  # one object: a second would not parse
    assert isinstance(payload, dict) and out.getvalue().endswith("\n")
    if status == 0:
        assert payload["command"] == argv[0]
    else:
        assert payload["code"] in ({"budget"} if status == 2 else {"parse", "validation"})


@pytest.mark.parametrize("value", [2**63 - 1, 2**64])
def test_oversized_weight_value_is_a_validation_error(tmp_path, value):
    documents = {
        "poset": {"s": 2, "covers": [[1, 2]]},
        "labeling": {"k": [1, 1]},
        "alphabet": {"m": 3},
        "weight": {"table": [0, value, value]},
        "code": {"codewords": [[0, 0], [1, 1]]},
    }
    argv = ["code-report"]
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status == 1 and err.getvalue() == ""
    payload = json.loads(out.getvalue())  # one object: a second would not parse
    assert payload["code"] == "validation"


@pytest.mark.parametrize(
    "poset, t, status, message",
    [
        ({"s": 40, "covers": [[i, i + 1] for i in range(1, 40)]}, 0, 2,
         "space has 1099511627776 vectors, budget 1000"),
        ({"s": 40, "covers": [[i, i + 1] for i in range(1, 40)]}, 41, 1, "block count t=41 outside 0..40"),
        ({"s": 40, "covers": []}, 0, 1, "operation requires the chain 1 < 2 < .. < s"),
    ],
)
@pytest.mark.parametrize("generate", ["identity", "zero", "random"])
def test_generated_perfect_code_checked_before_the_map_is_built(
    monkeypatch, tmp_path, poset, t, status, message, generate
):
    def unbuilt(*args):
        raise AssertionError("tail map built")

    for name in ("identity_tail_map", "zero_tail_map", "random_tail_map"):
        monkeypatch.setattr(codes, name, unbuilt)
    documents = {
        "poset": poset,
        "labeling": {"k": [1] * 40},
        "alphabet": {"m": 2},
        "weight": {"builtin": "hamming"},
    }
    argv = ["perfect-construct", "--generate", generate, "--t", str(t), "--budget", "1000"]
    for name, doc in documents.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == status
    assert err.getvalue() == ""
    assert json.loads(out.getvalue())["message"] == message
