import json

import pytest

from posetblock.cli import main

BUNDLE = {
    "poset.json": {"s": 2, "covers": [[1, 2]]},
    "labeling.json": {"k": [1, 1]},
    "alphabet.json": {"m": 2},
    "weight.json": {"builtin": "hamming"},
    "code.json": {"codewords": [[0, 0], [1, 1]]},
    "matrix.json": {"rows": [[1, 1], [0, 1]]},
    "vector.json": {"coords": [0, 1]},
    "vector2.json": {"coords": [1, 0]},
    "zero.json": {"coords": [0, 0]},
    "map.json": {"t": 1, "map": [{"tail": [0], "head": [0]}, {"tail": [1], "head": [1]}]},
}


@pytest.fixture
def bundle(tmp_path):
    for name, doc in BUNDLE.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    return tmp_path


def invoke(capsys, bundle, command, *extra):
    args = [
        command,
        "--poset", str(bundle / "poset.json"),
        "--labeling", str(bundle / "labeling.json"),
        "--alphabet", str(bundle / "alphabet.json"),
        "--weight", str(bundle / "weight.json"),
        *extra,
    ]
    status = main(args)
    out = capsys.readouterr().out
    return status, out


def test_poset_info(capsys, bundle):
    status = main(["poset-info", "--poset", str(bundle / "poset.json")])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["command"] == "poset-info"
    assert payload["s"] == 2 and payload["is_chain"] and not payload["is_antichain"]
    assert payload["num_ideals"] == 3 and payload["aut_order"] == 1
    assert "inputs_digest" in payload


def test_weigh_zero(capsys, bundle):
    status, out = invoke(capsys, bundle, "weigh", "--vector", str(bundle / "zero.json"))
    payload = json.loads(out)
    assert status == 0 and payload["weight"] == 0
    assert payload["support"] == [] and payload["ideal"] == []


def test_weigh_top_coordinate(capsys, bundle):
    status, out = invoke(capsys, bundle, "weigh", "--vector", str(bundle / "vector.json"))
    payload = json.loads(out)
    assert payload["weight"] == 2
    assert payload["support"] == [2] and payload["ideal"] == [1, 2] and payload["maximals"] == [2]


def test_distance(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "distance",
        "--vector", str(bundle / "vector.json"),
        "--vector2", str(bundle / "vector2.json"),
    )
    assert json.loads(out)["distance"] == 2


def test_ball_listing(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "ball",
        "--center", str(bundle / "zero.json"), "--radius", "1", "--list",
    )
    payload = json.loads(out)
    assert payload["size"] == 2
    assert payload["vectors"] == [[0, 0], [1, 0]]


def test_code_report_payload(capsys, bundle):
    status, out = invoke(capsys, bundle, "code-report", "--code", str(bundle / "code.json"))
    payload = json.loads(out)
    assert status == 0
    expected = {
        "K": 2, "d_w": 2, "lambda": 1, "mu": 1, "bound": 2,
        "is_mds": True, "packing_radius": 1, "is_perfect": True,
    }
    for key, value in expected.items():
        assert payload[key] == value
    assert payload["d_H"] == 2


def test_perfect_construct_from_map(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "perfect-construct", "--map", str(bundle / "map.json"), "--list",
    )
    payload = json.loads(out)
    assert payload["is_r_perfect"] and payload["K"] == 2
    assert payload["codewords"] == [[0, 0], [1, 1]]


def test_perfect_construct_generated(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "perfect-construct", "--t", "1", "--generate", "random", "--seed", "4",
    )
    payload = json.loads(out)
    assert status == 0 and payload["is_r_perfect"]


def test_isometry_check(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "isometry-check", "--matrix", str(bundle / "matrix.json"),
    )
    payload = json.loads(out)
    assert payload["is_isometry"] and payload["in_triangular_group"]


def test_isometry_group_payload(capsys, bundle):
    status, out = invoke(capsys, bundle, "isometry-group", "--list")
    payload = json.loads(out)
    assert payload["gl_order"] == 2 and payload["u_order"] == 2 and payload["aut_order"] == 1
    assert payload["product_matches"] and payload["all_decomposed"]
    assert payload["elements"] == [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]


def test_isometry_group_exhaustive_flag_agrees(capsys, bundle):
    _, pruned = invoke(capsys, bundle, "isometry-group", "--list")
    _, exhaustive = invoke(capsys, bundle, "isometry-group", "--list", "--exhaustive")
    assert json.loads(pruned)["elements"] == json.loads(exhaustive)["elements"]


def test_isometry_group_antichain_orders(capsys, tmp_path):
    docs = {
        "poset.json": {"s": 2, "covers": []},
        "labeling.json": {"k": [1, 1]},
        "alphabet.json": {"m": 3},
        "weight.json": {"builtin": "hamming"},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    status = main([
        "isometry-group",
        "--poset", str(tmp_path / "poset.json"),
        "--labeling", str(tmp_path / "labeling.json"),
        "--alphabet", str(tmp_path / "alphabet.json"),
        "--weight", str(tmp_path / "weight.json"),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["gl_order"] == 8 and payload["u_order"] == 4
    assert payload["aut_order"] == 2 and payload["product_matches"]


def test_decompose_payload(capsys, bundle):
    status, out = invoke(capsys, bundle, "decompose", "--matrix", str(bundle / "matrix.json"))
    payload = json.loads(out)
    assert payload["phi"] == [1, 2]
    assert payload["s_part"] == [[1, 1], [0, 1]]
    assert payload["recomposition_exact"]


def test_validate_clean_bundle(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "validate",
        "--vector", str(bundle / "vector.json"),
        "--code", str(bundle / "code.json"),
        "--matrix", str(bundle / "matrix.json"),
        "--map", str(bundle / "map.json"),
    )
    assert status == 0
    assert json.loads(out)["diagnostics"] == []


def test_validate_reports_size_mismatch(capsys, bundle, tmp_path):
    (tmp_path / "bad_labeling.json").write_text(json.dumps({"k": [1, 1, 1]}), encoding="utf-8")
    status = main([
        "validate",
        "--poset", str(bundle / "poset.json"),
        "--labeling", str(tmp_path / "bad_labeling.json"),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert any("3 blocks" in d["message"] for d in payload["diagnostics"])


def test_validate_reports_weight_mismatch(capsys, bundle, tmp_path):
    (tmp_path / "bad_weight.json").write_text(json.dumps({"table": [0, 1, 1, 1]}), encoding="utf-8")
    status = main([
        "validate",
        "--alphabet", str(bundle / "alphabet.json"),
        "--weight", str(tmp_path / "bad_weight.json"),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert any("weight" in d["message"] for d in payload["diagnostics"])


def test_axiom_violation_reports_witness(capsys, bundle, tmp_path):
    (tmp_path / "alpha3.json").write_text(json.dumps({"m": 3}), encoding="utf-8")
    (tmp_path / "bad_weight.json").write_text(json.dumps({"table": [0, 1, 2]}), encoding="utf-8")
    status = main([
        "weigh",
        "--poset", str(bundle / "poset.json"),
        "--labeling", str(bundle / "labeling.json"),
        "--alphabet", str(tmp_path / "alpha3.json"),
        "--weight", str(tmp_path / "bad_weight.json"),
        "--vector", str(bundle / "zero.json"),
    ])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["code"] == "validation"
    assert payload["witness"] == [1]


def test_missing_file_is_parse_error(capsys, bundle):
    status = main(["poset-info", "--poset", str(bundle / "missing.json")])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1 and payload["code"] == "parse"


def test_empty_poset_is_validation_error(capsys, tmp_path):
    (tmp_path / "poset.json").write_text(json.dumps({"s": 0}), encoding="utf-8")
    status = main(["poset-info", "--poset", str(tmp_path / "poset.json")])
    out = capsys.readouterr().out
    assert status == 1 and out.count("\n") == 1
    assert json.loads(out)["code"] == "validation"


def test_negative_radius_is_validation_error(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "ball", "--center", str(bundle / "zero.json"), "--radius", "-1"
    )
    assert status == 1 and out.count("\n") == 1
    payload = json.loads(out)
    assert payload["code"] == "validation"
    assert payload["message"] == "radius must be nonnegative"


def test_budget_exit_code(capsys, bundle):
    status, out = invoke(
        capsys, bundle, "ball",
        "--center", str(bundle / "zero.json"), "--radius", "1", "--budget", "2",
    )
    payload = json.loads(out)
    assert status == 2 and payload["code"] == "budget"


def test_reports_are_deterministic(capsys, bundle):
    first = invoke(capsys, bundle, "code-report", "--code", str(bundle / "code.json"))
    second = invoke(capsys, bundle, "code-report", "--code", str(bundle / "code.json"))
    assert first == second


def test_pretty_output_parses(capsys, bundle):
    status, out = invoke(capsys, bundle, "poset-info", "--pretty")
    assert status == 0
    assert "\n" in out.strip()
    assert json.loads(out)["s"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["weigh"],
        ["weigh", "--vector", "v.json", "--budget", "abc"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_error_is_parse_error(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1 and captured.out.count("\n") == 1 and captured.err == ""
    assert json.loads(captured.out)["code"] == "parse"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: posetblock")


@pytest.mark.parametrize(
    "command,flag",
    [("weigh", "--budget"), ("isometry-group", "--budget"), ("isometry-group", "--matrix-budget")],
)
def test_negative_budget_is_validation_error(capsys, bundle, command, flag):
    extra = ["--vector", str(bundle / "vector.json")] if command == "weigh" else []
    status, out = invoke(capsys, bundle, command, *extra, flag, "-1")
    assert status == 1 and out.count("\n") == 1
    payload = json.loads(out)
    assert payload["code"] == "validation"
    assert payload["message"] == f"{flag} must be nonnegative, got -1"


@pytest.mark.parametrize(
    "doc", [{"codewords": 5}, {"codewords": None}, {"generator": 5}, {"generator": "x"}]
)
def test_code_document_that_is_not_a_list_is_parse_error(capsys, bundle, tmp_path, doc):
    (tmp_path / "bad_code.json").write_text(json.dumps(doc), encoding="utf-8")
    status, out = invoke(capsys, bundle, "code-report", "--code", str(tmp_path / "bad_code.json"))
    assert status == 1 and out.count("\n") == 1
    assert json.loads(out)["code"] == "parse"
