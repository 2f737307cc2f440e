"""Command-line front end: JSON documents in, one JSON report out.

Only the handlers that need them import the numpy layers `codes` and `isometry`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import jsonio
from .errors import BudgetError, ParseError, PosetBlockError, ValidationError
from .space import DEFAULT_MATRIX_BUDGET, DEFAULT_VECTOR_BUDGET, SpaceContext, ball


class _Parser(argparse.ArgumentParser):
    """Usage errors raise `ParseError`, so they get the one JSON report too."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posetblock",
        description="Analyze codes and isometry groups of weighted poset block spaces.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--poset", help="poset JSON file {s, covers}")
    common.add_argument("--labeling", help="labeling JSON file {k}")
    common.add_argument("--alphabet", help="alphabet JSON file {m}")
    common.add_argument("--weight", help="weight JSON file {builtin} or {table}")
    common.add_argument("--budget", type=int, default=DEFAULT_VECTOR_BUDGET,
                        help="max vectors enumerated (default 2^20)")
    common.add_argument("--matrix-budget", type=int, default=DEFAULT_MATRIX_BUDGET,
                        dest="matrix_budget", help="max candidate column images the isometry "
                        "search tests, also for diagonal blocks; with --exhaustive, max m^(n^2) "
                        "matrices (default 2^24)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized fixtures")
    common.add_argument("--pretty", action="store_true", help="indent the JSON report")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("poset-info", parents=[common])
    p = sub.add_parser("weigh", parents=[common])
    p.add_argument("--vector", required=True)
    p = sub.add_parser("distance", parents=[common])
    p.add_argument("--vector", required=True)
    p.add_argument("--vector2", required=True)
    p = sub.add_parser("ball", parents=[common])
    p.add_argument("--center", dest="vector", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--list", dest="list_elements", action="store_true")
    p = sub.add_parser("code-report", parents=[common])
    p.add_argument("--code", required=True)
    p = sub.add_parser("perfect-construct", parents=[common])
    p.add_argument("--t", type=int)
    p.add_argument("--map", help="function table JSON file {t, map}")
    p.add_argument("--generate", choices=("identity", "zero", "random"))
    p.add_argument("--list", dest="list_elements", action="store_true")
    p = sub.add_parser("isometry-check", parents=[common])
    p.add_argument("--matrix", required=True)
    p = sub.add_parser("isometry-group", parents=[common])
    p.add_argument("--list", dest="list_elements", action="store_true")
    p.add_argument("--exhaustive", action="store_true")
    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--matrix", required=True)
    p = sub.add_parser("validate", parents=[common])
    for flag in ("--vector", "--vector2", "--code", "--matrix", "--map"):
        p.add_argument(flag)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed command line; `raw_documents` collects each loaded file's text by role."""
    config = build_parser().parse_args(argv)
    config.raw_documents = {}
    return config


def _load(config: argparse.Namespace, role: str, path: str | None) -> dict | None:
    if path is None:
        return None
    doc, raw = jsonio.read_document(path)
    config.raw_documents[role] = raw
    return doc


def _inputs_digest(config: argparse.Namespace) -> str:
    blob = "\x00".join(
        f"{role}\x1f{raw}" for role, raw in sorted(config.raw_documents.items())
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _require(config: argparse.Namespace, *roles: str) -> None:
    missing = [r for r in roles if getattr(config, r) is None]
    if missing:
        raise ValidationError(f"command '{config.command}' needs --{', --'.join(missing)}")


def _context(config: argparse.Namespace) -> SpaceContext:
    _require(config, "poset", "labeling", "alphabet", "weight")
    poset = jsonio.poset_from_doc(_load(config, "poset", config.poset))
    labeling = jsonio.labeling_from_doc(_load(config, "labeling", config.labeling))
    alphabet = jsonio.alphabet_from_doc(_load(config, "alphabet", config.alphabet))
    weight = jsonio.weight_from_doc(_load(config, "weight", config.weight), alphabet)
    return SpaceContext(poset, labeling, alphabet, weight)


def run(config: argparse.Namespace) -> int:
    """Execute one command and print the JSON report; returns the exit status."""
    try:
        payload = _dispatch(config)
    except BudgetError as exc:
        _emit({"code": "budget", "message": str(exc), "witness": None}, config.pretty)
        return 2
    except PosetBlockError as exc:
        _emit(_error_payload(exc), config.pretty)
        return 1
    report = {"command": config.command, "inputs_digest": _inputs_digest(config)}
    report.update(payload)
    _emit(report, config.pretty)
    return 0


def _error_payload(exc: PosetBlockError) -> dict:
    code = "parse" if isinstance(exc, ParseError) else "validation"
    witness = list(getattr(exc, "witness", ())) or None
    return {"code": code, "message": str(exc), "witness": witness}


def _emit(payload: dict, pretty: bool = False) -> None:
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _dispatch(config: argparse.Namespace) -> dict:
    for flag, value in (("--budget", config.budget), ("--matrix-budget", config.matrix_budget)):
        if value < 0:
            raise ValidationError(f"{flag} must be nonnegative, got {value}")
    handler = {
        "poset-info": _cmd_poset_info,
        "weigh": _cmd_weigh,
        "distance": _cmd_distance,
        "ball": _cmd_ball,
        "code-report": _cmd_code_report,
        "perfect-construct": _cmd_perfect_construct,
        "isometry-check": _cmd_isometry_check,
        "isometry-group": _cmd_isometry_group,
        "decompose": _cmd_decompose,
        "validate": _cmd_validate,
    }[config.command]
    return handler(config)


def _cmd_poset_info(config: argparse.Namespace) -> dict:
    _require(config, "poset")
    poset = jsonio.poset_from_doc(_load(config, "poset", config.poset))
    payload = {
        "s": poset.s,
        "covers": [list(c) for c in poset.covers()],
        "is_chain": poset.is_chain,
        "is_antichain": poset.is_antichain,
        "num_ideals": len(poset.ideal_masks()),
        "aut_order": len(poset.automorphisms()),
    }
    if config.labeling is not None:
        labeling = jsonio.labeling_from_doc(_load(config, "labeling", config.labeling))
        payload["labeled_aut_order"] = len(poset.labeled_automorphisms(labeling))
    return payload


def _cmd_weigh(config: argparse.Namespace) -> dict:
    ctx = _context(config)
    u = jsonio.vector_from_doc(_load(config, "vector", config.vector), ctx)
    support = u.support()
    ideal = ctx.poset.ideal_of(support)
    return {
        "weight": u.weight(),
        "support": sorted(support),
        "ideal": sorted(ideal),
        "maximals": sorted(ctx.poset.maximal_elements(ideal)),
    }


def _cmd_distance(config: argparse.Namespace) -> dict:
    ctx = _context(config)
    u = jsonio.vector_from_doc(_load(config, "vector", config.vector), ctx)
    v = jsonio.vector_from_doc(_load(config, "vector2", config.vector2), ctx)
    return {"distance": u.distance(v)}


def _cmd_ball(config: argparse.Namespace) -> dict:
    ctx = _context(config)
    center = jsonio.vector_from_doc(_load(config, "vector", config.vector), ctx)
    members = ball(center, config.radius, budget=config.budget)
    payload = {"radius": config.radius, "size": len(members)}
    if config.list_elements:
        payload["vectors"] = [list(v.coords) for v in members]
    return payload


def _cmd_code_report(config: argparse.Namespace) -> dict:
    from . import codes
    ctx = _context(config)
    _require(config, "code")
    code = jsonio.code_from_doc(_load(config, "code", config.code), ctx, config.budget)
    report = codes.analyze(code, budget=config.budget)
    return {
        "K": report.size,
        "d_w": report.min_distance,
        "d_H": report.hamming_min_distance,
        "lambda": report.ideal_size,
        "mu": report.ideal_dimension,
        "bound": report.singleton_bound,
        "is_mds": report.is_mds,
        "packing_radius": report.packing_radius,
        "is_perfect": report.is_perfect,
        "linear": code.linear,
    }


def _cmd_perfect_construct(config: argparse.Namespace) -> dict:
    from . import codes
    from .tables import check_vector_budget
    ctx = _context(config)
    if config.map is not None:
        t, table = jsonio.tail_map_from_doc(_load(config, "map", config.map))
    elif config.generate is not None:
        if config.t is None:
            raise ValidationError("--generate needs --t")
        t = config.t
        # the checks the construction and `is_r_perfect` make, before a map is built
        codes.tail_length(ctx, t)
        codes.require_natural_chain(ctx)
        check_vector_budget(ctx, config.budget)
        if config.generate == "identity":
            table = codes.identity_tail_map(ctx, t)
        elif config.generate == "zero":
            table = codes.zero_tail_map(ctx, t)
        else:
            table = codes.random_tail_map(ctx, t, random.Random(config.seed))
    else:
        raise ValidationError("perfect-construct needs --map or --generate")
    code = codes.perfect_code_from_function(ctx, t, table)
    radius = t * ctx.max_weight
    payload = {
        "t": t,
        "radius": radius,
        "K": code.size,
        "is_r_perfect": codes.is_r_perfect(code, radius, budget=config.budget),
    }
    if config.list_elements:
        payload["codewords"] = code.digits.tolist()
    return payload


def _cmd_isometry_check(config: argparse.Namespace) -> dict:
    from . import isometry
    ctx = _context(config)
    _require(config, "matrix")
    T = jsonio.matrix_from_doc(_load(config, "matrix", config.matrix), ctx)
    return {
        "is_isometry": isometry.is_isometry(T, budget=config.budget),
        "in_triangular_group": isometry.in_triangular_group(T),
    }


def _cmd_isometry_group(config: argparse.Namespace) -> dict:
    from . import isometry
    ctx = _context(config)
    report = isometry.verify_semidirect(
        ctx,
        budget=config.budget,
        matrix_budget=config.matrix_budget,
        exhaustive=config.exhaustive,
    )
    payload = {
        "gl_order": report.gl_order,
        "u_order": report.u_order,
        "aut_order": report.aut_order,
        "product_matches": report.product_matches,
        "all_decomposed": report.all_decomposed,
    }
    if config.list_elements:
        payload["elements"] = report.matrices.tolist()
    return payload


def _cmd_decompose(config: argparse.Namespace) -> dict:
    from . import isometry
    ctx = _context(config)
    _require(config, "matrix")
    T = jsonio.matrix_from_doc(_load(config, "matrix", config.matrix), ctx)
    dec = isometry.decompose(T, budget=config.budget)
    return {
        "phi": list(dec.automorphism.image),
        "s_part": [list(row) for row in dec.triangular.rows],
        "recomposition_exact": True,
    }


def _cmd_validate(config: argparse.Namespace) -> dict:
    diagnostics: list[dict] = []

    def note(code: str, message: str) -> None:
        diagnostics.append({"code": code, "message": message})

    def attempt(role: str, loader):
        path = getattr(config, role, None)
        if path is None:
            return None
        try:
            return loader(_load(config, role, path))
        except PosetBlockError as exc:
            note("parse" if isinstance(exc, ParseError) else "validation", f"{role}: {exc}")
            return None

    poset = attempt("poset", jsonio.poset_from_doc)
    labeling = attempt("labeling", jsonio.labeling_from_doc)
    alphabet = attempt("alphabet", jsonio.alphabet_from_doc)
    weight = None
    if alphabet is not None:
        weight = attempt("weight", lambda doc: jsonio.weight_from_doc(doc, alphabet))
    elif config.weight is not None:
        note("validation", "weight: cannot validate without an alphabet")

    if poset is not None and labeling is not None and labeling.s != poset.s:
        note("validation", f"labeling has {labeling.s} blocks, poset has {poset.s}")
    ctx = None
    if poset is not None and labeling is not None and alphabet is not None and weight is not None:
        try:
            ctx = SpaceContext(poset, labeling, alphabet, weight)
        except PosetBlockError as exc:
            note("validation", str(exc))
    if ctx is not None:
        for role in ("vector", "vector2"):
            attempt(role, lambda doc: jsonio.vector_from_doc(doc, ctx))
        attempt("code", lambda doc: jsonio.code_from_doc(doc, ctx, config.budget))
        attempt("matrix", lambda doc: jsonio.matrix_from_doc(doc, ctx))
        if config.map is not None:
            from . import codes
            try:
                t, table = jsonio.tail_map_from_doc(_load(config, "map", config.map))
                codes.perfect_code_from_function(ctx, t, table)
            except PosetBlockError as exc:
                note("validation", f"map: {exc}")
    return {"diagnostics": diagnostics}


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
    except ParseError as exc:
        _emit(_error_payload(exc))
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
