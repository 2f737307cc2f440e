"""Loaders for the JSON document formats used by the CLI; only codes and matrices need numpy."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .algebra import Alphabet, WeightFunction, custom_weight, hamming_weight, lee_weight
from .errors import BudgetError, ParseError, ValidationError
from .poset import Labeling, Poset
from .space import BlockVector, SpaceContext

if TYPE_CHECKING:
    from .codes import Code
    from .isometry import BlockMatrix


def read_document(path: str | Path) -> tuple[dict, str]:
    """Parse a JSON object file; returns (document, raw text)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return doc, raw


def _int_field(doc: dict, key: str, where: str) -> int:
    if key not in doc:
        raise ParseError(f"{where} document misses key '{key}'")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where} key '{key}' must be an integer")
    return value


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ParseError(f"{where} must be a list of integers")
    return list(value)


def _int_rows(value, where: str) -> list[list[int]]:
    if not isinstance(value, list):
        raise ParseError(f"{where}s must be a list of integer lists")
    return [_int_list(row, where) for row in value]


def poset_from_doc(doc: dict) -> Poset:
    s = _int_field(doc, "s", "poset")
    covers = doc.get("covers", [])
    if not isinstance(covers, list):
        raise ParseError("poset key 'covers' must be a list of pairs")
    pairs = []
    for entry in covers:
        pair = _int_list(entry, "poset cover")
        if len(pair) != 2:
            raise ParseError(f"poset cover {entry} must be a pair")
        pairs.append((pair[0], pair[1]))
    return Poset.from_covers(s, pairs)


def labeling_from_doc(doc: dict) -> Labeling:
    if "k" not in doc:
        raise ParseError("labeling document misses key 'k'")
    return Labeling(tuple(_int_list(doc["k"], "labeling 'k'")))


def alphabet_from_doc(doc: dict) -> Alphabet:
    return Alphabet(_int_field(doc, "m", "alphabet"))


def weight_from_doc(doc: dict, alphabet: Alphabet, budget: int) -> WeightFunction:
    """The weight over Z_m; an m above `budget` raises before any table is built."""
    if alphabet.m > budget:
        raise BudgetError(f"alphabet has {alphabet.m} elements, budget {budget}")
    if "builtin" in doc:
        name = doc["builtin"]
        if name == "hamming":
            return hamming_weight(alphabet)
        if name == "lee":
            return lee_weight(alphabet)
        raise ParseError(f"unknown builtin weight '{name}'")
    if "table" in doc:
        return custom_weight(alphabet, _int_list(doc["table"], "weight 'table'"))
    raise ParseError("weight document needs 'builtin' or 'table'")


def vector_from_doc(doc: dict, ctx: SpaceContext) -> BlockVector:
    if "coords" not in doc:
        raise ParseError("vector document misses key 'coords'")
    return ctx.vector(_int_list(doc["coords"], "vector 'coords'"))


def code_from_doc(doc: dict, ctx: SpaceContext, budget: int) -> Code:
    from .codes import Code
    if "generator" in doc:
        rows = _int_rows(doc["generator"], "generator row")
        return Code.from_generator(ctx, rows, budget=budget)
    if "codewords" in doc:
        words = _int_rows(doc["codewords"], "codeword")
        linear = doc.get("linear", False)
        if not isinstance(linear, bool):
            raise ParseError("code key 'linear' must be true or false")
        return Code.from_words(ctx, words, linear=linear)
    raise ParseError("code document needs 'codewords' or 'generator'")


def matrix_from_doc(doc: dict, ctx: SpaceContext) -> BlockMatrix:
    from .isometry import BlockMatrix
    if "rows" not in doc or not isinstance(doc["rows"], list):
        raise ParseError("matrix document misses key 'rows'")
    rows = [_int_list(r, "matrix row") for r in doc["rows"]]
    return BlockMatrix.from_rows(ctx, rows)


def tail_map_from_doc(doc: dict) -> tuple[int, dict[tuple[int, ...], tuple[int, ...]]]:
    t = _int_field(doc, "t", "function table")
    if "map" not in doc or not isinstance(doc["map"], list):
        raise ParseError("function table misses key 'map'")
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    for entry in doc["map"]:
        if not isinstance(entry, dict) or "tail" not in entry or "head" not in entry:
            raise ParseError(f"function table entry {entry} needs 'tail' and 'head'")
        tail = tuple(_int_list(entry["tail"], "function table 'tail'"))
        head = tuple(_int_list(entry["head"], "function table 'head'"))
        if tail in table:
            raise ValidationError(f"function table repeats tail {list(tail)}")
        table[tail] = head
    return t, table
