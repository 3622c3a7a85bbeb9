"""Batch table generation and fixture comparison.

The shipped fixtures transcribe the published tables this package
reproduces: totally negative discriminant classes with conductors for
Q(sqrt 5) and Q(sqrt 10) up to norm 500, and the unit-discriminant sets of
six quadratic fields.  Acceptance compares computed rows against fixtures
on the verified columns only (norm, discriminant class, conductor ideal);
the H column for quadratic base fields is display-only.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import isqrt

from ._record import Record, slot_setters
from .classes import minkowski_bound
from .discriminants import (
    DiscriminantInfo,
    _class_reps,
    discriminant_classes,
    is_unit_discriminant,
    same_class_mod_squares,
    same_class_mod_unit_squares,
)
from .field import Elem, QuadField
from .hurwitz import hurwitz_class_number
from .ideals import Ideal, ideal_from_generators, ideals_of_norm

__all__ = [
    "TableRow",
    "table_rows",
    "unit_discriminants",
    "load_fixture",
    "fixture_row_multiset_matches",
    "fixture_unit_discs_match",
    "validate_record",
]


class TableRow(Record):
    """One table row: |N(delta)|, delta, f_delta, rel_disc and the display
    extras, a fresh empty dict by default.  An immutable record
    (relquad._record), equal by its fields; its dict makes it unhashable."""

    __slots__ = ("norm", "delta", "f_delta", "rel_disc", "extras")

    def __init__(self, norm: int, delta: Elem, f_delta: Ideal, rel_disc: Ideal, extras: dict | None = None):
        _set_norm(self, norm)
        _set_delta(self, delta)
        _set_f_delta(self, f_delta)
        _set_rel_disc(self, rel_disc)
        _set_extras(self, {} if extras is None else extras)

    def to_record(self) -> dict:
        rec = {
            "norm": self.norm,
            "delta": str(self.delta),
            "f_delta": str(self.f_delta),
            "f_delta_pretty": self.f_delta.pretty(),
            "rel_disc": str(self.rel_disc),
            "extras": {k: str(v) for k, v in self.extras.items()},
        }
        return rec


_set_norm, _set_delta, _set_f_delta, _set_rel_disc, _set_extras = slot_setters(TableRow)


def table_rows(K: QuadField, bound: int, sign: str = "totally_negative") -> list[TableRow]:
    """Discriminant-class table rows sorted by (norm, coordinates)."""
    rows = []
    for info in discriminant_classes(K, bound, sign=sign):
        extras = {"unit_discriminant": info.rel_disc.is_unit_ideal()}
        if K.degree == 1:
            delta_int = info.delta.X
            if delta_int < 0:
                extras["H"] = hurwitz_class_number(delta_int)
        rows.append(
            TableRow(
                norm=abs(int(info.delta.norm())),
                delta=info.delta,
                f_delta=info.f_delta,
                rel_disc=info.rel_disc,
                extras=extras,
            )
        )
    # table deltas are integral, so (X, Y) orders them as (x, y) would
    rows.sort(key=lambda r: (r.norm, r.delta.X, r.delta.Y))
    return rows


def unit_discriminants(K: QuadField) -> tuple[list[DiscriminantInfo], int]:
    """All discriminant classes modulo squares in K with (delta) = f^2,
    together with the proven search window |N(delta)| <= minkowski^2.

    Window soundness: if (delta) = f^2 then scaling by gamma^2 with
    (gamma) = f/c, c the smallest ideal in the class of f, lands a class
    representative with (delta') = c^2, so N(delta') <= minkowski^2.  Such
    a (delta) is J^2 with N(J) <= isqrt(window), so only the classes of
    those squares are built."""
    window = minkowski_bound(K) ** 2
    squares = (J * J for k in range(1, isqrt(window) + 1) for J in ideals_of_norm(K, k))
    found: list[DiscriminantInfo] = []
    for info in _class_reps(K, squares, negative=False):
        if not is_unit_discriminant(info):
            continue
        if any(same_class_mod_squares(info.delta, other.delta) for other in found):
            continue
        found.append(info)
    return found, window


# -- fixtures -----------------------------------------------------------------


def load_fixture(name: str) -> dict:
    # imported here: a table request reads no fixture
    from importlib import resources

    with resources.files("relquad.fixtures").joinpath(name).open() as f:
        return json.load(f)


def _fixture_delta(K: QuadField, coords) -> Elem:
    a, b = coords
    return K.elem(a, b)


def _fixture_ideal(K: QuadField, gens) -> Ideal:
    return ideal_from_generators(K, [K.elem(a, b) for a, b in gens])


def fixture_row_multiset_matches(K: QuadField, rows: list[TableRow], fixture: dict):
    """Exact multiset comparison: a bijection between computed rows and
    fixture rows matching norm, discriminant class (modulo unit squares),
    and conductor ideal.  Returns the list of unmatched descriptions."""
    fix = [
        (
            r["norm"],
            _fixture_delta(K, r["delta"]),
            _fixture_ideal(K, r["f_gens"]),
        )
        for r in fixture["rows"]
    ]
    problems = []
    if len(fix) != len(rows):
        problems.append(f"row count {len(rows)} != fixture {len(fix)}")
    by_norm: dict[int, list] = {}
    for fr in fix:
        by_norm.setdefault(fr[0], []).append(fr)
    used: set[int] = set()
    for row in rows:
        cands = by_norm.get(row.norm, [])
        hit = None
        for i, (nm, delta, f_ideal) in enumerate(cands):
            if id(cands[i]) in used:
                continue
            if f_ideal == row.f_delta and same_class_mod_unit_squares(delta, row.delta):
                hit = i
                break
        if hit is None:
            problems.append(f"no fixture row for norm {row.norm}, delta {row.delta}")
        else:
            used.add(id(cands[hit]))
    return problems


def fixture_unit_discs_match(K: QuadField, infos: list[DiscriminantInfo], fixture_row: dict):
    """Bijection modulo squares in K between computed unit-discriminant
    classes and the fixture list."""
    fix = [_fixture_delta(K, coords) for coords in fixture_row["discs"]]
    problems = []
    if len(fix) != len(infos):
        problems.append(f"class count {len(infos)} != fixture {len(fix)}")
    matched = [False] * len(fix)
    for info in infos:
        hit = None
        for i, delta in enumerate(fix):
            if not matched[i] and same_class_mod_squares(info.delta, delta):
                hit = i
                break
        if hit is None:
            problems.append(f"unexpected unit discriminant class {info.delta}")
        else:
            matched[hit] = True
    for i, ok in enumerate(matched):
        if not ok:
            problems.append(f"fixture class {fix[i]} not found")
    return problems


# -- record validation -----------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


@lru_cache(maxsize=1)
def _schema_defs() -> dict:
    """The "$defs" of the shipped schema.json, parsed once per process and
    only read: validate_record walks it and never changes it."""
    return load_fixture("schema.json")["$defs"]


def validate_record(record, schema_name: str) -> list[str]:
    """Validate a JSON record against the shipped schema (a small subset of
    JSON Schema: type, required, properties, items)."""
    schema = _schema_defs()[schema_name]
    problems: list[str] = []

    def walk(obj, sch, path):
        typ = sch.get("type")
        # a JSON boolean is no integer or number, though Python's bool is an int
        if typ and (not isinstance(obj, _TYPES[typ]) or isinstance(obj, bool) and typ != "boolean"):
            problems.append(f"{path}: expected {typ}, got {type(obj).__name__}")
            return
        if typ == "object":
            for key in sch.get("required", []):
                if key not in obj:
                    problems.append(f"{path}: missing required key {key!r}")
            for key, sub in sch.get("properties", {}).items():
                if key in obj:
                    walk(obj[key], sub, f"{path}.{key}")
        if typ == "array" and "items" in sch:
            for i, item in enumerate(obj):
                walk(item, sch["items"], f"{path}[{i}]")

    walk(record, schema, "$")
    return problems
