"""JSON file formats and conversions for the command-line front end.

Polynomial entries are strings in the text grammar; loci and divisors are
plain JSON objects.  The cyclotomic order of a session is raised automatically
to the least common multiple of every unit-root denominator encountered.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from typing import Any

from .bsloci import HyperplaneLocus, _check_member, _piece_make
from .complexes import FreeComplex, Matrix, matrix_make
from .poly import LaurentPoly, ParseError, Ring, format_poly, parse_poly
from .torus import AffineHyperplane, PrimeTorusDivisor


class InputError(ValueError):
    """Malformed input file or inconsistent input data."""


def load_json_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _json_int(value: Any, what: str) -> int:
    """A JSON integer; a bool, a float or a string is an input error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value: Any, what: str) -> list:
    """A JSON array; an object, whose iteration would yield its keys, is an input error."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be an array, got {value!r}")
    return value


def _degree_key(key: str, what: str) -> int:
    """A degree key in canonical decimal, so that no two spellings name one degree."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise InputError(f"bad {what} degree {key!r}")


def ring_from_json(obj: Any) -> Ring:
    if not isinstance(obj, Mapping):
        raise InputError("ring descriptor must be an object")
    nvars = _json_int(obj.get("nvars"), "nvars")
    laurent = obj.get("laurent", True)
    if not isinstance(laurent, bool):
        raise InputError(f"laurent must be true or false, got {laurent!r}")
    order = _json_int(obj.get("cyclotomic_order", 1), "cyclotomic_order")
    try:
        return Ring(nvars, laurent, order)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _parse_entries(rows: list, ring: Ring, parsed: dict[str, LaurentPoly]) -> None:
    """Parse the entry texts of rows, in row-major order, into `parsed`, which
    maps each text of one input to its polynomial: a repeated text is parsed
    once, and the first malformed entry is the one named."""
    for row in rows:
        for text in row:
            if not isinstance(text, str):
                raise InputError(f"polynomial entries must be strings, got {text!r}")
            if text not in parsed:
                try:
                    parsed[text] = parse_poly(text, ring)
                except ParseError as exc:
                    raise InputError(f"cannot parse polynomial {text!r}: {exc}") from None


def _lifted(parsed: dict[str, LaurentPoly], ring: Ring) -> tuple[dict[str, LaurentPoly], Ring]:
    """The ring raised to the field of every parsed entry, and each entry lifted
    to it once, so equal entries share one (immutable) LaurentPoly."""
    ring = ring.with_order(math.lcm(*(p.order for p in parsed.values())))
    return {text: p.lift(ring.cyclotomic_order) for text, p in parsed.items()}, ring


def complex_from_json(obj: Any) -> FreeComplex:
    """A complex file.  Each distinct entry text is parsed once, and equal
    entries share one LaurentPoly object."""
    if not isinstance(obj, Mapping):
        raise InputError("complex file must contain an object")
    ring = ring_from_json(obj.get("ring"))
    degrees = obj.get("degrees")
    if not isinstance(degrees, list) or len(degrees) != 2:
        raise InputError("degrees must be a pair [imin, imax]")
    imin, imax = (_json_int(x, "degrees") for x in degrees)
    ranks_obj = obj.get("ranks", {})
    if not isinstance(ranks_obj, Mapping):
        raise InputError("ranks must map degree strings to ranks")
    ranks = {_degree_key(k, "rank"): _json_int(v, "rank") for k, v in ranks_obj.items()}
    diffs_obj = obj.get("differentials", {})
    if not isinstance(diffs_obj, Mapping):
        raise InputError("differentials must map degree strings to matrices")
    texts, parsed = {}, {}
    for key, mat in diffs_obj.items():
        degree = _degree_key(key, "differential")
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise InputError(f"differential {key} must be a matrix of strings")
        _parse_entries(mat, ring, parsed)
        texts[degree] = mat
    lifted, ring = _lifted(parsed, ring)
    diffs = {i: [[lifted[text] for text in row] for row in mat] for i, mat in texts.items()}
    try:
        return FreeComplex.make(ring, (imin, imax), ranks, diffs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def matrix_from_json(obj: Any) -> tuple[Matrix, Ring]:
    """A matrix file and its ring, raised to the field of every entry.  Each
    distinct entry text is parsed once, and equal entries share one
    LaurentPoly object."""
    if not isinstance(obj, Mapping):
        raise InputError("matrix file must contain an object")
    ring = ring_from_json(obj.get("ring"))
    rows = obj.get("rows")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("rows must be a matrix of strings")
    width = {len(row) for row in rows}
    if len(width) > 1:
        raise InputError("matrix rows have inconsistent lengths")
    parsed: dict[str, LaurentPoly] = {}
    _parse_entries(rows, ring, parsed)
    lifted, ring = _lifted(parsed, ring)
    return matrix_make([[lifted[text] for text in row] for row in rows]), ring


def _hyperplane(obj: Any) -> tuple[AffineHyperplane, int]:
    """A hyperplane object as (hyperplane, multiplicity).  JSON integers with
    a natural nonzero c make a trusted tuple at once; anything else meets the
    checks field by field, which name its first fault."""
    if type(obj) is dict:
        c, c0, mult = obj.get("c"), obj.get("c0"), obj.get("mult", 1)
        if type(c) is list and type(c0) is int is type(mult) and {*map(type, c)} == {int}:
            if min(c) >= 0 < max(c):
                return tuple.__new__(AffineHyperplane, (tuple(c), c0)), mult
    if not isinstance(obj, Mapping):
        raise InputError("hyperplane must be an object with c and c0")
    c = tuple(_json_int(x, "c") for x in _json_list(obj.get("c"), "hyperplane normal c"))
    c0 = _json_int(obj.get("c0"), "c0")
    mult = _json_int(obj.get("mult", 1), "mult")
    try:
        return AffineHyperplane(c, c0), mult
    except ValueError as exc:
        raise InputError(str(exc)) from None


def locus_from_json(obj: Any) -> HyperplaneLocus:
    """A locus file, checked in one pass and built without a second check.
    Faults are named in the order of the checks: the JSON of every member
    (listed, then in pieces), each listed member's dimension and
    multiplicity, then each piece."""
    if not isinstance(obj, Mapping):
        raise InputError("locus file must contain an object")
    r = _json_int(obj.get("r"), "r")
    if r < 1:
        raise InputError("r must be a positive integer")
    orders: dict[AffineHyperplane, int] = {}
    misfit = None  # the first member of another dimension or multiplicity < 1
    for item in _json_list(obj.get("hyperplanes", []), "hyperplanes"):
        h, mult = _hyperplane(item)
        if (len(h[0]) != r or mult < 1) and misfit is None:
            misfit = h, mult
        orders[h] = orders.get(h, 0) + mult
    pieces = []
    for p_obj in _json_list(obj.get("pieces", []), "pieces"):
        if not isinstance(p_obj, Mapping) or "hyperplanes" not in p_obj:
            raise InputError("each piece needs a hyperplanes list")
        members = _json_list(p_obj["hyperplanes"], "piece hyperplanes")
        pieces.append([_hyperplane(h)[0] for h in members])
    try:
        if misfit is not None:
            _check_member(*misfit, r)
        return HyperplaneLocus.from_checked(r, orders, {_piece_make(p, r) for p in pieces})
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# Serialization


def locus_to_json(locus: HyperplaneLocus) -> dict:
    """The locus file of a locus, each member's fields unpacked in one pass."""
    return {
        "r": locus.r,
        "hyperplanes": [{"c": list(c), "c0": c0, "mult": m} for (c, c0), m in locus.hyperplanes],
        "pieces": [
            {"hyperplanes": [{"c": list(c), "c0": c0} for c, c0 in piece]}
            for piece in locus.pieces
        ],
    }


def divisor_to_json(d: PrimeTorusDivisor, mult: int | None = None) -> dict:
    out: dict[str, Any] = {"u": list(d.u), "xi": str(d.xi)}
    if mult is not None:
        out["mult"] = mult
    return out


def fraction_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def matrix_to_json(mat: Matrix, laurent: bool = False) -> list[list[str]]:
    return [[format_poly(entry, laurent) for entry in row] for row in mat]
