"""JSON file formats and conversions for the command-line front end.

Polynomial entries are strings in the text grammar; loci and divisors are
plain JSON objects.  The cyclotomic order of a session is raised automatically
to the least common multiple of every unit-root denominator encountered.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Mapping

from .bsloci import HyperplaneLocus
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


def ring_from_json(obj: Any, override_order: int | None = None) -> Ring:
    if not isinstance(obj, Mapping):
        raise InputError("ring descriptor must be an object")
    nvars = _json_int(obj.get("nvars"), "nvars")
    laurent = obj.get("laurent", True)
    if not isinstance(laurent, bool):
        raise InputError(f"laurent must be true or false, got {laurent!r}")
    order = _json_int(obj.get("cyclotomic_order", 1), "cyclotomic_order")
    try:
        ring = Ring(nvars, laurent, order)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if override_order is None:
        return ring
    if override_order < 1:
        raise InputError(f"forced cyclotomic order must be positive, got {override_order}")
    return ring.with_order(override_order)


def _parse_entry(text: Any, ring: Ring) -> LaurentPoly:
    if not isinstance(text, str):
        raise InputError(f"polynomial entries must be strings, got {text!r}")
    try:
        return parse_poly(text, ring)
    except ParseError as exc:
        raise InputError(f"cannot parse polynomial {text!r}: {exc}") from None


def complex_from_json(obj: Any, override_order: int | None = None) -> FreeComplex:
    if not isinstance(obj, Mapping):
        raise InputError("complex file must contain an object")
    ring = ring_from_json(obj.get("ring"), override_order)
    degrees = obj.get("degrees")
    if not isinstance(degrees, list) or len(degrees) != 2:
        raise InputError("degrees must be a pair [imin, imax]")
    imin, imax = (_json_int(x, "degrees") for x in degrees)
    ranks_obj = obj.get("ranks", {})
    if not isinstance(ranks_obj, Mapping):
        raise InputError("ranks must map degree strings to ranks")
    try:
        ranks = {int(k): _json_int(v, "rank") for k, v in ranks_obj.items()}
    except ValueError as exc:
        raise InputError(f"bad rank table: {exc}") from None
    diffs_obj = obj.get("differentials", {})
    if not isinstance(diffs_obj, Mapping):
        raise InputError("differentials must map degree strings to matrices")
    diffs: dict[int, list[list[LaurentPoly]]] = {}
    for key, mat in diffs_obj.items():
        try:
            degree = int(key)
        except ValueError:
            raise InputError(f"bad differential degree {key!r}") from None
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise InputError(f"differential {key} must be a matrix of strings")
        diffs[degree] = [[_parse_entry(entry, ring) for entry in row] for row in mat]
    try:
        return FreeComplex.make(ring, (imin, imax), ranks, diffs)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def matrix_from_json(
    obj: Any, override_order: int | None = None
) -> tuple[Matrix, Ring]:
    if not isinstance(obj, Mapping):
        raise InputError("matrix file must contain an object")
    ring = ring_from_json(obj.get("ring"), override_order)
    rows = obj.get("rows")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("rows must be a matrix of strings")
    width = {len(row) for row in rows}
    if len(width) > 1:
        raise InputError("matrix rows have inconsistent lengths")
    parsed = [[_parse_entry(entry, ring) for entry in row] for row in rows]
    # raise the ring to cover every parsed entry's field and lift the entries to it
    ring = ring.with_order(math.lcm(*(p.order for row in parsed for p in row)))
    order = ring.cyclotomic_order
    return matrix_make([[p.lift(order) for p in row] for row in parsed]), ring


def hyperplane_from_string(text: str, r: int) -> AffineHyperplane:
    """Read a degree-one polynomial like "3*s1+3*s2+4" as a hyperplane."""
    try:
        poly = parse_poly(text, Ring(r, False, 1))
    except ParseError as exc:
        raise InputError(f"cannot parse hyperplane {text!r}: {exc}") from None
    c = [0] * r
    c0 = 0
    for exps, coeff in poly.terms.items():
        if not coeff.is_rational() or coeff.rational_value().denominator != 1:
            raise InputError(f"hyperplane {text!r} needs integer coefficients")
        value = int(coeff.rational_value())
        degree = sum(exps)
        if degree == 0:
            c0 = value
        elif degree == 1:
            c[exps.index(1)] = value
        else:
            raise InputError(f"hyperplane {text!r} is not linear")
    try:
        return AffineHyperplane(tuple(c), c0)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def hyperplane_from_json(obj: Any, r: int | None = None) -> tuple[AffineHyperplane, int]:
    if isinstance(obj, str):
        if r is None:
            raise InputError("string hyperplanes need the ambient dimension")
        return hyperplane_from_string(obj, r), 1
    if not isinstance(obj, Mapping):
        raise InputError("hyperplane must be an object with c and c0")
    c = obj.get("c")
    if not isinstance(c, list):
        raise InputError(f"hyperplane normal c must be an integer list, got {c!r}")
    c = tuple(_json_int(x, "c") for x in c)
    c0 = _json_int(obj.get("c0"), "c0")
    mult = _json_int(obj.get("mult", 1), "mult")
    try:
        return AffineHyperplane(c, c0), mult
    except ValueError as exc:
        raise InputError(str(exc)) from None


def locus_from_json(obj: Any) -> HyperplaneLocus:
    if not isinstance(obj, Mapping):
        raise InputError("locus file must contain an object")
    r = _json_int(obj.get("r"), "r")
    hyperplanes = []
    for h_obj in obj.get("hyperplanes", []):
        h, mult = hyperplane_from_json(h_obj, r)
        hyperplanes.append((h, mult))
    pieces = []
    for p_obj in obj.get("pieces", []):
        if not isinstance(p_obj, Mapping) or "hyperplanes" not in p_obj:
            raise InputError("each piece needs a hyperplanes list")
        pieces.append([hyperplane_from_json(h, r)[0] for h in p_obj["hyperplanes"]])
    try:
        return HyperplaneLocus.make(r, hyperplanes, pieces)
    except ValueError as exc:
        raise InputError(str(exc)) from None


# ---------------------------------------------------------------------------
# Serialization


def hyperplane_to_json(h: AffineHyperplane, mult: int | None = None) -> dict:
    out: dict[str, Any] = {"c": list(h.c), "c0": h.c0}
    if mult is not None:
        out["mult"] = mult
    return out


def locus_to_json(locus: HyperplaneLocus) -> dict:
    return {
        "r": locus.r,
        "hyperplanes": [hyperplane_to_json(h, m) for h, m in locus.hyperplanes],
        "pieces": [
            {"hyperplanes": [hyperplane_to_json(h) for h in piece]}
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
