"""Command-line front end: JSON in, canonical JSON out.

Exit codes: 0 on success, 1 when a requested check fails (a false containment
or a failing fixture), 2 on malformed input, 4 when an internal invariant
check fails (an ArithmeticError, reported as one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from .bsloci import (
    combine_bm,
    containment_check,
    exp_divisors,
    oblique_part,
    polar_candidate_filter,
    propagate_polar,
    slope_set,
    specialize_slice,
)
from .complexes import cdf_ideal, jump_ideal
from .io import (
    InputError,
    complex_from_json,
    divisor_to_json,
    fraction_to_str,
    load_json_file,
    locus_from_json,
    locus_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .poly import format_poly
from .smith import determinantal_factors, smith_normal_form
from .support import candidate_divisors, specialization_multiplicity, support_report
from .torus import AffineHyperplane

MAX_COMPONENTS = 8


def _int_list(text: str) -> list[int]:
    """Items spelled -?[0-9]+ in ASCII, and no other spelling that int() reads."""
    items = text.split(",")
    if all(x.isascii() and x.removeprefix("-").isdigit() for x in items):
        return [int(x) for x in items]
    raise InputError(f"expected a comma-separated integer list, got {text!r}")


# the options read by `_int_list`; argparse takes a value such as -1,2 for an
# option, so `_glued` joins it to its option as --b=-1,2
LIST_OPTIONS = ("--b", "--c", "--m", "--pi")


def _glued(argv: list[str]) -> list[str]:
    """argv with each list option joined to a next argument that starts with
    a minus and a digit, so that the value reaches `_int_list`."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in LIST_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _load_locus(path: str):
    return locus_from_json(load_json_file(path))


def _ideal_payload(ideal) -> dict:
    return {
        "ring": {
            "nvars": ideal.ring.nvars,
            "laurent": ideal.ring.laurent,
            "cyclotomic_order": ideal.ring.cyclotomic_order,
        },
        "generators": [format_poly(g, ideal.ring.laurent) for g in ideal.gens],
    }


def _cmd_cdf(args) -> tuple[int, dict]:
    complex_ = complex_from_json(load_json_file(args.complex))
    ideal = cdf_ideal(complex_, args.degree, args.k)
    return 0, _ideal_payload(ideal)


def _cmd_jump(args) -> tuple[int, dict]:
    complex_ = complex_from_json(load_json_file(args.complex))
    ideal = jump_ideal(complex_, args.degree, args.k)
    return 0, _ideal_payload(ideal)


def _cmd_smith(args) -> tuple[int, dict]:
    mat, ring = matrix_from_json(load_json_file(args.matrix))
    if ring.nvars != 1:
        raise InputError("smith requires a one-variable matrix")
    form = smith_normal_form(mat)
    return 0, {
        "diagonal": [format_poly(d, ring.laurent) for d in form.diagonal],
        "u": matrix_to_json(form.u, ring.laurent),
        "v": matrix_to_json(form.v, ring.laurent),
    }


def _cmd_detfactors(args) -> tuple[int, dict]:
    factors = determinantal_factors(matrix_from_json(load_json_file(args.matrix))[0])
    return 0, {
        "b": [format_poly(b, True) for b in factors.b],
        "minimal_polynomial": format_poly(factors.minimal, True),
    }


def _cmd_exp(args) -> tuple[int, dict]:
    locus = _load_locus(args.locus)
    divisors = sorted(exp_divisors(locus), key=lambda d: d.sort_key())
    return 0, {"divisors": [divisor_to_json(d) for d in divisors]}


def _cmd_slopes(args) -> tuple[int, dict]:
    locus = _load_locus(args.locus)
    slopes = sorted(slope_set(locus))
    return 0, {
        "slopes": [list(s) for s in slopes],
        "oblique_slopes": [list(s) for s in slopes if all(x != 0 for x in s)],
    }


def _cmd_oblique(args) -> tuple[int, dict]:
    locus = _load_locus(args.locus)
    part = oblique_part(locus)
    divisors = sorted(exp_divisors(part), key=lambda d: d.sort_key())
    return 0, {
        "locus": locus_to_json(part),
        "exp": [divisor_to_json(d) for d in divisors],
    }


def _cmd_combine(args) -> tuple[int, dict]:
    m = _int_list(args.m)
    components = {}
    for j in range(1, MAX_COMPONENTS + 1):
        path = getattr(args, f"e{j}", None)
        if path:
            components[j] = _load_locus(path)
    if not components:
        raise InputError("combine needs at least one component locus")
    pi = None if args.pi is None else tuple(_int_list(args.pi))
    locus = combine_bm(components, tuple(m), pi)
    return 0, {"locus": locus_to_json(locus)}


def _cmd_contain(args) -> tuple[int, dict]:
    inner = _load_locus(args.inner)
    outer = _load_locus(args.outer)
    ok, witness = containment_check(inner, outer)
    payload: dict = {"contained": ok}
    if witness is not None:
        payload["witness"] = [fraction_to_str(x) for x in witness]
    return (0 if ok else 1), payload


def _cmd_filter(args) -> tuple[int, dict]:
    locus = _load_locus(args.locus)
    c = tuple(_int_list(args.c))
    try:
        candidate = AffineHyperplane(c, args.c0)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    result = polar_candidate_filter(candidate, locus)
    payload = {"m": result["m"]}
    if result["k"] is None:
        payload["rejected"] = True
    else:
        payload["k"] = result["k"]
    return 0, payload


def _cmd_propagate(args) -> tuple[int, dict]:
    model = _load_locus(args.model)
    out = propagate_polar(model, args.steps)
    return 0, {"model": locus_to_json(out)}


def _cmd_slice(args) -> tuple[int, dict]:
    model = _load_locus(args.model)
    entries = specialize_slice(model, tuple(_int_list(args.b)))
    return 0, {
        "poles": [{**e, "pole": fraction_to_str(e["pole"])} for e in entries],
        "analytic_genericity_checked": False,
    }


def _cmd_support(args) -> tuple[int, dict]:
    complex_ = complex_from_json(load_json_file(args.complex))
    candidates = candidate_divisors(complex_)
    report = support_report(complex_, candidates)
    degrees = sorted(report.minimal)
    table = []
    for i in degrees:
        for divisor in report.candidates:
            order = report.minimal[i].multiplicity(divisor)
            if order == 0:
                continue
            record = specialization_multiplicity(
                complex_, divisor, i, candidates=report.candidates
            )
            table.append(
                {
                    "degree": i,
                    "divisor": divisor_to_json(divisor),
                    "ord": record.ord,
                    "jordan": record.jordan,
                    "lambda": str(record.lam),
                    "b": list(record.b),
                    "generic": record.generic,
                }
            )
    payload = {
        "candidates": [divisor_to_json(d) for d in report.candidates],
        "degrees": {
            str(i): {
                "delta0": [
                    divisor_to_json(d, m) for d, m in report.delta0[i].items()
                ],
                "delta1": [
                    divisor_to_json(d, m) for d, m in report.delta1[i].items()
                ],
                "minimal": [
                    divisor_to_json(d, m) for d, m in report.minimal[i].items()
                ],
            }
            for i in degrees
        },
        "ord_jordan_table": table,
    }
    return 0, payload


def _cmd_fixtures(args) -> tuple[int, dict]:
    # imported here: no other command needs the fixture registry
    from .fixtures import REGISTRY, run_fixtures

    if args.action == "list":
        return 0, {
            "fixtures": [
                {"name": f.name, "description": f.description}
                for f in REGISTRY.values()
            ]
        }
    names = None if args.name in (None, "all") else [args.name]
    ok, report = run_fixtures(names)
    return (0 if ok else 1), {"passed": ok, "fixtures": report}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="detloci",
        description=(
            "Exact calculus for determinantal-factor ideals of free complexes, "
            "torsion-translated divisor supports, and hyperplane-locus arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cdf", help="determinantal-factor ideal of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", "--i", dest="degree", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_cdf)

    p = sub.add_parser("jump", help="cohomology jump ideal of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--degree", "--i", dest="degree", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_jump)

    p = sub.add_parser("smith", help="Smith normal form of a one-variable matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_smith)

    p = sub.add_parser("detfactors", help="determinantal factors of a constant matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_detfactors)

    p = sub.add_parser("exp", help="Exp image of a hyperplane locus")
    p.add_argument("--locus", required=True)
    p.set_defaults(handler=_cmd_exp)

    p = sub.add_parser("slopes", help="primitive slopes of a locus")
    p.add_argument("--locus", required=True)
    p.set_defaults(handler=_cmd_slopes)

    p = sub.add_parser("oblique", help="oblique part of a locus and its Exp image")
    p.add_argument("--locus", required=True)
    p.set_defaults(handler=_cmd_oblique)

    p = sub.add_parser("combine", help="union of translated single-exponent loci")
    p.add_argument("--m", required=True, help="comma-separated exponent vector")
    p.add_argument("--pi", default=None, help="permutation of 1..r")
    for j in range(1, MAX_COMPONENTS + 1):
        p.add_argument(f"--e{j}", default=None, help=f"locus file for coordinate {j}")
    p.set_defaults(handler=_cmd_combine)

    p = sub.add_parser("contain", help="set-theoretic containment of loci")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.set_defaults(handler=_cmd_contain)

    p = sub.add_parser("filter", help="box position and translate test for a hyperplane")
    p.add_argument("--locus", required=True)
    p.add_argument("--c", required=True, help="comma-separated normal vector")
    p.add_argument("--c0", type=int, required=True)
    p.set_defaults(handler=_cmd_filter)

    p = sub.add_parser("propagate", help="closure of a polar model under unit translates")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(handler=_cmd_propagate)

    p = sub.add_parser("slice", help="pole data of a polar model along a line")
    p.add_argument("--model", required=True)
    p.add_argument("--b", required=True, help="comma-separated positive direction")
    p.set_defaults(handler=_cmd_slice)

    p = sub.add_parser("support", help="divisor support report of a complex")
    p.add_argument("--complex", required=True)
    p.add_argument("--bound", type=int, help=argparse.SUPPRESS)  # ignored: no search limit
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("fixtures", help="run or list the registered fixtures")
    p.add_argument("action", choices=["run", "list"])
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(handler=_cmd_fixtures)

    return parser


def _json_text(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True) as a plain recursive function:
    indent= selects the stdlib's pure-Python encoder, whose closures form a
    reference cycle on every call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets, pairs = "{}", sorted(value.items())
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in pairs]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [_json_text(v, inner) for v in value]
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def main(argv=None) -> int:
    args = build_parser().parse_args(_glued(sys.argv[1:] if argv is None else argv))
    try:
        code, payload = args.handler(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(_json_text(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
