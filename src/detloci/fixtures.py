"""Executable fixtures: the published example loci and their expected outputs.

Each fixture bundles input loci with tagged expected values (Exp images,
slopes, oblique comparisons, combine results, slice poles, box filters); a
fixture run fails on any mismatch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .arith import TorsionAngle
from .bsloci import (
    HyperplaneLocus,
    combine_bm,
    containment_check,
    exp_divisors,
    exp_oblique_equal,
    oblique_part,
    polar_candidate_filter,
    slope_set,
    specialize_slice,
)
from .torus import AffineHyperplane, PrimeTorusDivisor, exp_hyperplane, is_oblique


class CheckResult(NamedTuple):
    tag: str
    passed: bool
    detail: str = ""


class Fixture(NamedTuple):
    name: str
    description: str
    runner: Callable[[], list[CheckResult]]


def _h(c: tuple[int, ...], c0: int) -> AffineHyperplane:
    return AffineHyperplane(c, c0)


def _d(u: tuple[int, ...], xi: str) -> PrimeTorusDivisor:
    num, den = xi.split("/")
    return PrimeTorusDivisor(u, TorsionAngle.make(int(num), int(den)))


def _check(tag: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(tag, bool(passed), detail)


def _conjugation_closed(divisors: set[PrimeTorusDivisor]) -> bool:
    return all(d.conjugate() in divisors for d in divisors)


# ---------------------------------------------------------------------------
# First example: two-variable locus with slopes (1,0), (0,1), (1,1)


def ex71_loci() -> dict[str, HyperplaneLocus]:
    bf = HyperplaneLocus.make(
        2,
        [
            _h((6, 0), 5),
            _h((6, 0), 6),
            _h((6, 0), 7),
            _h((0, 1), 1),
            _h((3, 3), 4),
            _h((3, 3), 5),
            _h((3, 3), 7),
            _h((3, 3), 8),
        ],
    )
    bfi = HyperplaneLocus.make(
        2,
        [_h((3, 3), 4), _h((3, 3), 5)],
        [[_h((1, 0), 1), _h((0, 1), 1)]],
    )
    be1 = HyperplaneLocus.make(
        2,
        [_h((1, 0), 1), _h((6, 0), 5), _h((6, 0), 7), _h((3, 3), 4), _h((3, 3), 5)],
    )
    be2 = HyperplaneLocus.make(
        2,
        [_h((0, 1), 1), _h((3, 3), 4), _h((3, 3), 5)],
    )
    return {"bf": bf, "bfi": bfi, "be1": be1, "be2": be2}


EX71_EXP = {
    _d((1, 0), "1/6"),
    _d((1, 0), "5/6"),
    _d((1, 0), "0/1"),
    _d((0, 1), "0/1"),
    _d((1, 1), "1/3"),
    _d((1, 1), "2/3"),
}

EX71_OBLIQUE_EXP = {_d((1, 1), "1/3"), _d((1, 1), "2/3")}


def run_ex71() -> list[CheckResult]:
    loci = ex71_loci()
    bf, bfi, be1, be2 = loci["bf"], loci["bfi"], loci["be1"], loci["be2"]
    checks = []

    actual_exp = exp_divisors(bf)
    checks.append(
        _check("exp-divisors", actual_exp == EX71_EXP, f"got {sorted(map(str, actual_exp))}")
    )
    checks.append(_check("conjugation-closed", _conjugation_closed(actual_exp)))
    checks.append(
        _check("slopes", slope_set(bf) == {(1, 0), (0, 1), (1, 1)}, str(slope_set(bf)))
    )
    checks.append(
        _check(
            "oblique-slope-unique",
            slope_set(oblique_part(bf)) == {(1, 1)},
            str(slope_set(oblique_part(bf))),
        )
    )

    names = ["bf", "bfi", "be1", "be2"]
    pairwise = all(
        exp_oblique_equal(loci[a], loci[b]) for a in names for b in names
    )
    checks.append(_check("oblique-exp-equal-pairwise", pairwise))
    checks.append(
        _check(
            "oblique-exp-value",
            exp_divisors(oblique_part(bf)) == EX71_OBLIQUE_EXP,
        )
    )

    combined_id = combine_bm({1: be1, 2: be2}, (1, 1), (1, 2))
    combined_swap = combine_bm({1: be1, 2: be2}, (1, 1), (2, 1))
    checks.append(
        _check(
            "combine-permutation-invariant",
            combined_id.set_canonical() == combined_swap.set_canonical(),
        )
    )
    checks.append(
        _check(
            "combine-equals-full-locus",
            combined_id.set_canonical() == bf.set_canonical(),
        )
    )

    for target_name, target in (("bf", bf), ("be1", be1), ("be2", be2)):
        ok, witness = containment_check(bfi, target)
        checks.append(
            _check(f"containment-in-{target_name}", ok, f"witness {witness}")
        )
    checks.append(
        _check(
            "oblique-purity",
            all(is_oblique(h) for h in bfi.members()),
        )
    )

    slice12 = specialize_slice(bf, (1, 2))
    expected_poles = {
        Fraction(-5, 6),
        Fraction(-1),
        Fraction(-7, 6),
        Fraction(-1, 2),
        Fraction(-4, 9),
        Fraction(-5, 9),
        Fraction(-7, 9),
        Fraction(-8, 9),
    }
    got_poles = {entry["pole"] for entry in slice12}
    checks.append(
        _check(
            "slice-b12-poles",
            got_poles == expected_poles
            and all(entry["generic"] and entry["order_sum"] == 1 for entry in slice12),
            f"got {sorted(got_poles)}",
        )
    )
    slice11 = specialize_slice(bf, (1, 1))
    at_minus_one = [e for e in slice11 if e["pole"] == Fraction(-1)]
    checks.append(
        _check(
            "slice-b11-collision",
            len(at_minus_one) == 1
            and at_minus_one[0]["order_sum"] == 2
            and not at_minus_one[0]["generic"],
            str(at_minus_one),
        )
    )

    f1 = polar_candidate_filter(_h((3, 3), 10), bf)
    f2 = polar_candidate_filter(_h((3, 3), 4), bf)
    f3 = polar_candidate_filter(_h((3, 3), 1), bf)
    checks.append(_check("box-filter-accept-shifted", f1 == {"m": 1, "k": 1}, str(f1)))
    checks.append(_check("box-filter-accept-member", f2 == {"m": 0, "k": 0}, str(f2)))
    checks.append(_check("box-filter-reject", f3 == {"m": 0, "k": None}, str(f3)))

    # the polar model shares the slope set of the locus it models, even
    # after closing it under unit translates
    from .bsloci import propagate_polar

    checks.append(
        _check(
            "slope-set-across-models",
            slope_set(propagate_polar(bf, 2)) == slope_set(bf),
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Second example: oblique slope (4,1)


def ex72_loci() -> dict[str, HyperplaneLocus]:
    be1 = HyperplaneLocus.make(
        2,
        [(_h((1, 0), 1), 2)]
        + [(_h((8, 0), k), 1) for k in (5, 7, 9, 11)]
        + [(_h((4, 1), k), 1) for k in range(3, 9)],
    )
    be2 = HyperplaneLocus.make(
        2,
        [(_h((0, 1), 1), 1)] + [(_h((4, 1), k), 1) for k in (3, 4, 5)],
    )
    bfi = HyperplaneLocus.make(
        2,
        [_h((4, 1), k) for k in (3, 4, 5)],
        [
            [_h((4, 0), 5), _h((0, 1), 1)],
            [_h((2, 0), 3), _h((0, 1), 1)],
            [_h((1, 0), 1), _h((0, 1), 1)],
        ],
    )
    zbf = HyperplaneLocus.make(
        2,
        [_h((1, 0), 1), _h((0, 1), 1)]
        + [_h((8, 0), k) for k in (5, 7, 9, 11)]
        + [_h((4, 1), k) for k in range(3, 10)],
    )
    return {"be1": be1, "be2": be2, "bfi": bfi, "zbf": zbf}


EX72_EXP = {
    _d((1, 0), "0/1"),
    _d((0, 1), "0/1"),
    _d((1, 0), "1/8"),
    _d((1, 0), "3/8"),
    _d((1, 0), "5/8"),
    _d((1, 0), "7/8"),
    _d((4, 1), "0/1"),
}


def run_ex72() -> list[CheckResult]:
    loci = ex72_loci()
    be1, be2, bfi, zbf = loci["be1"], loci["be2"], loci["bfi"], loci["zbf"]
    checks = []

    combined_id = combine_bm({1: be1, 2: be2}, (1, 1), (1, 2))
    combined_swap = combine_bm({1: be1, 2: be2}, (1, 1), (2, 1))
    expected = zbf.without_multiplicities()
    checks.append(
        _check(
            "combine-id-exact",
            combined_id == expected,
            f"got {[str(h) for h in combined_id.members()]}",
        )
    )
    checks.append(_check("combine-swap-exact", combined_swap == expected))

    actual_exp = exp_divisors(zbf)
    checks.append(
        _check("exp-divisors", actual_exp == EX72_EXP, f"got {sorted(map(str, actual_exp))}")
    )
    checks.append(_check("conjugation-closed", _conjugation_closed(actual_exp)))
    checks.append(
        _check(
            "oblique-slope-unique",
            slope_set(oblique_part(zbf)) == {(4, 1)},
            str(slope_set(oblique_part(zbf))),
        )
    )
    checks.append(
        _check(
            "oblique-exp-value",
            exp_divisors(oblique_part(bfi)) == {_d((4, 1), "0/1")},
        )
    )
    checks.append(
        _check("oblique-exp-equal-pairwise", exp_oblique_equal(bfi, zbf))
    )
    checks.append(
        _check(
            "oblique-purity",
            all(is_oblique(h) for h in bfi.members()),
        )
    )
    for target_name, target in (("zbf", zbf), ("be1", be1), ("be2", be2)):
        ok, witness = containment_check(bfi, target)
        checks.append(
            _check(f"containment-in-{target_name}", ok, f"witness {witness}")
        )
    return checks


# ---------------------------------------------------------------------------
# Third example: binomial pair with unit exponents


def ex73_loci() -> dict[str, HyperplaneLocus]:
    bf = HyperplaneLocus.make(2, [_h((1, 0), 1), _h((0, 1), 1)])
    return {"bf": bf}


def run_ex73() -> list[CheckResult]:
    bf = ex73_loci()["bf"]
    checks = []
    checks.append(
        _check("slopes", slope_set(bf) == {(1, 0), (0, 1)}, str(slope_set(bf)))
    )
    expected = {_d((1, 0), "0/1"), _d((0, 1), "0/1")}
    checks.append(_check("exp-divisors", exp_divisors(bf) == expected))
    checks.append(
        _check("no-oblique-part", not oblique_part(bf).hyperplanes)
    )
    checks.append(
        _check(
            "exp-member",
            exp_hyperplane(_h((1, 0), 1)) == _d((1, 0), "0/1"),
        )
    )
    return checks


REGISTRY: dict[str, Fixture] = {
    "ex71": Fixture("ex71", "two-variable locus with oblique slope (1,1)", run_ex71),
    "ex72": Fixture("ex72", "two-variable locus with oblique slope (4,1)", run_ex72),
    "ex73": Fixture("ex73", "binomial pair with unit exponents", run_ex73),
}


def run_fixtures(names: list[str] | None = None) -> tuple[bool, list[dict]]:
    selected = names or sorted(REGISTRY)
    report = []
    all_ok = True
    for name in selected:
        if name not in REGISTRY:
            raise ValueError(f"unknown fixture {name!r}")
        results = REGISTRY[name].runner()
        ok = all(r.passed for r in results)
        all_ok = all_ok and ok
        report.append(
            {
                "name": name,
                "description": REGISTRY[name].description,
                "passed": ok,
                "checks": [
                    {"tag": r.tag, "passed": r.passed, **({"detail": r.detail} if not r.passed else {})}
                    for r in results
                ],
            }
        )
    return all_ok, report
