"""Determinantal-factor divisors, minimal divisors, and specialization orders.

Consumes user-supplied free complexes over the r-variable Laurent ring as
stand-ins for stalk complexes, locates their codimension-one support among
binomial prime divisors, assembles the divisor tables per degree, and runs
the one-parameter specialization pipeline comparing divisor orders with
maximal Jordan block sizes at unit-root eigenvalues.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

from .arith import TorsionAngle, angle_roots, root_multiplicity
from .complexes import FreeComplex, base_change, cdf_ideal
from .poly import fibre_has_root, fibres, ideal_valuation
from .smith import NonTorsionError, _torsion_invariants
from .torus import PrimeTorusDivisor, TorusDivisor
from .upoly import UPoly

logger = logging.getLogger(__name__)


class NonTorsionComplexError(ValueError):
    """Some degree of the complex has vanishing top minors ideal."""

    def __init__(self, degree: int):
        super().__init__(
            f"complex is not torsion: the top minors ideal vanishes in degree {degree}"
        )
        self.degree = degree


def _primitive_vectors(r: int, bound: int) -> list[tuple[int, ...]]:
    return [u for u in itertools.product(range(bound + 1), repeat=r) if math.gcd(*u) == 1]


def _angles_up_to(max_den: int) -> list[TorsionAngle]:
    return [
        TorsionAngle(num, den)
        for den in range(1, max_den + 1)
        for num in range(den)
        if math.gcd(num, den) == 1
    ]


def candidate_divisors(complex_: FreeComplex, bound: int = 4) -> list[PrimeTorusDivisor]:
    """Binomial prime divisors dividing every top minor of some degree.

    Searches supports with sup-norm at most the bound and torsion angles with
    denominator at most bound times the largest cleared entry degree; complete
    for loci planted within those limits, a declared search budget otherwise.
    """
    if bound < 1:
        raise ValueError("search bound must be positive")
    r = complex_.ring.nvars
    tops = []
    for i in complex_.degrees():
        ideal = cdf_ideal(complex_, i, 0)
        if ideal.is_zero():
            raise NonTorsionComplexError(i)
        if not ideal.contains_one():
            tops.append(ideal.gens)
    max_degree = 1
    for mat in complex_.diffs.values():
        for row in mat:
            for entry in row:
                if not entry.is_zero():
                    max_degree = max(max_degree, entry.max_total_degree())
    angles = _angles_up_to(bound * max_degree)
    found = []
    for u in _primitive_vectors(r, bound):
        # t^u - xi divides every generator of an ideal exactly when xi is a
        # root of all their fibres; a one-term fibre has no root on the torus,
        # which rules that ideal out along u
        split = [
            sorted((f for g in gens for f in fibres(g, u)), key=len)
            for gens in tops
            if all(len(fibres(g, u)[0]) > 1 for g in gens)
        ]
        if not split:
            continue
        for xi in angles:
            if any(all(fibre_has_root(f, xi) for f in fs) for fs in split):
                found.append(PrimeTorusDivisor(u, xi))
    return sorted(found, key=lambda d: d.sort_key())


@dataclass(frozen=True)
class SupportReport:
    """Per-degree divisor data over a fixed candidate list."""

    candidates: tuple[PrimeTorusDivisor, ...]
    delta0: dict[int, TorusDivisor]
    delta1: dict[int, TorusDivisor]
    minimal: dict[int, TorusDivisor]

    def ord_table(self) -> dict[int, dict[PrimeTorusDivisor, int]]:
        return {
            i: {c: div.multiplicity(c) for c in self.candidates}
            for i, div in self.minimal.items()
        }


def support_report(
    complex_: FreeComplex, candidates: Sequence[PrimeTorusDivisor]
) -> SupportReport:
    """Valuations of the first two minor ideals along each candidate, per degree.

    The minimal divisor in each degree is the difference of the two divisor
    rows and is checked to be effective.
    """
    unique = list(dict.fromkeys(candidates))
    if len(unique) != len(list(candidates)):
        raise ValueError("candidate divisors must be distinct")
    delta0: dict[int, TorusDivisor] = {}
    delta1: dict[int, TorusDivisor] = {}
    minimal: dict[int, TorusDivisor] = {}
    for i in complex_.degrees():
        ideal0 = cdf_ideal(complex_, i, 0)
        if ideal0.is_zero():
            raise NonTorsionComplexError(i)
        ideal1 = cdf_ideal(complex_, i, 1)
        row0: dict[PrimeTorusDivisor, int] = {}
        row1: dict[PrimeTorusDivisor, int] = {}
        for c in unique:
            v0 = ideal_valuation(ideal0, c)
            v1 = ideal_valuation(ideal1, c)
            if v0 is math.inf or v1 is math.inf:
                raise NonTorsionComplexError(i)
            row0[c] = v0
            row1[c] = v1
        delta0[i] = TorusDivisor(row0)
        delta1[i] = TorusDivisor(row1)
        diff = delta0[i] - delta1[i]
        if not diff.is_effective():
            raise ArithmeticError(
                f"minimal divisor in degree {i} is not effective; "
                "the candidate list is inconsistent"
            )
        minimal[i] = diff
    return SupportReport(tuple(unique), delta0, delta1, minimal)


def _generic_points(divisor: PrimeTorusDivisor, avoid: Sequence[PrimeTorusDivisor], bound: int):
    """Torsion points (lambda^{b_1}, ..., lambda^{b_r}) on the divisor only.

    Enumerates exponent vectors b by total size then lexicographically, and
    for each solves lambda^{u . b} = xi, yielding the smallest root of unity
    different from 1 that avoids every listed divisor.
    """
    if divisor in avoid:
        raise ValueError("the divisor itself may not be in the avoid list")
    r = divisor.nvars
    vectors = sorted(
        itertools.product(range(1, bound + 1), repeat=r),
        key=lambda b: (sum(b), b),
    )
    for b in vectors:
        w = sum(ui * bi for ui, bi in zip(divisor.u, b))
        for lam in angle_roots(divisor.xi, w):
            if lam.is_one() or any(point_on_divisor(d, lam, b) for d in avoid):
                continue
            yield lam, b
            break


def generic_point_on_divisor(
    divisor: PrimeTorusDivisor,
    avoid: Sequence[PrimeTorusDivisor],
    bound: int = 8,
) -> tuple[TorsionAngle, tuple[int, ...]]:
    """The first torsion point on the divisor only, in the order of `_generic_points`."""
    for point in _generic_points(divisor, avoid, bound):
        return point
    raise ValueError("no generic point within bound; increase bound")


def point_on_divisor(
    divisor: PrimeTorusDivisor, lam: TorsionAngle, b: Sequence[int]
) -> bool:
    return divisor.contains_point([lam**bi for bi in b])


def _specialized_invariants(
    complex_: FreeComplex, b: tuple[int, ...]
) -> dict[int, tuple[UPoly, ...]]:
    """`_torsion_invariants` of the base change along b, remembered per b in
    the minor cache of the source complex (a non-torsion b raises each time)."""
    key = ("specialized", b)
    found = complex_.minor_cache.get(key)
    if found is None:
        found = _torsion_invariants(base_change(complex_, b))
        complex_.minor_cache[key] = found
    return found


@dataclass(frozen=True)
class SpecializationRecord:
    """Outcome of the one-parameter specialization at a chosen torsion point."""

    ord: int
    jordan: int
    lam: TorsionAngle
    b: tuple[int, ...]
    generic: bool


def specialization_multiplicity(
    complex_: FreeComplex,
    divisor: PrimeTorusDivisor,
    i: int,
    bound: int = 4,
    candidates: Sequence[PrimeTorusDivisor] | None = None,
    point: tuple[TorsionAngle, Sequence[int]] | None = None,
) -> SpecializationRecord:
    """Divisor order versus maximal Jordan size along a one-parameter point.

    The order comes from the minimal divisor of the support report; the Jordan
    size is the eigenvalue multiplicity in the annihilator of the cohomology
    of the substituted one-variable complex.  The two agree at generic points;
    a non-generic choice is reported (generic=False) rather than rejected.
    """
    if candidates is None:
        candidates = candidate_divisors(complex_, bound)
    all_candidates = sorted(set(candidates) | {divisor}, key=lambda d: d.sort_key())
    report = support_report(complex_, all_candidates)
    order_at = report.minimal.get(i, TorusDivisor()).multiplicity(divisor)
    avoid = [d for d in all_candidates if d != divisor]
    if point is None:
        # a non-torsion base change puts the whole curve in the support: not generic
        for lam, b in _generic_points(divisor, avoid, max(bound, 8)):
            try:
                invariants = _specialized_invariants(complex_, b)
                break
            except NonTorsionError:
                continue
        else:
            raise ValueError("no generic point within bound; increase bound")
        generic = True
    else:
        lam, b_raw = point
        b = tuple(int(x) for x in b_raw)
        if any(x <= 0 for x in b):
            raise ValueError("point exponents must be positive")
        generic = point_on_divisor(divisor, lam, b) and not any(
            point_on_divisor(d, lam, b) for d in avoid
        )
        invariants = _specialized_invariants(complex_, b)
    # the invariant factors of H^i are chained, so the last one generates Fitt_0/Fitt_1
    torsion = invariants.get(i, ())
    annihilator = torsion[-1] if torsion else UPoly.one(1)
    jordan = root_multiplicity(dict(annihilator.terms()), lam)
    if not generic or jordan != order_at:
        logger.info(
            "non-generic specialization at lambda=%s b=%s: ord=%d jordan=%d",
            lam,
            b,
            order_at,
            jordan,
        )
    return SpecializationRecord(
        ord=order_at, jordan=jordan, lam=lam, b=tuple(b), generic=generic
    )
