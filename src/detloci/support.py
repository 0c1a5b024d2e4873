"""Determinantal-factor divisors, minimal divisors, and specialization orders.

Consumes user-supplied free complexes over the r-variable Laurent ring as
stand-ins for stalk complexes, locates their codimension-one support among
binomial prime divisors, assembles the divisor tables per degree, and compares
divisor orders with maximal Jordan block sizes at unit-root eigenvalues along
one-parameter specializations, both read off valued Fitting ideals, no Smith
form, once `complexes.top_ideals` has found every H^j torsion.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from .arith import TorsionAngle, angle_roots, euler_phi, root_multiplicity
from .complexes import FreeComplex, NonTorsionError, base_change, cdf_ideal, top_ideals
from .poly import fibres, ideal_valuation
from .torus import PrimeTorusDivisor, TorusDivisor


def _fibre_roots(order: int, fibre: dict[int, tuple[int, ...]]) -> Iterator[TorsionAngle]:
    """Every root of unity that is a root of a one-variable fibre of rows.

    With s the exponent span and N = order (1 when all rows are rational),
    there are at most s roots with multiplicity.  The conjugates over
    Q(zeta_N) of a primitive k/m are the k'/m with k' = k mod gcd(m, N), all
    of one multiplicity, phi(m)/phi(gcd(m, N)) of them; so phi(m) <=
    s*phi(N), and phi(m) >= sqrt(m/2) gives m <= 2*(s*phi(N))^2.  One test
    decides a class, and the scan stops once s roots are counted.
    """
    left = max(fibre) - min(fibre)
    n = order if any(any(row[1:]) for row in fibre.values()) else 1
    for m in range(1, 2 * (left * euler_phi(n)) ** 2 + 1):
        g = math.gcd(m, n)
        # a class has phi(m)/phi(g) >= phi(m/g) >= sqrt(m/2g) members
        if m > 2 * left * left * g or (size := euler_phi(m) // euler_phi(g)) > left:
            continue
        for r in range(g):
            roots = [TorsionAngle(k, m) for k in range(r, m, g) if math.gcd(k, m) == 1]
            if roots and (mult := root_multiplicity(order, fibre, roots[0])):
                yield from roots
                left -= mult * size
        if left <= 0:
            return


def candidate_divisors(complex_: FreeComplex) -> list[PrimeTorusDivisor]:
    """Binomial prime divisors dividing every top minor of some degree.

    Complete, with limits read off one nonzero top minor g per degree.  If
    t^u - xi divides every top minor it divides g, so xi is a root of every
    fibre of g along u, and the fibre through the first exponent e of g has
    a second exponent e' with e' - e a nonzero multiple of u: u is the
    primitive part of +-(e' - e).  And xi is a root of the fibre of g of
    least span, all listed by `_fibre_roots`; each is kept when the
    top-minor ideal has a positive valuation along it, a value the ideal
    remembers for `support_report`.  A monomial g (a unit) has no divisor,
    and mixed-sign directions are skipped.
    """
    found = set()
    for ideal, g in top_ideals(complex_).values():
        first, *rest = g.rows
        directions = set()
        for e in rest:
            step = [a - b for a, b in zip(e, first)]
            d = math.gcd(*step) * (1 if min(step) >= 0 else -1)
            u = tuple(x // d for x in step)
            if min(u) >= 0:
                directions.add(u)
        for u in directions:
            # a one-term fibre has no root on the torus, which rules g out along u
            fs = fibres(g, u)
            if len(fs[0]) < 2:
                continue
            least = min(fs, key=lambda f: max(f) - min(f))
            for xi in _fibre_roots(g.order, least):
                divisor = PrimeTorusDivisor(u, xi)
                if ideal_valuation(ideal, divisor) > 0:
                    found.add(divisor)
    return sorted(found, key=lambda d: d.sort_key())


class SupportReport(NamedTuple):
    """Per-degree divisor data over a fixed candidate list."""

    candidates: tuple[PrimeTorusDivisor, ...]
    delta0: dict[int, TorusDivisor]
    delta1: dict[int, TorusDivisor]
    minimal: dict[int, TorusDivisor]


def support_report(
    complex_: FreeComplex, candidates: Sequence[PrimeTorusDivisor]
) -> SupportReport:
    """Valuations of the first two minor ideals along each candidate, per degree,
    and their difference, the minimal divisor (`_divisor_rows`)."""
    unique = list(dict.fromkeys(candidates))
    if len(unique) != len(list(candidates)):
        raise ValueError("candidate divisors must be distinct")
    rows = {i: _divisor_rows(complex_, i, unique) for i in top_ideals(complex_)}
    delta0, delta1, minimal = ({i: r[k] for i, r in rows.items()} for k in range(3))
    return SupportReport(tuple(unique), delta0, delta1, minimal)


def _divisor_rows(
    complex_: FreeComplex, i: int, divisors: Sequence[PrimeTorusDivisor]
) -> tuple[TorusDivisor, TorusDivisor, TorusDivisor]:
    """delta0, delta1 and the minimal divisor delta0 - delta1 of a torsion
    degree i over the divisors, the minimal divisor checked to be effective."""
    ideal0, ideal1 = cdf_ideal(complex_, i, 0), cdf_ideal(complex_, i, 1)
    # finite: a nonzero top-minor ideal makes the next one nonzero too
    delta0 = TorusDivisor({c: ideal_valuation(ideal0, c) for c in divisors})
    delta1 = TorusDivisor({c: ideal_valuation(ideal1, c) for c in divisors})
    minimal = delta0 - delta1
    if not minimal.is_effective():
        raise ArithmeticError(
            f"minimal divisor in degree {i} is not effective; the candidate list is inconsistent"
        )
    return delta0, delta1, minimal


def _generic_points(divisor: PrimeTorusDivisor, avoid: Sequence[PrimeTorusDivisor]):
    """Torsion points (lambda^{b_1}, ..., lambda^{b_r}) on the divisor only.

    Runs over every positive exponent vector b by total, then lexicographically,
    solving lambda^w = xi with w = u . b and yielding the smallest root other
    than 1 that avoids every listed divisor.  There is no cap, yet the search
    stops on a torsion complex.  Torsion: the base change along b keeps one
    nonzero top minor per degree nonzero off the finitely many hyperplanes
    b . (e - e') = 0 of its exponents.  Genericity: an avoided {t^u' = xi'}
    meets none of the w roots if u' = u and at most gcd(w, u' . b) of them
    otherwise; distinct primitive vectors are independent, so some such b has
    w prime, w > #avoid + 1 and w not dividing u' . b for every u' != u.
    """
    if divisor in avoid:
        raise ValueError("the divisor itself may not be in the avoid list")
    r = divisor.nvars
    for total in itertools.count(r):
        for cuts in itertools.combinations(range(1, total), r - 1):
            b = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (total,)))
            w = sum(ui * bi for ui, bi in zip(divisor.u, b))
            for lam in angle_roots(divisor.xi, w):
                if lam.is_one() or any(point_on_divisor(d, lam, b) for d in avoid):
                    continue
                yield lam, b
                break


def point_on_divisor(
    divisor: PrimeTorusDivisor, lam: TorsionAngle, b: Sequence[int]
) -> bool:
    return divisor.contains_point([lam**bi for bi in b])


def _minimal_order(complex_: FreeComplex, divisor: PrimeTorusDivisor, i: int) -> int:
    """The multiplicity of divisor in the minimal divisor of degree i, as
    `support_report` gives it, valuing degree i only; like the report, it
    raises NonTorsionError when some H^j is not torsion (`top_ideals`)."""
    if i not in top_ideals(complex_):
        return 0
    return _divisor_rows(complex_, i, [divisor])[2].multiplicity(divisor)


def _jordan_size(complex_: FreeComplex, lam: TorsionAngle, b: tuple[int, ...], i: int) -> int:
    """Largest Jordan block at lambda on H^i of the base change along b, kept per b
    in the source's minor cache so rows that share b share its minors and valuations.

    Over the PID Q(zeta)[t, 1/t] a torsion H^i with invariant factors
    e_1 | ... | e_m has ord_lambda(e_m) = ord_lambda Fitt_0 - ord_lambda Fitt_1,
    its minimal divisor at t = lambda; NonTorsionError is raised exactly when
    some H^j is not torsion.
    """
    specialized = complex_.minor_cache.get(("specialized", b))
    if specialized is None:
        specialized = complex_.minor_cache[("specialized", b)] = base_change(complex_, b)
    return _minimal_order(specialized, PrimeTorusDivisor((1,), lam), i)


class SpecializationRecord(NamedTuple):
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
    candidates: Sequence[PrimeTorusDivisor] | None = None,
    point: tuple[TorsionAngle, Sequence[int]] | None = None,
) -> SpecializationRecord:
    """Divisor order versus maximal Jordan size along a one-parameter point.

    The order comes from the minimal divisor of the support report, the Jordan
    size from that of the substituted one-variable complex at t = lambda.  The
    two agree at generic points; a non-generic choice is reported
    (generic=False) rather than rejected.
    """
    if candidates is None:
        candidates = candidate_divisors(complex_)
    # the order along one divisor does not depend on the others; this also
    # refuses a non-torsion complex, which is what makes the loop below stop
    order_at = _minimal_order(complex_, divisor, i)
    avoid = sorted(set(candidates) - {divisor}, key=lambda d: d.sort_key())
    if point is None:
        # a non-torsion base change puts the whole curve in the support: not generic
        for lam, b in _generic_points(divisor, avoid):
            try:
                jordan = _jordan_size(complex_, lam, b, i)
                break
            except NonTorsionError:
                continue
        generic = True
    else:
        lam, b = point[0], tuple(int(x) for x in point[1])
        if any(x <= 0 for x in b):
            raise ValueError("point exponents must be positive")
        generic = point_on_divisor(divisor, lam, b) and not any(
            point_on_divisor(d, lam, b) for d in avoid
        )
        jordan = _jordan_size(complex_, lam, b, i)
    if not generic or jordan != order_at:
        import logging  # imported here: no generic specialization logs

        msg = "non-generic specialization at lambda=%s b=%s: ord=%d jordan=%d"
        logging.getLogger(__name__).info(msg, lam, b, order_at, jordan)
    return SpecializationRecord(ord=order_at, jordan=jordan, lam=lam, b=b, generic=generic)
