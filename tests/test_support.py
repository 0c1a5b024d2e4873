import random

import pytest

from detloci.arith import TorsionAngle
from detloci.complexes import FreeComplex, base_change, cdf_ideal, direct_sum
from detloci.poly import LaurentPoly, Ring, fibre_has_root, fibres, parse_poly
from detloci.support import (
    NonTorsionComplexError,
    _angles_up_to,
    _primitive_vectors,
    candidate_divisors,
    generic_point_on_divisor,
    point_on_divisor,
    specialization_multiplicity,
    support_report,
)
from detloci.torus import PrimeTorusDivisor, tau_preimage

from conftest import (
    oracle_minor_gens,
    oracle_valuation,
    random_torsion_complex,
    shifted_piece,
)

R2 = Ring(2, True, 3)


def P(text: str, ring: Ring = R2) -> LaurentPoly:
    return parse_poly(text, ring)


def angle(num, den):
    return TorsionAngle.make(num, den)


def diag_complex(entries, ring=R2) -> FreeComplex:
    n = len(entries)
    zero = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    mat = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
    return FreeComplex.make(ring, (0, 1), {0: n, 1: n}, {0: mat})


H_DIVISOR = PrimeTorusDivisor((1, 1), angle(1, 3))


class TestCandidateDivisors:
    def test_single_binomial(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        assert candidate_divisors(E, 3) == [H_DIVISOR]

    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        assert candidate_divisors(E, 3) == [H_DIVISOR]

    def test_unit_differential(self):
        E = diag_complex([LaurentPoly.one(2, 3)])
        assert candidate_divisors(E, 3) == []

    def test_non_torsion_named(self):
        E = diag_complex([LaurentPoly.zero(2, 3)])
        with pytest.raises(NonTorsionComplexError) as info:
            candidate_divisors(E, 3)
        assert info.value.degree in (0, 1)

    def test_multiple_planted(self):
        E = diag_complex([P("t1-1") * P("t2-1"), P("t1*t2-e(1/3)")])
        got = candidate_divisors(E, 3)
        assert set(got) == {
            PrimeTorusDivisor((1, 0), angle(0, 1)),
            PrimeTorusDivisor((0, 1), angle(0, 1)),
            H_DIVISOR,
        }


def oracle_candidates(E: FreeComplex, bound: int) -> list[PrimeTorusDivisor]:
    """Every (u, xi) of the search grid whose binomial divides every top minor
    of some degree.

    Decided by trial division of each generator by t^u - xi, pair by pair; a
    zero top ideal is refused, since every binomial would divide it.
    """
    tops = []
    for i in E.degrees():
        ideal = cdf_ideal(E, i, 0)
        if ideal.is_zero():
            raise NonTorsionComplexError(i)
        if not ideal.contains_one():
            tops.append(ideal.gens)
    max_degree = max(
        [1]
        + [
            e.max_total_degree()
            for mat in E.diffs.values()
            for row in mat
            for e in row
            if not e.is_zero()
        ]
    )
    found = [
        PrimeTorusDivisor(u, xi)
        for u in _primitive_vectors(E.ring.nvars, bound)
        for xi in _angles_up_to(bound * max_degree)
        if any(
            all(oracle_valuation(g, PrimeTorusDivisor(u, xi)) > 0 for g in gens)
            for gens in tops
        )
    ]
    return sorted(found, key=lambda d: d.sort_key())


class TestCandidatesAgainstTrialDivision:
    @pytest.mark.parametrize("r,bound,seed", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 4)])
    def test_random_planted(self, r, bound, seed):
        rng = random.Random(seed)
        ring = Ring(r, True, 6)
        for _ in range(3):
            E = random_torsion_complex(rng, ring, max_pieces=2, degrees=(0, 1))
            assert candidate_divisors(E, bound) == oracle_candidates(E, bound)

    def test_cyclotomic_factor_gives_two_angles(self):
        E = diag_complex([P("t1^2+t1+1") * P("t2-1")])
        got = candidate_divisors(E, 2)
        assert got == oracle_candidates(E, 2)
        assert [(d.u, str(d.xi)) for d in got] == [
            ((0, 1), "0/1"),
            ((1, 0), "1/3"),
            ((1, 0), "2/3"),
        ]

    def test_single_term_fibre_skips_direction(self):
        # along (0, 1) the t1^2 part of (t1-1)(t1+t2) is a lone monomial
        g = P("t1-1") * P("t1+t2")
        assert min(len(f) for f in fibres(g, (0, 1))) == 1
        E = diag_complex([g])
        got = candidate_divisors(E, 3)
        assert got == oracle_candidates(E, 3)
        assert got == [PrimeTorusDivisor((1, 0), angle(0, 1))]

    def test_every_fibre_must_vanish(self):
        # along (1, 0) the fibre t1-1 vanishes at 1, the fibre t1^2+t1+1 does not
        g = P("t1-1+t1^2*t2+t1*t2+t2")
        smallest = fibres(g, (1, 0))[0]
        assert fibre_has_root(smallest, angle(0, 1))
        E = diag_complex([g])
        got = candidate_divisors(E, 2)
        assert got == oracle_candidates(E, 2)
        assert PrimeTorusDivisor((1, 0), angle(0, 1)) not in got

    def test_angle_at_denominator_edge(self):
        # t1^2+1 has degree 2, so bound 2 searches denominators up to 4
        E = diag_complex([P("t1^2+1", Ring(2, True, 1))], Ring(2, True, 1))
        edge = [
            PrimeTorusDivisor((1, 0), angle(1, 4)),
            PrimeTorusDivisor((1, 0), angle(3, 4)),
        ]
        assert candidate_divisors(E, 2) == oracle_candidates(E, 2) == edge
        assert candidate_divisors(E, 1) == oracle_candidates(E, 1) == []


def koszul_complex(ring: Ring, gens: list[LaurentPoly]) -> FreeComplex:
    """The Koszul complex of two or three elements; its top minors include them."""
    zero = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    if len(gens) == 2:
        a, b = gens
        return FreeComplex.make(
            ring, (0, 2), {0: 1, 1: 2, 2: 1}, {0: [[a], [b]], 1: [[b, -a]]}
        )
    a, b, c = gens
    cross = [[zero, -c, b], [c, zero, -a], [-b, a, zero]]
    return FreeComplex.make(
        ring,
        (0, 3),
        {0: 1, 1: 3, 2: 3, 3: 1},
        {0: [[a], [b], [c]], 1: cross, 2: [[a, b, c]]},
    )


class TestSeveralTopGenerators:
    def test_shared_binomial_factor(self):
        h = P("t1*t2-e(1/3)")
        E = koszul_complex(R2, [h * P("t1-1"), h * P("t2")])
        assert len(cdf_ideal(E, 1, 0).gens) == 2
        assert candidate_divisors(E, 3) == oracle_candidates(E, 3) == [H_DIVISOR]

    def test_planted_binomial_against_trial_division(self, rng):
        from conftest import random_binomial_product, random_divisor

        ring = Ring(2, True, 3)
        for _ in range(25):
            divisor = random_divisor(rng, 2)
            planted = LaurentPoly.binomial_divisor(2, divisor, 3)
            gens = []
            for _ in range(rng.randint(2, 3)):
                extra = random_binomial_product(rng, ring)
                if extra.is_zero():
                    extra = LaurentPoly.one(2, 3)
                gens.append(planted * extra)
            E = koszul_complex(ring, gens)
            got = candidate_divisors(E, 2)
            assert got == oracle_candidates(E, 2)
            assert divisor in got

    def test_zero_top_ideal_refused_by_both(self):
        E = diag_complex([LaurentPoly.zero(2, 3)])
        with pytest.raises(NonTorsionComplexError):
            oracle_candidates(E, 2)
        with pytest.raises(NonTorsionComplexError):
            candidate_divisors(E, 2)


class TestSupportReport:
    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        report = support_report(E, [H_DIVISOR])
        assert report.delta0[1].multiplicity(H_DIVISOR) == 3
        assert report.delta1[1].multiplicity(H_DIVISOR) == 1
        assert report.minimal[1].multiplicity(H_DIVISOR) == 2
        assert report.ord_table()[1][H_DIVISOR] == 2

    def test_single(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        report = support_report(E, [H_DIVISOR])
        assert report.minimal[1].multiplicity(H_DIVISOR) == 1

    def test_direct_sum_against_minor_oracle(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h, h])
        report = support_report(E, [H_DIVISOR])
        mat = [list(row) for row in E.differential(0)]
        # oracle: enumerate the minors directly and take min valuations
        oracle0 = min(
            oracle_valuation(g, H_DIVISOR)
            for g in oracle_minor_gens(mat, 3, R2)
            if not g.is_zero()
        )
        oracle1 = min(
            oracle_valuation(g, H_DIVISOR)
            for g in oracle_minor_gens(mat, 2, R2)
            if not g.is_zero()
        )
        assert report.delta0[1].multiplicity(H_DIVISOR) == oracle0 == 4
        assert report.delta1[1].multiplicity(H_DIVISOR) == oracle1 == 2
        assert report.minimal[1].multiplicity(H_DIVISOR) == 2

    def test_effectivity_and_annihilator_agreement(self, rng):
        # sums of shifted cyclic pieces: the minimal divisor coefficient is
        # the largest planted exponent per degree
        ring = Ring(2, True, 6)
        divisors = [
            PrimeTorusDivisor((1, 1), angle(1, 3)),
            PrimeTorusDivisor((1, 0), angle(1, 2)),
        ]
        for _ in range(10):
            planted: dict[tuple[int, PrimeTorusDivisor], int] = {}
            pieces = []
            for _ in range(rng.randint(1, 3)):
                degree = rng.choice([1, 2])
                divisor = rng.choice(divisors)
                power = rng.randint(1, 3)
                binom = LaurentPoly.binomial_divisor(2, divisor, 6)
                pieces.append(shifted_piece(ring, binom**power, degree))
                key = (degree, divisor)
                planted[key] = max(planted.get(key, 0), power)
            E = pieces[0]
            for piece in pieces[1:]:
                E = direct_sum(E, piece)
            report = support_report(E, divisors)
            for i in E.degrees():
                assert report.minimal[i].is_effective()
                for divisor in divisors:
                    assert report.minimal[i].multiplicity(divisor) == planted.get(
                        (i, divisor), 0
                    )

    def test_duplicate_candidates_rejected(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        with pytest.raises(ValueError, match="distinct"):
            support_report(E, [H_DIVISOR, H_DIVISOR])


class TestGenericPoint:
    def test_examples(self):
        lam, b = generic_point_on_divisor(
            H_DIVISOR, [PrimeTorusDivisor((1, 0), angle(0, 1))], 8
        )
        assert (str(lam), b) == ("1/6", (1, 1))
        lam, b = generic_point_on_divisor(PrimeTorusDivisor((1, 0), angle(1, 6)), [], 8)
        assert (str(lam), b) == ("1/6", (1, 1))
        lam, b = generic_point_on_divisor(
            PrimeTorusDivisor((1, 1), angle(0, 1)),
            [PrimeTorusDivisor((1, 1), angle(1, 2))],
            8,
        )
        assert (str(lam), b) == ("1/2", (1, 1))

    def test_point_lies_on_divisor_only(self, rng):
        from conftest import random_divisor

        for _ in range(25):
            target = random_divisor(rng, 2)
            avoid = [d for d in (random_divisor(rng, 2) for _ in range(2)) if d != target]
            try:
                lam, b = generic_point_on_divisor(target, avoid, 8)
            except ValueError:
                continue
            assert point_on_divisor(target, lam, b)
            assert not any(point_on_divisor(d, lam, b) for d in avoid)

    def test_divisor_in_avoid_rejected(self):
        with pytest.raises(ValueError):
            generic_point_on_divisor(H_DIVISOR, [H_DIVISOR], 4)


class TestSpecializationMultiplicity:
    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        record = specialization_multiplicity(E, H_DIVISOR, 1, 4)
        assert record.ord == 2 and record.jordan == 2 and record.generic

    def test_single(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        record = specialization_multiplicity(E, H_DIVISOR, 1, 4)
        assert record.ord == 1 and record.jordan == 1

    def test_absent_divisor(self):
        E = diag_complex([P("t1-1")])
        record = specialization_multiplicity(E, H_DIVISOR, 1, 4)
        assert record.ord == 0 and record.jordan == 0

    def test_forced_collision_reports_nongeneric(self):
        # one map vanishing on two divisors; the point (-1, -1) sits on both
        ring = Ring(2, True, 2)
        E = diag_complex([parse_poly("t1+1", ring) * parse_poly("t2+1", ring)], ring)
        c1 = PrimeTorusDivisor((1, 0), angle(1, 2))
        record = specialization_multiplicity(
            E, c1, 1, 4, point=(angle(1, 2), (1, 1))
        )
        assert not record.generic
        assert record.ord == 1 and record.jordan == 2

    def test_base_change_tau_compatibility(self, rng):
        from conftest import random_binomial

        ring = Ring(2, True, 6)
        for _ in range(10):
            h1 = random_binomial(rng, ring)
            h2 = random_binomial(rng, ring)
            E = diag_complex([h1 * h2], ring)
            b = (rng.randint(1, 3), rng.randint(1, 3))
            cands = candidate_divisors(E, 3)
            expected = set()
            for c in cands:
                expected.update(tau_preimage([list(b)], c))
            substituted = base_change(E, b)
            degree = substituted.differential(0)[0][0].max_total_degree()
            max_den = max((d.xi.den for d in expected), default=1)
            bound = max(1, -(-max_den // max(degree, 1)))
            specialized = candidate_divisors(substituted, bound)
            assert set(specialized) == expected
