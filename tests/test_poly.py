import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detloci.arith import (
    CycloElem,
    TorsionAngle,
    cyclotomic_poly,
    euler_phi,
    root_multiplicity,
    zeta_power,
)
from detloci.poly import (
    IdealGens,
    LaurentPoly,
    ParseError,
    Ring,
    fibres,
    format_poly,
    ideal_valuation,
    parse_poly,
    sum_of_products,
    u_dense,
    u_laurent,
    valuation_along,
)
from detloci.torus import PrimeTorusDivisor

from conftest import (
    coeff_rows,
    division_multiplicity,
    exact_divide,
    oracle_format_poly,
    oracle_mul,
    oracle_parse_poly,
    oracle_parse_terms,
    oracle_split_fibres,
    oracle_valuation,
    random_binomial_product,
    random_divisor,
    random_torsion_point,
    record_results,
    upoly_divmod_in,
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


    def test_capped(self, monkeypatch, rng):
        """With a cap, min(v, cap), and no multiplicity >= cap is tested."""
        seen = 0
        for _ in range(40):
            C = random_divisor(rng, 2)
            h = LaurentPoly.binomial_divisor(2, C, R2.cyclotomic_order)
            f = random_binomial_product(rng, R2)
            if f.is_zero():
                continue
            f = f * h ** rng.randint(0, 3)
            full = valuation_along(f, C)
            for cap in range(0, full + 2):
                calls = []
                record_results(monkeypatch, "root_multiplicity", calls)
                assert valuation_along(f, C, cap=cap) == min(full, cap)
                monkeypatch.undo()
                # root_multiplicity(order, rows, xi, cap) tries no j >= its cap
                assert all(args[3] is not None and args[3] <= cap for args in calls)
                seen += full > cap
        assert seen >= 10


class TestIdealValuation:
    def test_running_minimum_is_the_cap(self, monkeypatch):
        ring = Ring(2, True, 3)
        h = parse_poly("t1*t2-e(1/3)", ring)
        C = PrimeTorusDivisor((1, 1), TorsionAngle.make(1, 3))
        ideal = IdealGens.unformed(ring, [h**4, h**2 * P("t1-2"), h**3, h**2])
        import detloci.poly as poly_module

        caps = []
        real = poly_module.valuation_along

        def recording(f, divisor, cap=None):
            caps.append(cap)
            return real(f, divisor, cap=cap)

        monkeypatch.setattr(poly_module, "valuation_along", recording)
        assert ideal_valuation(ideal, C) == 2
        assert caps == [None, 4, 2, 2]

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

    def test_divisor_of_another_torus_rejected(self):
        # (0) used to answer infinity here while (1) refused the divisor
        C = PrimeTorusDivisor((1, 0, 0), TorsionAngle.make(0, 1))
        for ideal in (IdealGens.zero_ideal(R2), IdealGens.unit_ideal(R2)):
            with pytest.raises(ValueError, match="different torus"):
                ideal_valuation(ideal, C)


class TestValuationStopsAtZero:
    def test_fibres_stop_at_first_zero(self, monkeypatch):
        # along u = (1, 0) the fibres are t2^0: t1^2-2t1+1 and t2^1: t1-2
        f = P("t1^2-2*t1+1") + P("t1*t2-2*t2")
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))
        mults = record_results(monkeypatch, "root_multiplicity")
        assert valuation_along(f, C) == 0
        assert mults == [0]

    def test_monomials_are_valued_without_fibres(self, monkeypatch):
        ring = Ring(2, True, 6)
        monomials = [P("1"), P("3/2*e(1/3)*t1^2*t2^-1", ring), P("-t2^4")]
        divisors = [
            PrimeTorusDivisor(u, TorsionAngle.make(*a))
            for u in ((1, 0), (0, 1), (1, 1), (2, 1))
            for a in ((0, 1), (1, 2), (1, 3))
        ]
        expected = [[oracle_valuation(f, C) for C in divisors] for f in monomials]
        mults = record_results(monkeypatch, "root_multiplicity")
        assert [[valuation_along(f, C) for C in divisors] for f in monomials] == expected
        assert {v for row in expected for v in row} == {0}
        assert ideal_valuation(IdealGens.unit_ideal(ring), divisors[-1]) == 0
        assert mults == []

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


# ---------------------------------------------------------------------------
# The torsion-point kernel: root multiplicities and evaluation

ORDERS = [1, 2, 3, 4, 6, 12]
ANGLE_DENS = [1, 2, 3, 4, 6, 8, 12]


def field_elems(order: int):
    d = euler_phi(order)
    return st.builds(
        lambda nums, den: CycloElem(order, [Fraction(n, den) for n in nums]),
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        st.integers(1, 3),
    )


def torsion_angles():
    return st.builds(TorsionAngle.make, st.integers(0, 23), st.sampled_from(ANGLE_DENS))


@st.composite
def one_variable_polys(draw, order: int, laurent: bool = True):
    """A nonzero one-variable polynomial with at most four consecutive terms."""
    low = draw(st.integers(-2, 2)) if laurent else draw(st.integers(0, 2))
    coeffs = draw(st.lists(field_elems(order), min_size=1, max_size=4))
    f = LaurentPoly.make(1, order, {(low + k,): c for k, c in enumerate(coeffs)})
    return f if not f.is_zero() else LaurentPoly.one(1, order)


@st.composite
def planted_roots(draw, laurent: bool = True):
    """(f, xi) with f = (t - xi)^m * g, m in 0..3 and g a random cofactor."""
    order = draw(st.sampled_from(ORDERS))
    xi = draw(torsion_angles())
    g = draw(one_variable_polys(order, laurent))
    h = LaurentPoly.binomial_divisor(1, PrimeTorusDivisor((1,), xi), order)
    return h ** draw(st.integers(0, 3)) * g, xi


def coeff_map(f: LaurentPoly) -> dict:
    return {k: c for (k,), c in f.terms.items()}


def termwise_value(f: LaurentPoly, point, order: int) -> CycloElem:
    """sum of c * zeta^k over the terms, one field multiply and add per term."""
    powers = [(order // a.den) * a.num for a in point]
    total = CycloElem.zero(order)
    for e, c in f.terms.items():
        k = sum(x * p for x, p in zip(e, powers))
        total = total + c.lift(order) * zeta_power(order, k % order)
    return total


class TestRootMultiplicity:
    @given(planted_roots())
    @settings(max_examples=150)
    def test_against_repeated_exact_division(self, case):
        f, xi = case
        expected = oracle_valuation(f, PrimeTorusDivisor((1,), xi))
        assert root_multiplicity(*coeff_rows(coeff_map(f)), xi) == expected
        for cap in range(4):
            assert root_multiplicity(*coeff_rows(coeff_map(f)), xi, cap) == min(expected, cap)

    @given(planted_roots(laurent=False))
    @settings(max_examples=100)
    def test_against_repeated_linear_division(self, case):
        f, xi = case
        value = CycloElem.from_angle(math.lcm(f.order, xi.den), xi)
        assert root_multiplicity(*coeff_rows(coeff_map(f)), xi) == division_multiplicity(f, value)

    def test_seeded_fibres_against_exact_division(self, rng):
        ring = Ring(2, True, 6)
        for _ in range(60):
            f = random_binomial_product(rng, ring, max_factors=3)
            if f.is_zero():
                continue
            divisor = random_divisor(rng, 2)
            for fibre in fibres(f, divisor.u):
                terms = {(k,): CycloElem.make(f.order, row) for k, row in fibre.items()}
                g = LaurentPoly.make(1, f.order, terms)
                expected = oracle_valuation(g, PrimeTorusDivisor((1,), divisor.xi))
                assert root_multiplicity(f.order, fibre, divisor.xi) == expected
            assert valuation_along(f, divisor) == oracle_valuation(f, divisor)

    def test_valuation_is_least_fibre_multiplicity(self, rng):
        # sum_s t2^s (t1 - xi)^(m_s) g_s(t1): the fibres along (1, 0) carry
        # different multiplicities, in no particular order of fibre length
        ring = Ring(2, True, 6)
        seen = set()
        for _ in range(40):
            xi = TorsionAngle.make(rng.randrange(6), 6)
            h = parse_poly(f"t1-e({xi})", ring)
            f = LaurentPoly.zero(2, 6)
            for s in range(rng.randint(2, 3)):
                g = parse_poly(
                    "+".join(f"{rng.randint(1, 3)}*t1^{k}" for k in range(rng.randint(1, 3))),
                    ring,
                )
                f = f + P(f"t2^{s}", ring) * h ** rng.randint(0, 3) * g
            divisor = PrimeTorusDivisor((1, 0), xi)
            expected = oracle_valuation(f, divisor)
            assert valuation_along(f, divisor) == expected
            seen.add(expected)
        assert len(seen) >= 3

    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(one_variable_polys(n), one_variable_polys(n))
    ), torsion_angles())
    @settings(max_examples=100)
    def test_additive_on_products(self, pair, xi):
        f, g = pair
        assert root_multiplicity(*coeff_rows(coeff_map(f * g)), xi) == (
            root_multiplicity(*coeff_rows(coeff_map(f)), xi)
            + root_multiplicity(*coeff_rows(coeff_map(g)), xi)
        )

    def test_zero_polynomial_raises(self):
        xi = TorsionAngle.make(1, 3)
        with pytest.raises(ArithmeticError):
            root_multiplicity(*coeff_rows({}), xi)
        with pytest.raises(ArithmeticError):
            root_multiplicity(*coeff_rows({0: CycloElem.zero(3), 2: CycloElem.zero(3)}), xi)


class TestEvaluate:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_against_termwise_sum(self, seed):
        rng = random.Random(seed)
        ring = Ring(2, True, rng.choice([1, 3, 4, 6]))
        f = random_binomial_product(rng, ring, max_factors=3)
        f = f + random_binomial_product(rng, ring)
        point = random_torsion_point(rng, 2)
        order = math.lcm(f.order, *(a.den for a in point)) * rng.choice([1, 2])
        value = f.evaluate(point, order)
        expected = termwise_value(f, point, order)
        assert value == expected
        assert (value.order, value.nums, value.den) == (order, expected.nums, expected.den)

    def test_order_must_contain_the_coefficients(self):
        f = parse_poly("t1-e(1/3)", Ring(1, True, 3))
        with pytest.raises(ValueError):
            f.evaluate((TorsionAngle.make(1, 2),), 2)


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

    def test_gens_formed_once(self, monkeypatch):
        made = []
        make = IdealGens.make

        def counting(ring, gens):
            made.append(1)
            return make(ring, gens)

        monkeypatch.setattr(IdealGens, "make", staticmethod(counting))
        ring = Ring(2, True, 3)
        h = parse_poly("t1*t2-e(1/3)", ring)
        raw = IdealGens.unformed(ring, [h * h, LaurentPoly.zero(2, 12), h])
        products = IdealGens.sum_of_products(ring, [(raw, raw)])
        formed = make(ring, [h])
        special = [IdealGens.zero_ideal(ring), IdealGens.unit_ideal(ring), formed]
        for ideal, makes in [(raw, 1), (products, 1)] + [(x, 0) for x in special]:
            made.clear()
            first = ideal.gens
            assert ideal.gens is first
            assert len(made) == makes
        assert products.gens == make(ring, [h * h, h * h * h, h**4]).gens

    def test_ring_fixed_at_construction(self, rng):
        base = Ring(2, True, 1)
        h = parse_poly("t1-e(1/3)", base)
        high_zero = LaurentPoly.zero(2, 12)
        # a zero generator or a zero factor of a higher order leaves the field as it is
        assert IdealGens.unformed(base, [h, high_zero]).ring == Ring(2, True, 3)
        zero_factor = IdealGens.unformed(base, [high_zero])
        quartic = IdealGens.unformed(base, [parse_poly("t2-e(1/4)", base)])
        assert IdealGens.sum_of_products(base, [(zero_factor, quartic)]).ring == base
        for _ in range(30):
            pool = [zero_factor, quartic, IdealGens.unit_ideal(base)]
            pool.append(IdealGens.zero_ideal(Ring(2, True, 12)))
            for _ in range(3):
                order = rng.choice(ORDERS)
                gens = [random_binomial_product(rng, Ring(2, True, order)) for _ in range(2)]
                gens.insert(rng.randint(0, 2), LaurentPoly.zero(2, 12))
                ideal = IdealGens.unformed(base, gens)
                assert ideal.ring == IdealGens.make(base, gens).ring
                pool.append(ideal)
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 3))]
            ideal = IdealGens.sum_of_products(base, pairs)
            products = [f * g for a, b in pairs for f in a.gens for g in b.gens]
            assert ideal.ring == IdealGens.make(base, products).ring
            assert ideal.is_zero() == (not products)
            nested = IdealGens.sum_of_products(base, [(ideal, rng.choice(pool))])
            products = [f * g for a, b in nested.parts for f in a.gens for g in b.gens]
            assert nested.ring == IdealGens.make(base, products).ring


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


# (text, nvars, laurent, message, position) as the character-walk parser
# gave them; every position counts characters of the text without whitespace
MALFORMED = [
    ("", 2, True, "empty polynomial", 0),
    ("   ", 2, True, "empty polynomial", 0),
    ("-", 2, True, "dangling sign", 1),
    ("t1+-", 2, True, "dangling sign", 4),
    ("2/0", 1, True, "denominator must be positive", 2),
    ("2/", 1, True, "expected an integer", 2),
    ("2/-3", 1, True, "expected an integer", 2),
    ("e(1/3", 1, True, "unterminated unit-root constant", 0),
    ("e(1)", 1, True, "unit root must be written e(a/b)", 0),
    ("e()", 1, True, "unit root must be written e(a/b)", 0),
    ("e(a/3)", 1, True, "bad unit-root constant", 0),
    ("e(1/2/3)", 1, True, "bad unit-root constant", 0),
    ("e(1/0)", 1, True, "unit-root denominator must be positive", 0),
    ("e(1/-3)", 1, True, "unit-root denominator must be positive", 0),
    ("t3", 2, True, "variable index out of range 1..2", 2),
    ("t1 - t3", 2, True, "variable index out of range 1..2", 5),
    ("t3^x", 2, True, "variable index out of range 1..2", 2),
    ("t0", 2, True, "variable index out of range 1..2", 2),
    ("t1^-2", 1, False, "negative exponents need the Laurent flag and a t-variable", 5),
    ("s1^-2", 1, True, "negative exponents need the Laurent flag and a t-variable", 5),
    ("t1*(t2-1)", 2, True, "parenthesized subexpressions are not allowed", 3),
    ("(t1)", 2, True, "parenthesized subexpressions are not allowed", 0),
    ("t^2", 1, True, "expected an integer", 1),
    ("s1^", 1, True, "expected an integer", 3),
    ("t1^-", 1, True, "expected an integer", 4),
    ("t1^+2", 1, True, "expected an integer", 3),
    ("2 * t 1 ^ - x", 1, True, "expected an integer", 6),
    ("t1^1_0", 1, True, "expected a factor", 4),
    ("2*", 1, True, "expected a factor", 2),
    ("2*-3", 1, True, "expected a factor", 2),
    ("2^3", 1, True, "expected a factor", 1),
    ("1/2/3", 1, True, "expected a factor", 3),
    ("e1", 1, True, "expected a factor", 0),
    ("t1*e(1/3))", 1, True, "expected a factor", 9),
]

# integers are ASCII decimal: these were read through str.isdigit and int
NON_ASCII = [
    ("s1^\u00b2", "expected an integer", 3),
    ("\u0663*s1", "expected a factor", 0),
    ("1/\uff12", "expected an integer", 2),
    ("e(1_0/3)", "bad unit-root constant", 0),
    ("e(\u0663/4)", "bad unit-root constant", 0),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, nvars, laurent, message, position", MALFORMED)
    def test_message_and_position(self, text, nvars, laurent, message, position):
        for parse in (parse_poly, oracle_parse_poly):
            with pytest.raises(ParseError) as info:
                parse(text, Ring(nvars, laurent, 1))
            assert str(info.value) == f"{message} (at position {position})"
            assert info.value.position == position

    @pytest.mark.parametrize("text, message, position", NON_ASCII)
    def test_only_ascii_digits(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_poly(text, Ring(1, True, 1))
        assert str(info.value) == f"{message} (at position {position})"


def assert_canonical_rows(p: LaurentPoly) -> None:
    """p keeps one positive den and phi(order) integer numerators per exponent
    vector, no zero row, and no factor shared by den and every numerator."""
    assert type(p.den) is int and p.den > 0
    for e, row in p.rows.items():
        assert len(e) == p.nvars and all(type(x) is int for x in e)
        assert type(row) is tuple and len(row) == euler_phi(p.order) and any(row)
        assert all(type(n) is int for n in row)
    assert math.gcd(p.den, *(n for row in p.rows.values() for n in row)) == 1


def assert_same_terms(p: LaurentPoly, q: LaurentPoly) -> None:
    assert (p.nvars, p.order) == (q.nvars, q.order)
    assert {e: (c.nums, c.den) for e, c in p.terms.items()} == {
        e: (c.nums, c.den) for e, c in q.terms.items()
    }


@st.composite
def grammar_texts(draw):
    """A text of the grammar and its ring, at field orders 1-24: several e()
    factors per term, zero coefficients, and repeated monomials that cancel."""
    top = draw(st.integers(1, 24))
    dens = [d for d in range(1, top + 1) if top % d == 0]
    nvars, laurent = draw(st.integers(1, 3)), draw(st.booleans())
    ring = Ring(nvars, laurent, draw(st.sampled_from(dens)))
    bodies = []
    for _ in range(draw(st.integers(1, 4))):
        factors = []
        for _ in range(draw(st.integers(0, 2))):
            num = str(draw(st.integers(0, 12)))
            factors.append(num + (f"/{draw(st.integers(1, 6))}" if draw(st.booleans()) else ""))
        for _ in range(draw(st.integers(0, 3))):
            b = draw(st.sampled_from(dens))
            factors.append(f"e({draw(st.integers(-2 * b, 2 * b))}/{b})")
        for _ in range(draw(st.integers(0, 2))):
            letter = draw(st.sampled_from("st"))
            power = draw(st.integers(-2 if laurent and letter == "t" else 0, 3))
            factors.append(f"{letter}{draw(st.integers(1, nvars))}^{power}")
        factors = draw(st.permutations(factors)) or ["1"]
        bodies.append(draw(st.sampled_from(["+", "-", "--", "+-+"])) + "*".join(factors))
    # the same terms again with the other sign, so that they cancel
    bodies += ["-" + b for b in bodies if draw(st.booleans())]
    text = "".join(draw(st.permutations(bodies)))
    if draw(st.booleans()):
        text = text.replace("*", " * ")
    return text, ring


class TestParserAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(grammar_texts())
    def test_terms_match(self, case):
        text, ring = case
        got = parse_poly(text, ring)
        assert_canonical_rows(got)
        assert_same_terms(got, oracle_parse_poly(text, ring))

    @settings(max_examples=300, deadline=None)
    @given(grammar_texts())
    def test_format_and_round_trip(self, case):
        text, ring = case
        p = parse_poly(text, ring)
        out = format_poly(p, ring.laurent)
        assert out == oracle_format_poly(p, ring.laurent)
        assert_same_terms(parse_poly(out, Ring(ring.nvars, ring.laurent, p.order)), p)

    @settings(max_examples=500, deadline=None)
    @given(st.text("0123456789+-*/^()est12 ", max_size=14), st.integers(1, 2), st.booleans())
    def test_any_text_fails_like_the_oracle(self, text, nvars, laurent):
        ring = Ring(nvars, laurent, 1)
        try:
            expected = oracle_parse_terms(text, nvars, laurent)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                parse_poly(text, ring)
            assert (str(info.value), info.value.position) == (str(exc), exc.position)
            return
        # keep the field small: a text such as e(1/97) would only time cyclotomic tables
        assume(all(a.den <= 24 for _, a, _ in expected))
        assert_same_terms(parse_poly(text, ring), oracle_parse_poly(text, ring))


class TestFibresSplitOnce:
    def test_one_split_per_generator_and_direction(self, monkeypatch):
        import detloci.poly as poly_module

        ring = Ring(2, True, 6)
        angles = [TorsionAngle.make(*a) for a in ((0, 1), (1, 2), (1, 3), (1, 6))]
        base = LaurentPoly.one(2, 6)
        for xi in angles:
            base = base * LaurentPoly.binomial_divisor(2, PrimeTorusDivisor((1, 1), xi), 6)
        ideal = IdealGens.make(ring, [base, base * P("t1-2"), base * P("t2+3")])
        splits = []
        real = poly_module._split_fibres

        def counting(f, u):
            splits.append((id(f), u))
            return real(f, u)

        monkeypatch.setattr(poly_module, "_split_fibres", counting)
        calls = record_results(monkeypatch, "valuation_along")
        for xi in angles:
            assert ideal_valuation(ideal, PrimeTorusDivisor((1, 1), xi)) == 1
            # no generator vanishes along (1, 0): the first one ends each search
            assert ideal_valuation(ideal, PrimeTorusDivisor((1, 0), xi)) == 0
        assert len(calls) == 4 * (len(ideal.gens) + 1)
        assert len(splits) == len(set(splits)) == len(ideal.gens) + 1
        for g in ideal.gens:
            assert fibres(g, (1, 1)) == real(g, (1, 1))


# exponents up to +-4 around base points, u with leading zeros and u_k > 1
DIRECTIONS = {
    2: [(0, 1), (2, 3), (1, 0)],
    3: [(0, 0, 1), (3, 0, 2)],
    4: [(0, 2, 0, 3), (0, 0, 0, 1)],
}


@st.composite
def fibred_polys(draw):
    """(f, u): a rational Laurent polynomial in 2-4 variables made of a few
    runs along u, its terms told apart by distinct coefficients 1, 2, ..."""
    n = draw(st.integers(2, 4))
    u = draw(st.sampled_from(DIRECTIONS[n]))
    exps = set()
    for base in draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), min_size=1, max_size=4)):
        steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
        exps.update(tuple(x + k * y for x, y in zip(base, u)) for k in steps)
    terms = {e: CycloElem.from_rational(1, k + 1) for k, e in enumerate(sorted(exps))}
    return LaurentPoly.make(n, 1, terms), u


class TestFibresByBasePoint:
    @settings(max_examples=200, deadline=None)
    @given(fibred_polys())
    def test_same_fibres_as_the_lattice_transform(self, case):
        f, u = case
        got = fibres(f, u)
        want = {frozenset(fibre.values()): fibre for fibre in oracle_split_fibres(f, u)}
        assert [len(fibre) for fibre in got] == sorted(map(len, got))
        assert len(got) == len(want)
        for fibre in got:
            match = want[frozenset(fibre.values())]
            key = {nums: k for k, nums in match.items()}
            # one constant per fibre: the Hasse sums change by a power of xi only
            assert len({k - key[nums] for k, nums in fibre.items()}) == 1

    def test_negative_exponents_floor(self):
        # t1^-1 and t1*t2^3 differ by u = (2, 3): lambda = -1 // 2 = -1 and 1 // 2 = 0
        f = P("t1^-1+2*t1*t2^3")
        assert fibres(f, (2, 3)) == [{-1: (1,), 0: (2,)}]

    @pytest.mark.parametrize("u", [(2, 4), (0, 0)])
    def test_non_primitive_direction_rejected(self, u):
        with pytest.raises(ValueError, match="primitive"):
            fibres(P("t1*t2-1"), u)


# ---------------------------------------------------------------------------
# One-variable long division against the multivariate division as the oracle


def u_degree(f: LaurentPoly) -> int:
    return max(e for (e,) in f.terms)


@st.composite
def division_cases(draw):
    """(f, g): a dividend with 0-6 coefficients (maybe zero), a nonzero divisor."""
    order = draw(st.sampled_from(ORDERS))
    coeffs = draw(st.lists(field_elems(order), min_size=0, max_size=6))
    f = LaurentPoly.make(1, order, {(k,): c for k, c in enumerate(coeffs)})
    lower = draw(st.lists(field_elems(order), min_size=0, max_size=3))
    if draw(st.booleans()):
        lead = CycloElem.one(order)
    else:
        lead = draw(field_elems(order).filter(lambda c: not c.is_zero()))
    g = LaurentPoly.make(
        1, order, {**{(k,): c for k, c in enumerate(lower)}, (len(lower),): lead}
    )
    return f, g


class TestUDivmod:
    @given(division_cases())
    @settings(max_examples=200)
    def test_against_multivariate_division(self, case):
        f, g = case
        q, r = map(u_laurent, u_dense(f, f.order).divmod(u_dense(g, f.order)))
        assert (q, r) == upoly_divmod_in(f, g, 0)
        assert q * g + r == f
        assert r.is_zero() or u_degree(r) < u_degree(g)

    @given(division_cases(), st.data())
    @settings(max_examples=100)
    def test_planted_quotient_and_remainder(self, case, data):
        # f = h*g + r cancels exactly at every step of the division
        h, g = case
        lower = data.draw(st.lists(field_elems(g.order), max_size=u_degree(g)))
        r = LaurentPoly.make(1, g.order, {(k,): c for k, c in enumerate(lower)})
        quotient, remainder = u_dense(h * g + r, g.order).divmod(u_dense(g, g.order))
        assert (u_laurent(quotient), u_laurent(remainder)) == (h, r)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            u_dense(LaurentPoly.one(1, 6), 6).divmod(u_dense(LaurentPoly.zero(1, 6), 6))
        with pytest.raises(ZeroDivisionError):
            u_dense(LaurentPoly.zero(1), 1).divmod(u_dense(LaurentPoly.zero(1), 1))


# ---------------------------------------------------------------------------
# Ring laws of LaurentPoly in two variables: exact division undoes a product,
# and the valuation along a binomial divisor is additive on products

LAW_ORDERS = [1, 6, 12]


@st.composite
def two_variable_polys(draw, order: int):
    """A nonzero Laurent polynomial in two variables with one to four terms."""
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    terms = draw(st.dictionaries(exps, field_elems(order), min_size=1, max_size=4))
    f = LaurentPoly.make(2, order, terms)
    return f if not f.is_zero() else LaurentPoly.one(2, order)


@st.composite
def planted_divisors(draw, order: int):
    """t^u - xi with u primitive in N^2 and xi in the field Q(zeta_order)."""
    u = draw(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda u: math.gcd(*u) == 1)
    )
    return PrimeTorusDivisor(u, TorsionAngle.make(draw(st.integers(0, order - 1)), order))


class TestLaurentPolyLaws:
    @given(st.sampled_from(LAW_ORDERS).flatmap(
        lambda n: st.tuples(two_variable_polys(n), two_variable_polys(n))
    ))
    @settings(max_examples=100, deadline=None)
    def test_exact_divide_undoes_a_product(self, pair):
        f, g = pair
        assert exact_divide(f * g, g) == f

    @given(st.sampled_from(LAW_ORDERS).flatmap(
        lambda n: st.tuples(
            two_variable_polys(n),
            two_variable_polys(n),
            planted_divisors(n),
            st.integers(0, 2),
            st.integers(0, 2),
        )
    ))
    @settings(max_examples=100, deadline=None)
    def test_valuation_additive_on_planted_divisors(self, case):
        f0, g0, divisor, m, n = case
        h = LaurentPoly.binomial_divisor(2, divisor, f0.order)
        f, g = h**m * f0, h**n * g0
        vf, vg = valuation_along(f, divisor), valuation_along(g, divisor)
        assert vf >= m and vg >= n
        assert valuation_along(f * g, divisor) == vf + vg


# ---------------------------------------------------------------------------
# The fused product kernel against the term-by-term oracle

KERNEL_ORDERS = [1, 3, 4, 5, 7, 12]


@st.composite
def sparse_polys(draw):
    """A sparse two-variable polynomial, possibly zero, at one of the kernel
    orders, with exponents in -2..2 and coefficient denominators up to 6."""
    order = draw(st.sampled_from(KERNEL_ORDERS))
    d = euler_phi(order)
    coeff = st.builds(
        lambda nums, den: CycloElem(order, [Fraction(n, den) for n in nums]),
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        st.integers(1, 6),
    )
    terms = draw(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), coeff, max_size=4))
    return LaurentPoly.make(2, order, terms)


def oracle_sum_of_products(nvars, order, triples) -> LaurentPoly:
    total = LaurentPoly.zero(nvars, order)
    for s, a, b in triples:
        piece = oracle_mul(a, b)
        total = total + piece if s > 0 else total - piece
    return total


def identical(f: LaurentPoly, g: LaurentPoly) -> bool:
    """Same field order and the same canonical numerators and denominator per term."""
    return f.order == g.order and {e: (c.nums, c.den) for e, c in f.terms.items()} == {
        e: (c.nums, c.den) for e, c in g.terms.items()
    }


class TestSumOfProducts:
    @given(
        st.sampled_from(KERNEL_ORDERS),
        st.lists(st.tuples(st.sampled_from([1, -1]), sparse_polys(), sparse_polys()), max_size=4),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_term_by_term_oracle(self, order, triples, cancel):
        if cancel:
            # every pair again with the opposite sign: the sum is zero
            triples = triples + [(-s, a, b) for s, a, b in triples]
        got = sum_of_products(2, order, triples)
        want = oracle_sum_of_products(2, order, triples)
        assert identical(got, want)
        if cancel or not triples:
            assert got.is_zero()

    @given(sparse_polys(), sparse_polys())
    @settings(max_examples=100, deadline=None)
    def test_product_is_the_kernel_on_one_pair(self, a, b):
        assert identical(a * b, oracle_mul(a, b))

    def test_empty_and_mismatched(self):
        assert identical(sum_of_products(2, 12, []), LaurentPoly.zero(2, 12))
        with pytest.raises(ValueError, match="different rings"):
            sum_of_products(2, 1, [(1, P("t1"), LaurentPoly.one(3))])
        with pytest.raises(ValueError, match="different rings"):
            P("t1") * LaurentPoly.one(3)


# ---------------------------------------------------------------------------
# The coefficient store: integer numerator rows over one denominator


def termwise(p: LaurentPoly) -> dict:
    return {e: (c.nums, c.den) for e, c in p.terms.items()}


def oracle_terms(pieces, order: int) -> dict:
    """sum of the (exponents, field element) pieces, one CycloElem addition per
    piece, zero sums dropped, as termwise gives it."""
    out: dict = {}
    for e, c in pieces:
        c = c.lift(order)
        out[e] = out[e] + c if e in out else c
    return {e: (c.nums, c.den) for e, c in out.items() if not c.is_zero()}


class TestRowStore:
    """Every constructor and operation returns canonical rows, and the `terms`
    view equals a term-by-term oracle in CycloElem arithmetic."""

    @given(
        st.sampled_from([1, 2, 3]),
        st.dictionaries(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.sampled_from([1, 2, 3, 4, 6]).flatmap(field_elems),
            max_size=4,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_make(self, order, terms):
        p = LaurentPoly.make(2, order, terms)
        assert_canonical_rows(p)
        assert p.order == math.lcm(order, *(c.order for c in terms.values()))
        assert termwise(p) == oracle_terms(terms.items(), p.order)

    @given(
        sparse_polys(),
        sparse_polys(),
        st.sampled_from([1, 2, 3, 4, 6]).flatmap(field_elems),
        st.integers(2, 3),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_operations(self, a, b, c, m, offset, powers):
        top = math.lcm(a.order, b.order)
        ta, tb = list(a.terms.items()), list(b.terms.items())
        cases = [
            (a + b, oracle_terms(ta + tb, top)),
            (a - b, oracle_terms(ta + [(e, -x) for e, x in tb], top)),
            (-a, oracle_terms([(e, -x) for e, x in ta], a.order)),
            (a * b, termwise(oracle_mul(a, b))),
            (a.lift(m * a.order), oracle_terms(a.terms.items(), m * a.order)),
            (a.shift(offset), oracle_terms(
                [(tuple(map(sum, zip(e, offset))), x) for e, x in a.terms.items()], a.order
            )),
            (a.substitute_powers(powers), oracle_terms(
                [((e[0] * powers[0] + e[1] * powers[1],), x) for e, x in a.terms.items()], a.order
            )),
        ]
        scaled_top = math.lcm(a.order, c.order)
        scaled = [(e, x.lift(scaled_top) * c.lift(scaled_top)) for e, x in a.terms.items()]
        cases.append((a.scale(c), oracle_terms(scaled, scaled_top)))
        for got, want in cases:
            assert_canonical_rows(got)
            assert termwise(got) == want

    @given(sparse_polys(), st.sampled_from([1, 2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_dense_round_trip(self, a, m):
        f = a.substitute_powers((1, 2)).clear_units()
        order = m * f.order
        dense = u_dense(f, order)
        back = u_laurent(dense)
        assert_canonical_rows(back)
        assert back == f and back.order == order
        assert termwise(back) == oracle_terms(f.terms.items(), order)
        assert u_dense(back, order) == dense
        if not f.is_zero():
            assert dense.rows[-1] and len(dense.rows) == max(k for k, in f.rows) + 1
        with pytest.raises(ValueError, match="exponents >= 0"):
            u_dense(LaurentPoly.variable(1, 0, -1, order), order)

    @given(
        st.lists(field_elems(3), min_size=1, max_size=3),
        st.sampled_from(ANGLE_DENS),
        st.integers(0, 2),
        st.integers(0, 23),
        st.sampled_from([1, -1, 2, 6]),
    )
    @settings(max_examples=100, deadline=None)
    def test_root_multiplicity_on_rows(self, coeffs, b, m, a, scale):
        # Phi_b(t)^m * g over Q(zeta_3): every xi of exact denominator b is a root of Phi_b
        xi = TorsionAngle.make(a, b)
        assume(xi.den == b)
        g = LaurentPoly.make(1, 3, {(k,): c for k, c in enumerate(coeffs)})
        assume(not g.is_zero())
        phi_b = {(k,): CycloElem.from_rational(3, x) for k, x in enumerate(cyclotomic_poly(b))}
        phi_b = LaurentPoly.make(1, 3, phi_b)
        f = phi_b**m * g
        expected = oracle_valuation(f, PrimeTorusDivisor((1,), xi))
        assert expected >= m
        rows = {k: row for (k,), row in f.rows.items()}
        assert root_multiplicity(3, rows, xi) == expected
        scaled = {k: tuple(scale * n for n in row) for k, row in rows.items()}
        assert root_multiplicity(3, scaled, xi) == expected
        lifted = f.lift(12)
        assert root_multiplicity(12, {k: row for (k,), row in lifted.rows.items()}, xi) == expected
