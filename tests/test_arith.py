import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detloci.arith import (
    CycloElem,
    TorsionAngle,
    angle_roots,
    cyclotomic_poly,
    euler_phi,
    inverse_row,
    prime_root_of_unity,
    root_multiplicity,
)

from conftest import coeff_rows

angles = st.builds(
    lambda num, den: TorsionAngle.make(num, den),
    st.integers(-30, 30),
    st.integers(1, 24),
)


# Dense polynomials over Q (Fraction lists, constant first) for the oracles;
# the library divides only by monic integer polynomials and has no such helpers.


def rpoly_trim(coeffs) -> tuple[Fraction, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(Fraction(c) for c in coeffs[:end])


def rpoly_mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return rpoly_trim(out)


def rpoly_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    b = rpoly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(rpoly_trim(a))
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        k = len(rem) - len(b)
        quot[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
        while rem and rem[-1] == 0:
            rem.pop()
    return rpoly_trim(quot), rpoly_trim(rem)


def oracle_cyclotomic(n: int) -> tuple[int, ...]:
    """Quotient recursion: divide t^n - 1 by the product of lower-order factors."""
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    den: list[Fraction] = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = list(rpoly_mul(den, oracle_cyclotomic_frac(d)))
    quot, rem = rpoly_divmod(num, den)
    assert not rem
    return tuple(int(c) for c in quot)


def oracle_cyclotomic_frac(n: int) -> list[Fraction]:
    return [Fraction(c) for c in oracle_cyclotomic(n)]


def rational_coeffs(p) -> dict[int, CycloElem]:
    """The nonzero rational coefficients of p, constant first, as field elements."""
    return {k: CycloElem.from_rational(1, c) for k, c in enumerate(p) if c}


def oracle_unit_root_multiplicity(p, xi: TorsionAngle) -> int:
    """Largest m with Phi_b^m | p, xi = a/b, by long division over Fractions."""
    coeffs = rpoly_trim(p)
    phi = [Fraction(c) for c in cyclotomic_poly(xi.den)]
    mult = 0
    while True:
        quot, rem = rpoly_divmod(coeffs, phi)
        if rem:
            return mult
        mult += 1
        coeffs = quot


class TestTorsionAngle:
    def test_reduced_storage(self):
        a = TorsionAngle.make(4, 6)
        assert (a.num, a.den) == (2, 3)
        assert TorsionAngle.make(-1, 3) == TorsionAngle(2, 3)
        assert TorsionAngle.make(7, 7) == TorsionAngle(0, 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            TorsionAngle(2, 4)
        with pytest.raises(ValueError):
            TorsionAngle(1, 0)

    @given(angles, angles)
    def test_product_closed(self, a, b):
        c = a * b
        assert 0 <= c.num < c.den or (c.num, c.den) == (0, 1)
        assert math.gcd(c.num, c.den) == 1

    @given(angles)
    def test_inverse(self, a):
        assert (a * a.inverse()).is_one()


class TestCyclotomic:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, (-1, 1)),
            (2, (1, 1)),
        ],
    )
    def test_trivial(self, n, expected):
        assert cyclotomic_poly(n) == expected

    def test_derived_against_quotient_oracle(self):
        assert cyclotomic_poly(4) == oracle_cyclotomic(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == oracle_cyclotomic(6) == (1, -1, 1)
        for n in range(1, 31):
            assert cyclotomic_poly(n) == oracle_cyclotomic(n)

    def test_product_identity_up_to_64(self):
        for n in range(1, 65):
            total = [Fraction(1)]
            for d in range(1, n + 1):
                if n % d == 0:
                    total = list(
                        rpoly_mul(total, [Fraction(c) for c in cyclotomic_poly(d)])
                    )
            expected = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
            assert total == expected

    def test_degree_is_phi(self):
        for n in range(1, 40):
            assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)


class TestAngleRoots:
    def test_square_roots_of_one(self):
        assert angle_roots(TorsionAngle.make(0, 1), 2) == [
            TorsionAngle.make(0, 1),
            TorsionAngle.make(1, 2),
        ]

    def test_identity(self):
        assert angle_roots(TorsionAngle.make(1, 3), 1) == [TorsionAngle.make(1, 3)]

    def test_derived_by_enumeration(self):
        # enumerate all sixth roots and keep the ones whose square is e(1/3)
        xi = TorsionAngle.make(1, 3)
        expected = sorted(
            (
                a
                for a in (TorsionAngle.make(k, 6) for k in range(6))
                if a * a == xi
            ),
            key=lambda a: a.as_fraction(),
        )
        assert angle_roots(xi, 2) == expected
        assert [str(a) for a in expected] == ["1/6", "2/3"]

    @given(angles, st.integers(1, 12))
    @settings(max_examples=150)
    def test_cardinality_and_power(self, xi, g):
        roots = angle_roots(xi, g)
        assert len(set(roots)) == g
        for eta in roots:
            assert eta**g == xi


class TestUnitRootMultiplicity:
    def test_examples(self):
        # (t-1)^2 at angle 0
        xi = TorsionAngle.make(0, 1)
        assert root_multiplicity(*coeff_rows(rational_coeffs([1, -2, 1])), xi) == 2
        # t^4+1 at 1/8; the oracle is the cyclotomic polynomial itself
        assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
        xi = TorsionAngle.make(1, 8)
        assert root_multiplicity(*coeff_rows(rational_coeffs([1, 0, 0, 0, 1])), xi) == 1
        # (t^2-t+1)(t-1) at 1/6
        prod = rpoly_mul([Fraction(1), Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(1)])
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert root_multiplicity(*coeff_rows(rational_coeffs(prod)), TorsionAngle.make(1, 6)) == 1

    def test_additive_on_products(self):
        rng = random.Random(7)
        dens = [1, 2, 3, 4, 6, 8]
        for _ in range(40):
            xi = TorsionAngle.make(rng.randrange(12), rng.choice(dens))
            p = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))] + [
                Fraction(1)
            ]
            q = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))] + [
                Fraction(1)
            ]
            left = root_multiplicity(*coeff_rows(rational_coeffs(rpoly_mul(p, q))), xi)
            right = root_multiplicity(*coeff_rows(rational_coeffs(p)), xi) + root_multiplicity(
                *coeff_rows(rational_coeffs(q)), xi
            )
            assert left == right

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=5, max_size=5),
        angles,
    )
    @settings(max_examples=150)
    def test_against_cyclotomic_division(self, cofactor, powers, xi):
        # plant Phi_b^m for the b of xi and for nearby orders, then divide
        p = [Fraction(c) for c in cofactor]
        if not any(p):
            p = [Fraction(1)]
        for b, m in zip((xi.den, 1, 2, 3, 6), powers):
            for _ in range(m):
                p = list(rpoly_mul(p, [Fraction(c) for c in cyclotomic_poly(b)]))
        expected = oracle_unit_root_multiplicity(p, xi)
        assert root_multiplicity(*coeff_rows(rational_coeffs(p)), xi) == expected
        assert expected >= powers[0]


class TestCycloElem:
    def test_coeff_length_enforced(self):
        with pytest.raises(ValueError):
            CycloElem(12, (Fraction(1),))

    def test_field_ops_in_q_zeta_12(self):
        rng = random.Random(12)
        d = euler_phi(12)
        elems = []
        while len(elems) < 40:
            coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
            e = CycloElem(12, coeffs)
            elems.append(e)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(200)]
        one = CycloElem.one(12)
        for a, b in pairs:
            if not b.is_zero():
                assert (a * b) * b.inverse() == a
        for _ in range(50):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_lift_compatible(self):
        a = CycloElem.from_angle(3, TorsionAngle.make(1, 3))
        b = a.lift(12)
        assert b == CycloElem.from_angle(12, TorsionAngle.make(1, 3))
        assert a == b  # comparison lifts to the common field

    def test_from_angle_requires_divisibility(self):
        with pytest.raises(ValueError):
            CycloElem.from_angle(4, TorsionAngle.make(1, 3))


INVERSE_ORDERS = [1, 2, 3, 4, 6, 12]
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def field_elems(draw, rational: bool) -> CycloElem:
    """Nonzero elements; rational ones have no z^j part, the others have one."""
    orders = [n for n in INVERSE_ORDERS if rational or euler_phi(n) > 1]
    order = draw(st.sampled_from(orders))
    d = euler_phi(order)
    if rational:
        head = draw(small_fractions.filter(bool))
        return CycloElem(order, (head,) + (Fraction(0),) * (d - 1))
    head = draw(small_fractions)
    tail = draw(st.lists(small_fractions, min_size=d - 1, max_size=d - 1).filter(any))
    return CycloElem(order, (head, *tail))


class TestInverse:
    @given(field_elems(rational=True))
    def test_rational(self, x):
        assert x.is_rational()
        assert x * x.inverse() == CycloElem.one(x.order)

    @given(field_elems(rational=False))
    def test_non_rational(self, x):
        assert not x.is_rational()
        assert x * x.inverse() == CycloElem.one(x.order)


FIELD_ORDERS = [1, 2, 3, 4, 6, 8, 12, 24]


@st.composite
def same_field(draw, count: int) -> list[CycloElem]:
    """count elements of one field Q(zeta_N), N drawn from FIELD_ORDERS."""
    order = draw(st.sampled_from(FIELD_ORDERS))
    d = euler_phi(order)
    vectors = st.lists(small_fractions, min_size=d, max_size=d)
    return [CycloElem(order, tuple(draw(vectors))) for _ in range(count)]


def assert_canonical(x: CycloElem):
    assert len(x.nums) == euler_phi(x.order)
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1


def oracle_product(a: CycloElem, b: CycloElem) -> tuple[Fraction, ...]:
    """Rational coefficients of a*b by long division by Phi_N, no z^k table."""
    phi = [Fraction(c) for c in cyclotomic_poly(a.order)]
    _, rem = rpoly_divmod(rpoly_mul(a.coeffs, b.coeffs), phi)
    d = euler_phi(a.order)
    return tuple(rem) + (Fraction(0),) * (d - len(rem))


class TestFieldLaws:
    @given(same_field(3))
    def test_associative(self, xs):
        a, b, c = xs
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @given(same_field(2))
    def test_commutative(self, xs):
        a, b = xs
        assert a * b == b * a
        assert a + b == b + a
        assert (a - b) == -(b - a)

    @given(same_field(3))
    def test_distributive(self, xs):
        a, b, c = xs
        assert a * (b + c) == a * b + a * c
        assert a * (b - c) == a * b - a * c

    @given(same_field(2))
    def test_product_against_long_division(self, xs):
        a, b = xs
        assert (a * b).coeffs == oracle_product(a, b)

    @given(same_field(1))
    def test_inverse(self, xs):
        (x,) = xs
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == CycloElem.one(x.order)

    @given(st.integers(1, 24), st.booleans(), st.data())
    def test_inverse_row(self, order, rational, data):
        """The row-level inverse of a row over a denominator it may share a
        factor with, rational or not, against the field product and CycloElem."""
        d = euler_phi(order)
        ints = st.integers(-9, 9)
        if rational or d == 1:
            nums = [data.draw(ints.filter(bool))] + [0] * (d - 1)
        else:
            tail = st.lists(ints, min_size=d - 1, max_size=d - 1).filter(any)
            nums = [data.draw(ints)] + data.draw(tail)
        k, den = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
        nums, den = [k * n for n in nums], k * den
        x = CycloElem.make(order, [Fraction(n, den) for n in nums])
        inv_nums, inv_den = inverse_row(order, nums, den)
        assert inv_den > 0 and math.gcd(inv_den, *inv_nums) == 1
        inv = CycloElem.make(order, [Fraction(n, inv_den) for n in inv_nums])
        assert x * inv == CycloElem.one(order)
        assert (inv_nums, inv_den) == (x.inverse().nums, x.inverse().den)
        with pytest.raises(ZeroDivisionError):
            inverse_row(order, [0] * d, den)

    @given(same_field(2), st.sampled_from([1, 2, 3, 5]))
    def test_lift_is_ring_homomorphism(self, xs, factor):
        a, b = xs
        m = a.order * factor
        la, lb = a.lift(m), b.lift(m)
        assert la.order == m
        assert (a * b).lift(m) == la * lb
        assert (a + b).lift(m) == la + lb
        assert CycloElem.one(a.order).lift(m) == CycloElem.one(m)
        assert la == a
        assert_canonical(la)

    @given(same_field(2), small_fractions)
    def test_canonical_form(self, xs, q):
        a, b = xs
        results = [a, b, a + b, a - b, a * b, -a, a.scale(q), a - a, a.lift(2 * a.order)]
        results.append(CycloElem.make(a.order, a.coeffs + b.coeffs))
        if not b.is_zero():
            results.append(b.inverse())
        for x in results:
            assert_canonical(x)
        assert (a - a).nums == (0,) * euler_phi(a.order)


class TestPrimeRootOfUnity:
    @pytest.mark.parametrize("order", list(range(1, 61)) + [120, 210, 997])
    def test_prime_and_root(self, order):
        """p is a prime = 1 (mod order) above 2^29, w has exact order `order`
        modulo p, and is a root of Phi_order there, so zeta -> w is a ring map."""
        p, w = prime_root_of_unity(order)
        assert p > 2**29 and (p - 1) % order == 0
        assert all(p % q for q in range(2, 3000))
        assert pow(w, order, p) == 1
        assert all(pow(w, k, p) != 1 for k in range(1, order) if order % k == 0)
        assert sum(c * pow(w, i, p) for i, c in enumerate(cyclotomic_poly(order))) % p == 0
        # the least such prime: no smaller candidate above 2^29 is one
        k = p - order
        while k > 2**29:
            assert any(k % q == 0 for q in range(2, math.isqrt(k) + 1))
            k -= order
