"""Laws of the dense one-variable polynomials, with LaurentPoly as the oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detloci.arith import CycloElem, euler_phi
from detloci.poly import LaurentPoly, u_dense, u_laurent
from detloci.upoly import UPoly

from conftest import upoly_divmod_in

ORDERS = [1, 2, 3, 4, 6, 8, 12]


def field_elems(order: int, nonzero: bool = False):
    d = euler_phi(order)
    elems = st.builds(
        lambda nums, den: CycloElem(order, [Fraction(n, den) for n in nums]),
        st.lists(st.integers(-4, 4), min_size=d, max_size=d),
        st.integers(1, 6),
    )
    return elems.filter(lambda c: not c.is_zero()) if nonzero else elems


def polys(order: int, max_degree: int = 4, monic: bool | None = None, nonzero: bool = False):
    """One-variable polynomials without negative exponents over Q(zeta_order)."""

    @st.composite
    def build(draw):
        low = draw(st.lists(field_elems(order), max_size=max_degree))
        if monic is None and not nonzero:
            coeffs = low
        else:
            lead = CycloElem.one(order) if monic else draw(field_elems(order, nonzero=True))
            coeffs = low + [lead]
        return LaurentPoly.make(1, order, {(k,): c for k, c in enumerate(coeffs)})

    return build()


def pairs(**kwargs):
    return st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), polys(n), polys(n, **kwargs))
    )


def assert_canonical(p: UPoly, order: int):
    assert p.order == order
    assert p.den > 0
    assert all(len(row) == euler_phi(order) for row in p.rows)
    if not p.rows:
        assert p.den == 1
        return
    assert any(p.rows[-1])
    assert math.gcd(p.den, *(n for row in p.rows for n in row)) == 1


def degree(p: LaurentPoly) -> int:
    return max(k for (k,) in p.terms) if p.terms else -1


class TestRoundTrip:
    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(st.just(n), polys(n))))
    @settings(max_examples=150)
    def test_identity_and_canonical(self, case):
        order, f = case
        dense = u_dense(f, order)
        assert_canonical(dense, order)
        assert u_laurent(dense) == f
        assert u_laurent(dense).order == order

    @given(st.sampled_from([(1, 4), (2, 6), (3, 12), (4, 8), (6, 12)]).flatmap(
        lambda pair: st.tuples(st.just(pair[1]), polys(pair[0]))
    ))
    @settings(max_examples=50)
    def test_lifted_order(self, case):
        order, f = case
        dense = u_dense(f, order)
        assert_canonical(dense, order)
        assert u_laurent(dense) == f.lift(order)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            u_dense(LaurentPoly.variable(1, 0, -1), 1)


class TestRingOperations:
    @given(pairs())
    @settings(max_examples=150)
    def test_add_sub_mul(self, case):
        order, f, g = case
        a, b = u_dense(f, order), u_dense(g, order)
        for got, want in ((a + b, f + g), (a - b, f - g), (a * b, f * g), (-a, -f)):
            assert_canonical(got, order)
            assert u_laurent(got) == want

    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), polys(n), polys(n, 2), polys(n))
    ))
    @settings(max_examples=100)
    def test_fused_update(self, case):
        order, f, q, s = case
        got = u_dense(f, order).submul(u_dense(q, order), u_dense(s, order))
        assert_canonical(got, order)
        assert u_laurent(got) == f - q * s

    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), polys(n), field_elems(n))
    ))
    @settings(max_examples=100)
    def test_scale(self, case):
        order, f, c = case
        got = u_dense(f, order).scale(c)
        assert_canonical(got, order)
        assert u_laurent(got) == f.scale(c)


class TestDivision:
    @pytest.mark.parametrize("monic", [True, False])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_divmod(self, monic, data):
        order, f, g = data.draw(pairs(max_degree=3, monic=monic))
        q, r = u_dense(f, order).divmod(u_dense(g, order))
        assert_canonical(q, order)
        assert_canonical(r, order)
        q, r = u_laurent(q), u_laurent(r)
        assert q * g + r == f
        assert degree(r) < degree(g)
        assert (q, r) == upoly_divmod_in(f, g, 0)

    @given(pairs(max_degree=3, nonzero=True), st.data())
    @settings(max_examples=100)
    def test_planted_gcd(self, case, data):
        # f = h*a and g = h*b share the factor h; the oracle is Euclid on
        # LaurentPoly term maps
        order, a, b = case
        h = data.draw(polys(order, 2, nonzero=True))
        f, g = h * a, h * b
        got = u_dense(f, order).gcd(u_dense(g, order))
        assert_canonical(got, order)
        x, y = f, g
        while not y.is_zero():
            x, y = y, upoly_divmod_in(x, y, 0)[1]
        assert u_laurent(got) == x.monic()
        assert u_laurent(got).leading()[1].is_one()
        assert got.divmod(u_dense(h, order))[1].is_zero()

    def test_gcd_of_zeros_is_zero(self):
        zero = UPoly(6, 1, ())
        assert zero.gcd(zero).is_zero()

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            UPoly.one(6).divmod(UPoly(6, 1, ()))

    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), polys(n, nonzero=True))
    ))
    @settings(max_examples=100)
    def test_monic_pair(self, case):
        order, f = case
        monic, inv = u_dense(f, order).monic_pair()
        assert_canonical(monic, order)
        assert u_laurent(monic).leading()[1].is_one()
        assert u_laurent(monic) == (f if inv is None else f.scale(inv))
