"""Laws of the dense one-variable polynomials, with LaurentPoly as the oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detloci.arith import CycloElem, euler_phi, reduce_mod_phi, zeta_power
from detloci.poly import LaurentPoly
from detloci.smith import u_dense, u_laurent
from detloci.smith import _dense_mul, _mat_vec
from detloci.upoly import UPoly, _make, _reduced, sum_of_products

from conftest import matrix_mul, upoly_divmod_in

# At 5, 7 and 9 the unreduced product rows (2 phi(N) - 1 entries) run past z^N,
# so their reduction folds by z^N = 1 before dividing by Phi_N.
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12]


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
    def test_mul_neg(self, case):
        order, f, g = case
        a, b = u_dense(f, order), u_dense(g, order)
        for got, want in ((a * b, f * g), (-a, -f)):
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


def entries(order: int):
    """Polynomials of degree < 3 over denominators up to 6, zero in about half the draws."""
    return st.one_of(st.just(LaurentPoly.zero(1, order)), polys(order, 3))


def matrices(order: int, nrows: int, ncols: int):
    row = st.lists(entries(order), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def unreduced_row(order: int):
    """A product row of 2 phi(N) - 1 integers, its part at z^phi(N) and above
    zero in about half the draws."""
    d = euler_phi(order)
    low, high = (st.lists(st.integers(-9, 9), min_size=k, max_size=k) for k in (d, d - 1))
    return st.tuples(low, st.one_of(st.just([0] * (d - 1)), high)).map(lambda p: p[0] + p[1])


class TestFusedProducts:
    """sum_of_products and the dense matrix product of the Smith checks, with
    the schoolbook matrix_mul on LaurentPoly entries as the oracle."""

    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(n), matrices(n, 1, k), matrices(n, k, 1))
    )))
    @settings(max_examples=150)
    def test_sum_of_products(self, case):
        order, a, b = case
        ((want,),) = matrix_mul(a, b, LaurentPoly.zero(1, order))
        pairs = [(u_dense(x, order), u_dense(y[0], order)) for x, y in zip(a[0], b)]
        got = sum_of_products(order, pairs)
        assert_canonical(got, order)
        assert u_laurent(got) == want

    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)
    ).flatmap(lambda shape: st.tuples(
        st.just(n), matrices(n, shape[0], shape[1]), matrices(n, shape[1], shape[2])
    ))))
    @settings(max_examples=150)
    def test_dense_product(self, case):
        order, a, b = case
        want = matrix_mul(a, b, LaurentPoly.zero(1, order))
        dense = _dense_mul(
            [[u_dense(e, order) for e in row] for row in a],
            [[u_dense(e, order) for e in row] for row in b],
            order,
        )
        for row in dense:
            for entry in row:
                assert_canonical(entry, order)
        assert tuple(tuple(u_laurent(e) for e in row) for row in dense) == want

    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(unreduced_row(n), max_size=5), st.integers(1, 12)
    )))
    @settings(max_examples=150)
    def test_reduced_skips_rows_without_a_tail(self, case):
        # some rows have nothing at z^phi(N) or above: the same result as
        # reducing every row
        order, rows, den = case
        want = _make(order, [reduce_mod_phi(order, row) for row in rows], den)
        assert _reduced(order, [list(row) for row in rows], den) == want

    def test_empty_sum_is_zero(self):
        zero = UPoly(12, 1, ())
        assert sum_of_products(12, []) == zero
        assert sum_of_products(12, [(zero, UPoly.one(12))]) == zero


class TestDivision:
    @pytest.mark.parametrize("monic", [True, False])
    @given(data=st.data())
    @settings(max_examples=100)
    def test_divmod(self, monic, data):
        order, f, g = data.draw(pairs(max_degree=3, monic=monic))
        q, r = u_dense(f, order).divmod(u_dense(g, order))
        assert_canonical(q, order)
        assert_canonical(r, order)
        assert u_dense(f, order).remainder(u_dense(g, order)) == r
        q, r = u_laurent(q), u_laurent(r)
        assert q * g + r == f
        assert degree(r) < degree(g)
        assert (q, r) == upoly_divmod_in(f, g, 0)

    @pytest.mark.parametrize("order", [1, 5, 12])
    def test_long_division_normalizes(self, monkeypatch, order):
        # the monic form of g has a denominator from 1/5 and the norm of its
        # leading coefficient 3 + 2z, so 30 steps carry the running
        # denominator past a machine word: the rows are normalized along the
        # way and the results do not change
        import detloci.upoly as upoly_module

        calls = []
        real = upoly_module._normalize
        monkeypatch.setattr(
            upoly_module, "_normalize", lambda *args: calls.append(1) or real(*args)
        )
        z = zeta_power(order, 1)

        def rational(q):
            return CycloElem.from_rational(order, q)

        f = LaurentPoly.make(1, order, {(k,): rational(3) + rational(k) * z for k in range(32)})
        lead = rational(3) + rational(2) * z
        low = {(1,): rational(Fraction(1, 5)), (0,): rational(3)}
        g = LaurentPoly.make(1, order, {(2,): lead, **low})
        a, b = u_dense(f, order), u_dense(g, order)
        q, r = a.divmod(b)
        assert (u_laurent(q), u_laurent(r)) == upoly_divmod_in(f, g, 0)
        assert a.remainder(b) == r
        assert calls

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            UPoly.one(6).divmod(UPoly(6, 1, ()))
        with pytest.raises(ZeroDivisionError):
            UPoly.one(6).remainder(UPoly(6, 1, ()))

    @given(st.sampled_from(ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), polys(n, nonzero=True))
    ))
    @settings(max_examples=100)
    def test_monic_pair(self, case):
        order, f = case
        monic, inv = u_dense(f, order).monic_pair()
        assert_canonical(monic, order)
        assert u_laurent(monic).leading()[1].is_one()
        if inv is not None:
            assert_canonical(inv, order)
            assert len(inv.rows) == 1
        assert u_laurent(monic) == (f if inv is None else f * u_laurent(inv))


def assert_untouched(p: UPoly, rows, den):
    """p still has the given rows and den, and its remembered sparse rows are
    those of a fresh copy."""
    assert (p.rows, p.den) == (rows, den)
    assert p.sparse() == UPoly(p.order, p.den, p.rows).sparse()


class TestRememberedRows:
    """Each UPoly remembers its sparse rows once a product asks for them: one
    operand reused in many products, rows with interior zeros and the
    non-canonical one-row scalars of `smith._mat_vec` give the LaurentPoly
    results and leave every operand as it was."""

    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(
        st.just(n), polys(n), st.lists(polys(n), min_size=1, max_size=3)
    )))
    @settings(max_examples=100)
    def test_one_operand_everywhere(self, case):
        order, f, gs = case
        a = u_dense(f, order)
        bs = [u_dense(g, order) for g in gs]
        kept = [(p, p.rows, p.den) for p in [a] + bs]
        for got, want in ((a * a, f * f), (a.submul(a, a), f - f * f)):
            assert_canonical(got, order)
            assert u_laurent(got) == want
        for g, b in zip(gs, bs):
            # the same column a in every entry, as in a matrix product
            got = sum_of_products(order, [(b, a), (a, a), (a, b)])
            assert_canonical(got, order)
            assert u_laurent(got) == g * f + f * f + f * g
        for p, rows, den in kept:
            assert_untouched(p, rows, den)

    @pytest.mark.parametrize("order", ORDERS)
    def test_interior_zero_rows(self, order):
        one, t = LaurentPoly.one(1, order), LaurentPoly.variable(1, 0, 1, order)
        z = LaurentPoly.constant(1, zeta_power(order, 1))
        half = LaurentPoly.from_rational(1, Fraction(1, 2), order)
        fs = [one + t**3, z * t**4 - half * t, t**5 + z]
        assert u_dense(fs[0], order).sparse() == [(0, [(0, 1)]), (3, [(0, 1)])]
        for f in fs:
            for g in fs:
                a, b = u_dense(f, order), u_dense(g, order)
                kept = [(p, p.rows, p.den) for p in (a, b)]
                (q, r), (want_q, want_r) = a.divmod(b), upoly_divmod_in(f, g, 0)
                for got, want in (
                    (a * b, f * g),
                    (b.submul(a, b), g - f * g),
                    (sum_of_products(order, [(a, b), (b, a), (a, a)]), f * g + g * f + f * f),
                    (q, want_q),
                    (r, want_r),
                    (a.remainder(b), want_r),
                ):
                    assert_canonical(got, order)
                    assert u_laurent(got) == want
                for p, rows, den in kept:
                    assert_untouched(p, rows, den)

    @given(st.sampled_from(ORDERS).flatmap(lambda n: st.tuples(
        st.just(n), polys(n, 3, nonzero=True), st.lists(polys(n), min_size=4, max_size=4)
    )))
    @settings(max_examples=100)
    def test_mat_vec_scalars(self, case):
        order, v, cols = case
        vec, columns = u_dense(v, order), [u_dense(c, order) for c in cols]
        kept = [(p, p.rows, p.den) for p in [vec] + columns]
        want = LaurentPoly.zero(1, order)
        for k, row in enumerate(vec.rows):
            # the one-row scalar v_k as _mat_vec builds it: den not reduced against row
            scalar = UPoly(order, vec.den, (row,))
            coef = LaurentPoly.constant(1, CycloElem(order, [Fraction(n, vec.den) for n in row]))
            term = cols[k] * coef
            updated = columns[k].submul(scalar, columns[k])
            for got, want_k in ((scalar * columns[k], term), (updated, cols[k] - term)):
                assert_canonical(got, order)
                assert u_laurent(got) == want_k
            assert_untouched(scalar, (row,), vec.den)
            want = want + term
        got = _mat_vec(columns, vec, order)
        assert_canonical(got, order)
        assert u_laurent(got) == want
        for p, rows, den in kept:
            assert_untouched(p, rows, den)
