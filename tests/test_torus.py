import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detloci.arith import TorsionAngle, angle_roots
from detloci.torus import (
    AffineHyperplane,
    PrimeTorusDivisor,
    TorusDivisor,
    TranslatedSubtorus,
    exp_hyperplane,
    is_oblique,
    nondegeneracy_check,
    slope,
    tau_preimage,
)


def angle(num, den):
    return TorsionAngle.make(num, den)


class TestAffineHyperplane:
    def test_validation(self):
        with pytest.raises(ValueError):
            AffineHyperplane((0, 0), 1)
        with pytest.raises(ValueError):
            AffineHyperplane((-1, 2), 1)
        h = AffineHyperplane((3, 3), -2)
        assert not h.paper_normal
        assert AffineHyperplane((3, 3), 4).paper_normal

    def test_error_messages(self):
        with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
            AffineHyperplane((), 1)
        with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
            AffineHyperplane((0, 0, 0), 1)
        for c in ((-1, 2), (0, -3), (-1, 0)):
            with pytest.raises(ValueError, match="^hyperplane normal must have natural entries$"):
                AffineHyperplane(c, 1)

    def test_set_canonical(self):
        assert AffineHyperplane((6, 0), 6).set_canonical() == ((1, 0), 1)
        assert AffineHyperplane((8, 0), 5).set_canonical() == ((8, 0), 5)


class TestExpHyperplane:
    @pytest.mark.parametrize(
        "c,c0,u,xi",
        [
            ((6, 0), 5, (1, 0), (1, 6)),
            ((3, 3), 4, (1, 1), (2, 3)),
            ((0, 1), 1, (0, 1), (0, 1)),
            ((6, 0), 6, (1, 0), (0, 1)),
            ((6, 0), 7, (1, 0), (5, 6)),
            ((8, 0), 5, (1, 0), (3, 8)),
            ((4, 1), 3, (4, 1), (0, 1)),
        ],
    )
    def test_values(self, c, c0, u, xi):
        d = exp_hyperplane(AffineHyperplane(c, c0))
        assert d == PrimeTorusDivisor(u, angle(*xi))

    def test_translate_consistency(self, rng):
        # shifting by v moves the angle by (c.v)/gcd(c)
        for _ in range(40):
            c = tuple(rng.randint(0, 5) for _ in range(3))
            if all(x == 0 for x in c):
                continue
            h = AffineHyperplane(c, rng.randint(-6, 6))
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            g = 0
            for x in c:
                g = math.gcd(g, x)
            shifted = exp_hyperplane(h.shifted(v))
            base = exp_hyperplane(h)
            assert shifted.u == base.u
            dot = sum(ci * vi for ci, vi in zip(c, v))
            expected = TorsionAngle.from_fraction(
                base.xi.as_fraction() - Fraction(dot, g)
            )
            assert shifted.xi == expected


class TestSlope:
    def test_examples(self):
        assert slope(AffineHyperplane((3, 3), 7)) == (1, 1)
        assert is_oblique(AffineHyperplane((3, 3), 7))
        assert slope(AffineHyperplane((8, 0), 5)) == (1, 0)
        assert not is_oblique(AffineHyperplane((8, 0), 5))
        assert slope(AffineHyperplane((4, 1), 3)) == (4, 1)
        assert is_oblique(AffineHyperplane((4, 1), 3))

    @given(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(lambda c: any(c)),
        st.integers(1, 5),
        st.integers(-10, 10),
    )
    def test_scale_invariance(self, c, scale, c0):
        h1 = AffineHyperplane(c, c0)
        h2 = AffineHyperplane(tuple(x * scale for x in c), 1)
        assert slope(h1) == slope(h2)


class TestTauPreimage:
    def test_identity(self):
        C = PrimeTorusDivisor((1, 1), angle(1, 3))
        assert tau_preimage([[1, 0], [0, 1]], C) == [C]

    def test_single_row_squares(self):
        # oracle: enumerate sixth roots and square them
        C = PrimeTorusDivisor((1, 1), angle(1, 3))
        got = tau_preimage([[1, 1]], C)
        expected = sorted(
            (
                a
                for a in (angle(k, 6) for k in range(6))
                if a * a == angle(1, 3)
            ),
            key=lambda a: a.as_fraction(),
        )
        assert [d.xi for d in got] == expected
        assert all(d.u == (1,) for d in got)

    def test_cube_roots(self):
        C = PrimeTorusDivisor((1, 1), angle(0, 1))
        got = tau_preimage([[1, 2]], C)
        assert [str(d.xi) for d in got] == ["0/1", "1/3", "2/3"]

    def test_degenerate_direction(self):
        C = PrimeTorusDivisor((1, 0), angle(0, 1))
        with pytest.raises(ValueError, match="pulls back"):
            tau_preimage([[0, 1]], C)

    def test_cardinality_and_pushforward(self, rng):
        for _ in range(30):
            r, p = 2, rng.randint(1, 2)
            m = [[rng.randint(0, 3) for _ in range(r)] for _ in range(p)]
            u = (rng.randint(0, 2), rng.randint(1, 2))
            g = math.gcd(u[0], u[1])
            C = PrimeTorusDivisor(tuple(x // g for x in u), angle(rng.randrange(4), 4))
            w = [sum(m[k][i] * C.u[i] for i in range(r)) for k in range(p)]
            if all(x == 0 for x in w):
                continue
            gw = 0
            for x in w:
                gw = math.gcd(gw, x)
            divisors = tau_preimage(m, C)
            assert len(divisors) == gw
            # sample torsion points on each preimage divisor and push forward
            for d in divisors:
                pivot = next(i for i, x in enumerate(d.u) if x != 0)
                for extra in range(1, 4):
                    base = [angle(rng.randrange(6), 6) for _ in range(p)]
                    rest = sum(
                        d.u[i] * base[i].as_fraction() for i in range(p) if i != pivot
                    )
                    target = d.xi.as_fraction() - rest
                    for root in angle_roots(
                        TorsionAngle.from_fraction(target), d.u[pivot]
                    ):
                        point = list(base)
                        point[pivot] = root
                        assert d.contains_point(point)
                        image = [
                            TorsionAngle.from_fraction(
                                sum(m[k][i] * point[k].as_fraction() for k in range(p))
                            )
                            for i in range(r)
                        ]
                        assert C.contains_point(image)
                        break


class TestNondegeneracy:
    def test_examples(self):
        assert nondegeneracy_check([[1, 1, 1]], [True, True, True])
        assert not nondegeneracy_check([[1, 0], [2, 0]], [True, True])
        assert not nondegeneracy_check([[1, 0]], [True, True])
        assert nondegeneracy_check([[1, 0]], [True, False])


class TestTorusDivisor:
    def test_formal_arithmetic(self):
        C1 = PrimeTorusDivisor((1, 0), angle(0, 1))
        C2 = PrimeTorusDivisor((0, 1), angle(1, 2))
        two = TorusDivisor.of(C1, 2)
        one = TorusDivisor.of(C1, 1)
        assert (two - one) == TorusDivisor.of(C1, 1)
        assert (TorusDivisor.of(C1) + TorusDivisor.of(C2)) + (-TorusDivisor.of(C2)) == TorusDivisor.of(C1)
        total = TorusDivisor({C1: 3, C2: 2})
        assert total.reduced_support() == {C1, C2}

    def test_zero_coefficients_dropped(self):
        C1 = PrimeTorusDivisor((1, 0), angle(0, 1))
        assert (TorusDivisor.of(C1) - TorusDivisor.of(C1)) == TorusDivisor()


class TestPrimeDivisorValidation:
    def test_primitive_required(self):
        with pytest.raises(ValueError):
            PrimeTorusDivisor((2, 2), angle(0, 1))
        with pytest.raises(ValueError):
            PrimeTorusDivisor((0, 0), angle(0, 1))
        with pytest.raises(ValueError):
            PrimeTorusDivisor((-1, 1), angle(0, 1))


class TestTranslatedSubtorus:
    def test_membership(self):
        piece = TranslatedSubtorus((
            ((1, 0), angle(1, 2)),
            ((0, 1), angle(0, 1)),
        ))
        assert piece.codimension == 2
        assert piece.contains_point((angle(1, 2), angle(0, 1)))
        assert not piece.contains_point((angle(0, 1), angle(0, 1)))

    def test_independence_required(self):
        with pytest.raises(ValueError, match="independent"):
            TranslatedSubtorus((
                ((1, 1), angle(0, 1)),
                ((2, 2), angle(1, 2)),
            ))
