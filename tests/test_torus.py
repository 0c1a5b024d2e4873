import ast
import copy
import inspect
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from detloci import bsloci, torus
from detloci.arith import TorsionAngle, angle_roots
from detloci.bsloci import HyperplaneLocus
from detloci.torus import (
    AffineHyperplane,
    PrimeTorusDivisor,
    TorusDivisor,
    TranslatedSubtorus,
    exp_hyperplane,
    is_oblique,
    nondegeneracy_check,
    rref,
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
        assert AffineHyperplane((3, 3), -2).c0 == -2

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

    def test_repr_and_fields(self):
        h = AffineHyperplane((1, 0), 2)
        assert repr(h) == "AffineHyperplane(c=(1, 0), c0=2)"
        assert (h.c, h.c0, h.nvars) == ((1, 0), 2, 2)
        with pytest.raises(AttributeError):
            h.c0 = 3

    def test_copy_and_pickle(self):
        piece = [AffineHyperplane((0, 1), 1), AffineHyperplane((1, 1), 0)]
        locus = HyperplaneLocus.make(2, [AffineHyperplane((1, 0), 2)], [piece])
        assert pickle.loads(pickle.dumps(locus)) == locus
        assert copy.deepcopy(locus) == locus

    def test_shifted_wrong_length(self):
        with pytest.raises(ValueError, match="^translation vector has wrong length$"):
            AffineHyperplane((1, 2), 0).shifted((1, 1, 1))

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any),
        st.integers(-20, 20),
        st.data(),
    )
    def test_shifted_equals_a_validated_hyperplane(self, c, c0, data):
        v = data.draw(st.lists(st.integers(-4, 4), min_size=len(c), max_size=len(c)))
        got = AffineHyperplane(tuple(c), c0).shifted(v)
        fresh = AffineHyperplane(tuple(c), c0 + sum(ci * vi for ci, vi in zip(c, v)))
        assert type(got) is AffineHyperplane
        assert got == fresh and hash(got) == hash(fresh)
        assert (got.c, got.c0) == (fresh.c, fresh.c0)

    def test_locus_order_is_by_c_then_c0(self, rng):
        def key(h):
            return (h.c, h.c0)

        def hyperplane(c):
            return AffineHyperplane(c, rng.randint(-9, 9))

        for _ in range(50):
            members = [
                hyperplane((rng.randint(0, 3), rng.randint(0, 3), rng.randint(1, 3)))
                for _ in range(8)
            ]
            pieces = [
                [hyperplane((0, 0, rng.randint(1, 3))), hyperplane((rng.randint(1, 3), 0, 0))]
                for _ in range(4)
            ]
            locus = HyperplaneLocus.make(3, members, pieces)
            assert locus.members() == sorted(set(members), key=key)
            assert all(list(p) == sorted(p, key=key) for p in locus.pieces)
            assert list(locus.pieces) == sorted(locus.pieces, key=lambda p: [key(h) for h in p])


def _names(function) -> set[str]:
    tree = ast.parse(inspect.getsource(function))
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


class TestIntegerElimination:
    @pytest.mark.parametrize("function", [torus.rref, bsloci._parametrize, bsloci._restrict])
    def test_names_no_fraction(self, function):
        assert "Fraction" not in _names(function)

    def test_guard_sees_fraction(self):
        assert "Fraction" in _names(bsloci._point_avoiding)


def _rank_mod(rows, p: int) -> int:
    """The largest k with a k x k minor that is nonzero modulo p, each minor a
    permutation sum: the oracle of the modular elimination."""
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rs in itertools.combinations(range(nrows), k):
            for cs in itertools.combinations(range(ncols), k):
                det = 0
                for perm in itertools.permutations(range(k)):
                    sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
                    det += sign * math.prod(rows[rs[i]][cs[perm[i]]] for i in range(k))
                if det % p:
                    return k
    return 0


@st.composite
def planted_rank_matrices(draw):
    """(p, rows): A B modulo p, entries of the size of p, of rank at most
    the inner dimension (0 to 4, so some are rank deficient), with up to two
    zero rows inserted, so that pivots are swapped in from later rows."""
    p = draw(st.sampled_from([3, 7, 536870923, 536871001]))
    nrows, inner, ncols = draw(st.integers(1, 5)), draw(st.integers(0, 4)), draw(st.integers(1, 5))
    entry = st.integers(0, p - 1)
    a = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner), min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=inner, max_size=inner))
    rows = [[sum(x * y[j] for x, y in zip(row, b)) % p for j in range(ncols)] for row in a]
    for position in draw(st.lists(st.integers(0, nrows), max_size=2)):
        rows.insert(position, [0] * ncols)
    return p, rows


class TestModularRref:
    @given(planted_rank_matrices())
    @example((7, [[0, 0], [1, 2], [2, 4]]))
    def test_pivot_rows_give_a_unit_block(self, case):
        """The rows R that the reduced rows were pivoted from, as indices of
        the input, are as many as the rank modulo p, and with the pivot
        columns C give det M[R, C] != 0 modulo p."""
        p, rows = case
        pivots, _, origin = rref(rows, len(rows[0]), p)
        assert len(set(origin)) == len(origin) == len(pivots) == _rank_mod(rows, p)
        block = [[rows[i][j] for j in pivots] for i in origin]
        assert _rank_mod(block, p) == len(block)

    @given(
        st.sampled_from([2, 3, 7, 536871001]),  # the last, the prime of order 12
        st.integers(1, 4).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), min_size=1, max_size=4
            )
        ),
    )
    def test_against_minors_modulo_p(self, p, rows):
        """The pivots are the first columns independent modulo p, and each
        reduced row has 1 at its pivot and 0 at the others; every row is the
        combination of the reduced rows by its entries at the pivots."""
        ncols = len(rows[0])
        pivots, reduced, _ = rref(rows, ncols, p)
        columns = [[row[j] for row in rows] for j in range(ncols)]
        want, rank = [], 0
        for j in range(ncols):
            if _rank_mod([columns[c] for c in want + [j]], p) > rank:
                want.append(j)
                rank += 1
        assert pivots == want
        for row, col in zip(reduced, pivots, strict=True):
            assert all(0 <= x < p for x in row)
            assert [row[other] for other in pivots] == [int(other == col) for other in pivots]
            assert _rank_mod(rows + [row], p) == rank
        for row in rows:
            combination = [sum(row[c] * r[j] for c, r in zip(pivots, reduced)) for j in range(ncols)]
            assert all((x - y) % p == 0 for x, y in zip(row, combination))


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
        two = TorusDivisor({C1: 2})
        one = TorusDivisor({C1: 1})
        assert (two - one) == one
        assert (one + TorusDivisor({C2: 1})) + (-TorusDivisor({C2: 1})) == one
        total = TorusDivisor({C1: 3, C2: 2})
        assert total.items() == [(C2, 2), (C1, 3)]

    def test_zero_coefficients_dropped(self):
        C1 = PrimeTorusDivisor((1, 0), angle(0, 1))
        assert (TorusDivisor({C1: 1}) - TorusDivisor({C1: 1})) == TorusDivisor()


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

    def test_equation_order_ignored(self):
        equations = (((1, 0, 2), angle(1, 3)), ((0, 1, 0), angle(1, 2)), ((1, 1, 1), angle(0, 1)))
        pieces = [TranslatedSubtorus(eqs) for eqs in itertools.permutations(equations)]
        assert all(p == pieces[0] and hash(p) == hash(pieces[0]) for p in pieces)
        assert len(set(pieces)) == 1
        assert TranslatedSubtorus(equations[:2]) != pieces[0]


def fraction_monomial_at(u, point) -> TorsionAngle:
    """The angle of t^u at a torsion point, summed through Fraction."""
    total = Fraction(0)
    for ui, a in zip(u, point):
        total += ui * a.as_fraction()
    return TorsionAngle.from_fraction(total)


class TestMonomialAt:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(-50, 50), st.integers(1, 60)),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_the_fraction_sum(self, coords):
        u = [ui for ui, _, _ in coords]
        point = [angle(num, den) for _, num, den in coords]
        assert torus._monomial_at(u, point) == fraction_monomial_at(u, point)
