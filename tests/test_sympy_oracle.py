"""Differential tests against sympy (a test-only dependency).

Cyclotomic polynomials, determinants and minors, and Smith forms.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from detloci.arith import CycloElem, cyclotomic_poly  # noqa: E402
from detloci.complexes import MinorEngine, matrix_make, minors_ideal  # noqa: E402
from detloci.poly import IdealGens, LaurentPoly, Ring  # noqa: E402
from detloci.smith import determinantal_factors, smith_diagonal  # noqa: E402

X = sympy.symbols("x")
QQX = sympy.QQ[X]
T = sympy.symbols("t1 t2")


def random_poly(rng, degree: int):
    """A rational polynomial of degree <= degree, zero about a quarter of the time."""
    if rng.random() < 0.25:
        return sympy.Integer(0)
    return sum(
        sympy.Rational(rng.randint(-3, 3), rng.randint(1, 2)) * X**k
        for k in range(rng.randint(0, degree) + 1)
    )


def to_laurent(expr) -> LaurentPoly:
    coeffs = sympy.Poly(expr, X).all_coeffs()[::-1]
    return LaurentPoly.make(1, 1, {
        (k,): CycloElem.from_rational(1, Fraction(int(c.p), int(c.q)))
        for k, c in enumerate(coeffs) if c
    })


def monic_coeffs(expr) -> list[Fraction]:
    """Coefficients of the monic form of a sympy polynomial, highest first; [] for zero."""
    if expr == 0:
        return []
    return [Fraction(int(c.p), int(c.q)) for c in sympy.Poly(expr, X).monic().all_coeffs()]


def detloci_coeffs(p: LaurentPoly) -> list[Fraction]:
    if p.is_zero():
        return []
    top = max(k for (k,) in p.terms)
    return [
        p.terms[(k,)].rational_value() if (k,) in p.terms else Fraction(0)
        for k in range(top, -1, -1)
    ]


def seeded_matrices(rng):
    """Random square, rectangular and rank-deficient matrices over QQ[x], and a
    planted chain diag(p, p*q, p*q*r) mixed by elementary row and column moves."""
    for nrows, ncols in [(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)]:
        yield sympy.Matrix(nrows, ncols, lambda i, j: random_poly(rng, 2))
    top = sympy.Matrix(2, 3, lambda i, j: random_poly(rng, 2))
    yield top.col_join(rng.randint(-2, 2) * top[0, :] + (X + rng.randint(1, 3)) * top[1, :])
    p, q, r = (X - rng.randint(-2, 2) for _ in range(3))
    planted = sympy.diag(p, p * q, p * q * r)
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        factor = rng.randint(-2, 2) + rng.randint(0, 1) * X
        if rng.random() < 0.5:
            planted[i, :] = planted[i, :] + factor * planted[j, :]
        else:
            planted[:, i] = planted[:, i] + factor * planted[:, j]
    yield planted.expand()


class TestCyclotomicPolynomial:
    def test_matches_sympy_up_to_60(self):
        for n in range(1, 61):
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, X), X).all_coeffs()[::-1]
            assert cyclotomic_poly(n) == tuple(int(c) for c in theirs)


class TestInvariantFactors:
    def test_smith_diagonal_matches_sympy(self, rng):
        for _ in range(4):
            for mat in seeded_matrices(rng):
                laurent = [[to_laurent(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)]
                ours = smith_diagonal(laurent).diagonal
                theirs = invariant_factors(mat, domain=QQX)
                assert [detloci_coeffs(d) for d in ours] == [monic_coeffs(d) for d in theirs]


class TestMinimalPolynomial:
    def test_last_invariant_factor_of_xI_minus_A(self, rng):
        for _ in range(20):
            m = rng.randint(1, 5)
            # upper-triangular with repeated eigenvalues, so nontrivial Jordan
            # blocks occur, conjugated by a unimodular integer matrix
            eigen = [rng.randint(-2, 2) for _ in range(2)]
            a = sympy.zeros(m, m)
            for i in range(m):
                a[i, i] = rng.choice(eigen)
                for j in range(i + 1, m):
                    a[i, j] = sympy.Rational(rng.choice([0, 0, 1, -1, 2]), rng.randint(1, 2))
            p = sympy.eye(m)
            for _ in range(m):
                i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
                if i != j:
                    p[i, :] = p[i, :] + rng.randint(-2, 2) * p[j, :]
            a = p * a * p.inv()
            phi = [
                [CycloElem.from_rational(1, Fraction(int(a[i, j].p), int(a[i, j].q)))
                 for j in range(m)]
                for i in range(m)
            ]
            ours = determinantal_factors(phi).minimal
            theirs = invariant_factors(X * sympy.eye(m) - a, domain=QQX)[-1]
            assert detloci_coeffs(ours) == monic_coeffs(theirs)


def random_int_poly(rng, nvars: int):
    """An integer polynomial in t1..t_nvars of total degree <= 2, zero about a fifth of the time."""
    if rng.random() < 0.2:
        return sympy.Integer(0)
    monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    return sum(
        rng.randint(-3, 3) * sympy.Mul(*(t**k for t, k in zip(T, e)))
        for e in rng.sample(monomials, rng.randint(1, 3))
    )


def to_multivariate(expr, nvars: int) -> LaurentPoly:
    terms = sympy.Poly(expr, *T[:nvars]).terms()
    return LaurentPoly.make(nvars, 1, {
        e: CycloElem.from_rational(1, Fraction(int(c))) for e, c in terms if c
    })


class TestMinors:
    @pytest.mark.parametrize("nvars", [1, 2])
    def test_determinant_and_minor_generators_match_sympy(self, rng, nvars):
        for size, laurent in [(3, False), (3, True), (4, False), (4, True)]:
            ring = Ring(nvars, laurent, 1)
            mat = sympy.Matrix(size, size, lambda i, j: random_int_poly(rng, nvars))
            ours = matrix_make(
                [[to_multivariate(mat[i, j], nvars) for j in range(size)] for i in range(size)]
            )
            full = tuple(range(size))
            det = MinorEngine(ours, nvars, 1).det(full, full)
            assert det == to_multivariate(sympy.expand(mat.det()), nvars)
            for m in range(1, size + 1):
                theirs = [
                    to_multivariate(sympy.expand(mat.extract(list(rows), list(cols)).det()), nvars)
                    for rows in itertools.combinations(full, m)
                    for cols in itertools.combinations(full, m)
                ]
                got = minors_ideal(ours, m, ring).gens
                want = IdealGens.make(ring, theirs).gens
                assert [g.sort_key() for g in got] == [g.sort_key() for g in want]
