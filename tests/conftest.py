"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from detloci.arith import CycloElem, TorsionAngle
from detloci.complexes import FreeComplex, Matrix, direct_sum, matrix_make
from detloci.poly import IdealGens, LaurentPoly, Ring
from detloci.torus import PrimeTorusDivisor

SMALL_ANGLES = [
    TorsionAngle.make(0, 1),
    TorsionAngle.make(1, 2),
    TorsionAngle.make(1, 3),
    TorsionAngle.make(2, 3),
]


def random_angle(rng: random.Random) -> TorsionAngle:
    return rng.choice(SMALL_ANGLES)


def random_divisor(rng: random.Random, r: int, bound: int = 2) -> PrimeTorusDivisor:
    while True:
        u = tuple(rng.randint(0, bound) for _ in range(r))
        if any(u):
            g = 0
            for x in u:
                g = math.gcd(g, x)
            u = tuple(x // g for x in u)
            return PrimeTorusDivisor(u, random_angle(rng))


def random_binomial(rng: random.Random, ring: Ring) -> LaurentPoly:
    divisor = random_divisor(rng, ring.nvars)
    return LaurentPoly.binomial_divisor(ring.nvars, divisor, ring.cyclotomic_order)


def random_binomial_product(
    rng: random.Random, ring: Ring, max_factors: int = 2
) -> LaurentPoly:
    """A product of a few binomials, possibly times a monomial unit; maybe zero."""
    roll = rng.random()
    if roll < 0.15:
        return LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    out = LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
    for _ in range(rng.randint(1, max_factors)):
        out = out * random_binomial(rng, ring)
    if ring.laurent and rng.random() < 0.3:
        exps = tuple(rng.randint(-1, 1) for _ in range(ring.nvars))
        out = out.shift(exps)
    return out


def random_torsion_point(rng: random.Random, r: int) -> tuple[TorsionAngle, ...]:
    dens = [1, 2, 3, 6]
    out = []
    for _ in range(r):
        den = rng.choice(dens)
        num = rng.randrange(den)
        out.append(TorsionAngle.make(num, den))
    return tuple(out)


def two_term_complex(ring: Ring, mat: list[list[LaurentPoly]], low: int = 0) -> FreeComplex:
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    return FreeComplex.make(
        ring, (low, low + 1), {low: ncols, low + 1: nrows}, {low: mat}
    )


def random_two_term(rng: random.Random, ring: Ring, max_rank: int = 4) -> FreeComplex:
    nrows = rng.randint(1, max_rank)
    ncols = rng.randint(1, max_rank)
    mat = [
        [random_binomial_product(rng, ring) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if all(e.is_zero() for row in mat for e in row):
        mat[0][0] = random_binomial(rng, ring)
    return two_term_complex(ring, mat, low=rng.choice([-1, 0, 1]))


def shifted_piece(ring: Ring, p: LaurentPoly, degree: int) -> FreeComplex:
    """The complex [R --p--> R] sitting in degrees (degree-1, degree)."""
    return FreeComplex.make(
        ring, (degree - 1, degree), {degree - 1: 1, degree: 1}, {degree - 1: [[p]]}
    )


def random_unimodular_ops(
    rng: random.Random, size: int, ring: Ring, n_ops: int = 2
) -> tuple[Matrix, Matrix]:
    """A product of elementary matrices and its inverse, over the ring."""
    one = LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
    zero = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    p = [[one if i == j else zero for j in range(size)] for i in range(size)]
    p_inv = [[one if i == j else zero for j in range(size)] for i in range(size)]

    def left_add(target, a, b, q):
        for j in range(size):
            target[a][j] = target[a][j] + q * target[b][j]

    def right_add(target, a, b, q):
        for i in range(size):
            target[i][b] = target[i][b] + q * target[i][a]

    for _ in range(n_ops):
        if size < 2:
            break
        a, b = rng.sample(range(size), 2)
        q = random_binomial(rng, ring) if rng.random() < 0.5 else one
        if rng.random() < 0.5:
            q = LaurentPoly.from_rational(ring.nvars, -1, ring.cyclotomic_order) * q
        # P := E_{ab}(q) P, P^{-1} := P^{-1} E_{ab}(-q)
        left_add(p, a, b, q)
        right_add(p_inv, a, b, LaurentPoly.from_rational(ring.nvars, -1) * q)
    return matrix_make(p), matrix_make(p_inv)


def conjugate_complex(rng: random.Random, complex_: FreeComplex) -> FreeComplex:
    """Change bases degreewise by random unimodular transforms."""
    from detloci.complexes import matrix_mul

    ring = complex_.ring
    order = ring.cyclotomic_order
    transforms = {}
    for i in complex_.degrees():
        transforms[i] = random_unimodular_ops(rng, complex_.rank(i), ring)
    diffs = {}
    for i in range(complex_.imin, complex_.imax):
        p_next, _ = transforms[i + 1]
        _, p_inv = transforms[i]
        zero = LaurentPoly.zero(ring.nvars, order)
        mat = matrix_mul(matrix_mul(p_next, complex_.differential(i), zero), p_inv, zero)
        diffs[i] = [list(row) for row in mat]
    return FreeComplex.make(
        ring, (complex_.imin, complex_.imax), dict(complex_.ranks), diffs
    )


def random_torsion_complex(
    rng: random.Random, ring: Ring, max_pieces: int = 3, degrees=(0, 1, 2)
) -> FreeComplex:
    """Direct sum of shifted two-term pieces with nonzero maps, then conjugated."""
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        degree = rng.choice(degrees[1:])
        p = LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
        for _ in range(rng.randint(1, 2)):
            p = p * random_binomial(rng, ring)
        pieces.append(shifted_piece(ring, p, degree))
    total = pieces[0]
    for piece in pieces[1:]:
        total = direct_sum(total, piece)
    return conjugate_complex(rng, total)


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_det(mat: list[list[LaurentPoly]], ring: Ring) -> LaurentPoly:
    """Permutation-sum determinant; independent of the expansion engine."""
    n = len(mat)
    if n == 0:
        return LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
    total = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = LaurentPoly.from_rational(ring.nvars, sign, ring.cyclotomic_order)
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def upoly_divmod_in(
    f: LaurentPoly, g: LaurentPoly, var: int
) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division in one variable on LaurentPoly term maps; g must be
    univariate in var.  Independent of the dense division it checks."""
    def degree(p):
        return max(e[var] for e in p.terms)

    def coeff(p, k):
        return LaurentPoly.make(p.nvars, p.order, {
            tuple(0 if i == var else x for i, x in enumerate(e)): c
            for e, c in p.terms.items() if e[var] == k
        })

    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    db = degree(g)
    lead = coeff(g, db)
    inv = lead.terms[(0,) * g.nvars].inverse()
    quot = LaurentPoly.zero(f.nvars, f.order)
    rem = f
    while not rem.is_zero() and degree(rem) >= db:
        shift = [0] * f.nvars
        shift[var] = degree(rem) - db
        piece = coeff(rem, degree(rem)).scale(inv).shift(tuple(shift))
        quot = quot + piece
        rem = rem - piece * g
    return quot, rem


def oracle_minor_gens(
    mat: list[list[LaurentPoly]], m: int, ring: Ring
) -> list[LaurentPoly]:
    """All m x m minors via the permutation-sum determinant."""
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    out = []
    for rows in itertools.combinations(range(nrows), m):
        for cols in itertools.combinations(range(ncols), m):
            sub = [[mat[i][j] for j in cols] for i in rows]
            out.append(oracle_det(sub, ring))
    return out


def oracle_valuation(f: LaurentPoly, divisor: PrimeTorusDivisor) -> int:
    """Repeated trial division by the binomial, written independently."""
    from detloci.poly import exact_divide

    h = LaurentPoly.binomial_divisor(f.nvars, divisor, f.order)
    count = 0
    while True:
        q = exact_divide(f, h)
        if q is None:
            return count
        f = q
        count += 1


def division_multiplicity(f: LaurentPoly, value: CycloElem) -> int:
    """Multiplicity of (t - value) in a one-variable f by repeated UPoly.divmod."""
    from detloci.poly import u_dense

    order = math.lcm(f.order, value.order)
    factor = u_dense(
        LaurentPoly.make(1, order, {(1,): CycloElem.one(order), (0,): -value.lift(order)}), order
    )
    count = 0
    current = u_dense(f, order)
    while True:
        q, r = current.divmod(factor)
        if not r.is_zero():
            return count
        count += 1
        current = q


def canon_gens(ring: Ring, gens) -> list[tuple]:
    """Canonical sort keys of a generator list, for set comparison."""
    return [g.sort_key() for g in IdealGens.make(ring, list(gens)).gens]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
