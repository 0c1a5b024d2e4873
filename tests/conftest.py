"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction
from operator import mul

import pytest

from detloci import bsloci
from detloci.arith import CycloElem, TorsionAngle
from detloci.bsloci import HyperplaneLocus
from detloci.complexes import (
    FreeComplex,
    Matrix,
    direct_sum,
    matrix_make,
    matrix_shape,
    minors_ideal,
)
from detloci.poly import IdealGens, LaurentPoly, ParseError, Ring, term_key
from detloci.torus import AffineHyperplane, PrimeTorusDivisor

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


def row_ideal(ring: Ring, gens) -> IdealGens:
    """The ideal of gens as the 1 x 1 minors of a one-row matrix, held by
    its minor engine, which lists them."""
    return minors_ideal((tuple(gens),), 1, ring)


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


def conjugate_complex(rng: random.Random, complex_: FreeComplex, n_ops: int = 2) -> FreeComplex:
    """Change bases degreewise by random unimodular transforms, each a product
    of n_ops elementary matrices."""
    ring = complex_.ring
    order = ring.cyclotomic_order
    transforms = {}
    for i in complex_.degrees():
        transforms[i] = random_unimodular_ops(rng, complex_.rank(i), ring, n_ops)
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
    """Direct sum of one to max_pieces shifted two-term pieces, then conjugated."""
    return torsion_sum(rng, ring, rng.randint(1, max_pieces), degrees)


def torsion_sum(
    rng: random.Random, ring: Ring, n_pieces: int, degrees=(0, 1, 2), n_ops: int = 2
) -> FreeComplex:
    """Direct sum of n_pieces shifted two-term pieces with nonzero maps (products
    of one or two random binomials), then conjugated by n_ops elementary
    operations per degree."""
    pieces = []
    for _ in range(n_pieces):
        degree = rng.choice(degrees[1:])
        p = LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
        for _ in range(rng.randint(1, 2)):
            p = p * random_binomial(rng, ring)
        pieces.append(shifted_piece(ring, p, degree))
    total = pieces[0]
    for piece in pieces[1:]:
        total = direct_sum(total, piece)
    return conjugate_complex(rng, total, n_ops)


def fox_complex(generators, relators, abelianization) -> FreeComplex:
    """The cochain complex R^k -> R^n -> R of the universal abelian cover of the
    presentation 2-complex of <generators | relators>, over R = Q[t^+-1] with
    one variable per coordinate of the abelianization (Fox, "Free
    differential calculus I", Ann. of Math. 57, 1953).  A relator is a word of
    (generator, power) letters, and `abelianization` maps each generator x to
    the exponent vector a of its image t^a.  d^0 is the abelianized Fox
    Jacobian, entry (j, i) the image of d r_i / d x_j: each letter x^e adds its
    prefix's image times 1 + x + ... + x^(e-1) for e > 0, or times -(x^-1 +
    ... + x^e) for e < 0.  d^1 is the row of the t^(a_j) - 1, and d^1 d^0 = 0
    is the fundamental formula r - 1 = sum_j (d r / d x_j)(x_j - 1)."""
    nvars = len(next(iter(abelianization.values())))
    ring = Ring(nvars, True, 1)

    def image(terms):
        return LaurentPoly.make(nvars, 1, {e: CycloElem.make(1, [c]) for e, c in terms.items() if c})

    jacobian = []
    for word in relators:
        derivatives = {x: {} for x in generators}
        prefix = (0,) * nvars
        for x, e in word:
            a = abelianization[x]
            powers = range(e) if e > 0 else range(-1, e - 1, -1)
            for k in powers:
                monomial = tuple(p + k * ai for p, ai in zip(prefix, a))
                terms = derivatives[x]
                terms[monomial] = terms.get(monomial, 0) + (1 if e > 0 else -1)
            prefix = tuple(p + e * ai for p, ai in zip(prefix, a))
        jacobian.append([image(derivatives[x]) for x in generators])
    one = LaurentPoly.one(nvars, 1)
    d1 = [[image({abelianization[x]: 1}) - one for x in generators]]
    d0 = [[jacobian[i][j] for i in range(len(relators))] for j in range(len(generators))]
    ranks = {0: len(relators), 1: len(generators), 2: 1}
    return FreeComplex.make(ring, (0, 2), ranks, {0: d0, 1: d1})


def dense_planted_jordan(
    rng: random.Random, n: int, order: int
) -> tuple[list[list[CycloElem]], dict[int, list[int]]]:
    """P J P^-1 over Q(zeta_order) with J of Jordan blocks of sizes 1-4 at
    e(a/order) and P a product of n^2/2 elementary matrices with multipliers
    +-1, +-2, which leaves no zero entry; also the block sizes by a."""
    zero, one = CycloElem.zero(order), CycloElem.one(order)
    phi = [[zero] * n for _ in range(n)]
    pos, sizes = 0, {}
    while pos < n:
        size, a = min(rng.randint(1, 4), n - pos), rng.randrange(order)
        lam = CycloElem.from_angle(order, TorsionAngle.make(a, order))
        for k in range(pos, pos + size):
            phi[k][k] = lam
            if k + 1 < pos + size:
                phi[k][k + 1] = one
        sizes.setdefault(a, []).append(size)
        pos += size
    for _ in range(n * n // 2):
        a, b = rng.sample(range(n), 2)
        q = CycloElem.from_rational(order, rng.choice([1, -1, 2, -2]))
        # E J E^-1 for E = id + q*e_ab: row a += q*row b, then column b -= q*column a
        phi[a] = [x + q * y for x, y in zip(phi[a], phi[b])]
        for row in phi:
            row[b] = row[b] - q * row[a]
    return phi, sizes


# ---------------------------------------------------------------------------
# Independent oracles


def planted_factors(sizes: dict[int, list[int]], n: int, order: int) -> list[LaurentPoly]:
    """b_0, ..., b_n of a matrix with Jordan blocks of the given sizes at e(a/order):
    b_k drops the k largest blocks at every eigenvalue."""
    t = LaurentPoly.variable(1, 0, 1, order)
    out = []
    for k in range(n + 1):
        b = LaurentPoly.one(1, order)
        for a, block_sizes in sizes.items():
            lam = CycloElem.from_angle(order, TorsionAngle.make(a, order))
            b = b * (t - LaurentPoly.constant(1, lam)) ** sum(sorted(block_sizes, reverse=True)[k:])
        out.append(b)
    return out


def characteristic_matrix(phi: list[list[CycloElem]]) -> Matrix:
    """t*id - phi over Q(zeta)[t], at the lcm of the orders of the entries."""
    m = len(phi)
    order = math.lcm(*(entry.order for row in phi for entry in row))
    t = LaurentPoly.variable(1, 0, 1, order)
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            entry = LaurentPoly.constant(1, -phi[i][j].lift(order))
            if i == j:
                entry = entry + t
            row.append(entry)
        rows.append(row)
    return matrix_make(rows)


def constant_matrix(phi: list[list[CycloElem]]) -> list[list[LaurentPoly]]:
    """phi as the matrix of constant one-variable polynomials that
    `determinantal_factors` takes."""
    return [[LaurentPoly.constant(1, entry) for entry in row] for row in phi]


def matrix_mul(a, b, zero) -> tuple:
    """a*b for matrices over any ring whose elements have is_zero, + and *,
    one schoolbook `acc + a*b` at a time; zero is that ring's zero, the value
    of an empty sum.  The oracle of the fused products it checks."""
    rb, cb = matrix_shape(b)
    ra, ca = matrix_shape(a, rb)
    if ca != rb:
        raise ValueError("matrix shapes do not compose")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = zero
            for k in range(ca):
                if not (a[i][k].is_zero() or b[k][j].is_zero()):
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def oracle_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a*b term by term: one CycloElem product per pair of terms, added into
    the result one at a time.  Independent of the fused integer kernel."""
    a, b = a._pair(b)
    out: dict[tuple[int, ...], CycloElem] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            if e in out:
                s = out[e] + prod
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            elif not prod.is_zero():
                out[e] = prod
    return LaurentPoly.make(a.nvars, a.order, out)


def coeff_rows(coeffs: dict[int, CycloElem]) -> tuple[int, dict[int, tuple[int, ...]]]:
    """The (order, rows) argument pair of `root_multiplicity` for {k: c_k}: the
    numerators of every c_k in the lcm of their orders, over the lcm of their
    denominators."""
    order = math.lcm(1, *(c.order for c in coeffs.values()))
    den = math.lcm(*(c.den for c in coeffs.values()))
    rows = {k: tuple(n * (den // c.den) for n in c.lift(order).nums) for k, c in coeffs.items()}
    return order, rows


def oracle_det(mat: list[list[LaurentPoly]], ring: Ring) -> LaurentPoly:
    """Permutation-sum determinant through oracle_mul; independent of the
    expansion engine and of the product kernel."""
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
            term = oracle_mul(term, mat[i][perm[i]])
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


def oracle_parse_terms(
    text: str, nvars: int, laurent: bool
) -> list[tuple[Fraction, TorsionAngle, tuple[int, ...]]]:
    """The text grammar read one character at a time into (rational, angle,
    exponents) triples, through Fraction and TorsionAngle.  Independent of
    the integer scan it checks; integers here are ASCII decimal too.  Terms
    are separated by a sign and factors by "*"."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty polynomial", 0)

    def read_int(pos):
        start = pos
        while pos < n and s[pos] in "0123456789":
            pos += 1
        if start == pos:
            raise ParseError("expected an integer", start)
        return int(s[start:pos]), pos

    def signed(body):
        digits = body[1:] if body[:1] in ("+", "-") else body
        if not digits or any(ch not in "0123456789" for ch in digits):
            raise ValueError(body)
        return int(body)

    def starts_factor(pos):
        """Whether a factor, perhaps a malformed one, opens at pos: a digit, a
        variable letter, or e( with two signed integers and a ) after it."""
        if s[pos] in "0123456789st":
            return True
        close = s.find(")", pos)
        if not s.startswith("e(", pos) or close < 0:
            return False
        a_str, _, b_str = s[pos + 2 : close].partition("/")
        try:
            signed(a_str), signed(b_str)
        except ValueError:
            return False
        return True

    terms = []
    pos = 0
    n = len(s)
    while pos < n:
        sign = 1
        while pos < n and s[pos] in "+-":
            if s[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise ParseError("dangling sign", pos)
        coeff = Fraction(sign)
        angle = TorsionAngle(0, 1)
        exps = [0] * nvars
        while True:
            if pos < n and s[pos] in "0123456789":
                num, pos = read_int(pos)
                if pos < n and s[pos] == "/":
                    den, pos2 = read_int(pos + 1)
                    if den <= 0:
                        raise ParseError("denominator must be positive", pos + 1)
                    coeff *= Fraction(num, den)
                    pos = pos2
                else:
                    coeff *= num
            elif pos < n and s[pos] == "e" and pos + 1 < n and s[pos + 1] == "(":
                close = s.find(")", pos)
                if close < 0:
                    raise ParseError("unterminated unit-root constant", pos)
                body = s[pos + 2 : close]
                if "/" not in body:
                    raise ParseError("unit root must be written e(a/b)", pos)
                a_str, b_str = body.split("/", 1)
                try:
                    a, b = signed(a_str), signed(b_str)
                except ValueError:
                    raise ParseError("bad unit-root constant", pos) from None
                if b <= 0:
                    raise ParseError("unit-root denominator must be positive", pos)
                angle = angle * TorsionAngle.make(a, b)
                pos = close + 1
            elif pos < n and s[pos] in "st":
                var_letter = s[pos]
                idx, pos = read_int(pos + 1)
                if not 1 <= idx <= nvars:
                    raise ParseError(f"variable index out of range 1..{nvars}", pos)
                power = 1
                if pos < n and s[pos] == "^":
                    neg = False
                    p2 = pos + 1
                    if p2 < n and s[p2] == "-":
                        neg = True
                        p2 += 1
                    power, pos = read_int(p2)
                    if neg:
                        power = -power
                if power < 0 and (not laurent or var_letter == "s"):
                    raise ParseError(
                        "negative exponents need the Laurent flag and a t-variable", pos
                    )
                exps[idx - 1] += power
            elif pos < n and s[pos] == "(":
                raise ParseError("parenthesized subexpressions are not allowed", pos)
            else:
                raise ParseError("expected a factor", pos)
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            break
        # the next term opens with a sign: a factor here has lost its "*"
        if pos < n and s[pos] not in "+-" and starts_factor(pos):
            raise ParseError("missing '*' between factors", pos)
        terms.append((coeff, angle, tuple(exps)))
    return terms


def oracle_parse_poly(text: str, ring: Ring) -> LaurentPoly:
    """Sum of the oracle's triples, each lifted to a CycloElem and added one
    at a time; the order covers the angle of every term, zero terms too."""
    triples = oracle_parse_terms(text, ring.nvars, ring.laurent)
    order = math.lcm(ring.cyclotomic_order, *(a.den for _, a, _ in triples))
    out = LaurentPoly.zero(ring.nvars, order)
    for q, angle, exps in triples:
        c = CycloElem.from_angle(order, angle).scale(q)
        out = out + LaurentPoly.make(ring.nvars, order, {exps: c})
    return out


def oracle_format_poly(p: LaurentPoly, laurent: bool = True) -> str:
    """The canonical text of p, built through Fraction and TorsionAngle."""
    if p.is_zero():
        return "0"
    letter = "t" if laurent else "s"
    pieces: list[str] = []
    for e in sorted(p.terms, key=term_key, reverse=True):
        c = p.terms[e]
        for j, n in enumerate(c.nums):
            if n == 0:
                continue
            q = Fraction(n, c.den)
            factors: list[str] = []
            if abs(q) != 1:
                factors.append(str(abs(q)))
            if j > 0:
                factors.append(f"e({TorsionAngle.make(j, c.order)})")
            for i, x in enumerate(e):
                if x:
                    factors.append(f"{letter}{i + 1}" + (f"^{x}" if x != 1 else ""))
            pieces.append(("-" if q < 0 else "+") + ("*".join(factors) or "1"))
    text = "".join(pieces)
    return text[1:] if text.startswith("+") else text


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


def oracle_vanishes_at(ideal: IdealGens, point: tuple[TorsionAngle, ...]) -> bool:
    """Whether every generator of the ideal evaluates to zero at the torsion point."""
    order = math.lcm(ideal.ring.cyclotomic_order, *(a.den for a in point))
    return all(g.evaluate(point, order).is_zero() for g in ideal.gens)


def exact_divide(f: LaurentPoly, g: LaurentPoly, laurent: bool = True) -> LaurentPoly | None:
    """The quotient f/g when it exists in the (Laurent) polynomial ring.

    In the Laurent ring, monomials are units, so both sides are first cleared
    to honest polynomials; divisibility is then decided by leading-term
    reduction, which is exact for a single divisor.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero():
        return LaurentPoly.zero(f.nvars, f.order)
    f, g = f._pair(g)
    if not laurent:
        return _reduce_by_single(f, g)
    offset = tuple(a - b for a, b in zip(f.min_exponents(), g.min_exponents()))
    quotient = _reduce_by_single(f.clear_units(), g.clear_units())
    return None if quotient is None else quotient.shift(offset)


def _reduce_by_single(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """f/g by graded-lex leading-term reduction, or None when a remainder term
    falls outside the multiples of g's leading monomial."""
    eg, cg = g.leading()
    cg_inv = cg.inverse()
    tail = [(e, c) for e, c in g.terms.items() if e != eg]
    quot: dict[tuple[int, ...], CycloElem] = {}
    rem = dict(f.terms)
    while rem:
        ef = max(rem, key=term_key)
        diff = tuple(a - b for a, b in zip(ef, eg))
        if any(d < 0 for d in diff):
            return None
        ratio = quot[diff] = rem.pop(ef) * cg_inv
        for e2, c2 in tail:
            key = tuple(a + b for a, b in zip(diff, e2))
            updated = rem.get(key, CycloElem.zero(f.order)) - ratio * c2
            if updated.is_zero():
                rem.pop(key, None)
            else:
                rem[key] = updated
    return LaurentPoly.make(f.nvars, f.order, quot)


def oracle_valuation(f: LaurentPoly, divisor: PrimeTorusDivisor) -> int:
    """Repeated trial division by the binomial, written independently."""
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
    from detloci.smith import u_dense

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


def oracle_split_fibres(f: LaurentPoly, u: tuple[int, ...]) -> list[dict[int, tuple[int, ...]]]:
    """The fibres of f along the primitive u through a unimodular monomial change
    of coordinates: an integer matrix sending u to e_1, built with the extended
    gcd; rows sharing the remaining new exponents form one fibre, keyed by the
    first new exponent."""

    def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
        old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        return (-old_r, -old_s, -old_t) if old_r < 0 else (old_r, old_s, old_t)

    n = len(u)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    vec = list(u)
    for i in range(1, n):
        a, b = vec[0], vec[i]
        if b == 0:
            continue
        g, x, y = ext_gcd(a, b)
        row0 = [x * p + y * q for p, q in zip(rows[0], rows[i])]
        rows[i] = [(-b // g) * p + (a // g) * q for p, q in zip(rows[0], rows[i])]
        rows[0] = row0
        vec[0], vec[i] = g, 0
    if vec[0] != 1:
        raise ValueError("divisor support must be primitive")
    first, *rest = rows
    groups: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for e, nums in f.rows.items():
        key = tuple(sum(p * q for p, q in zip(row, e)) for row in rest)
        groups.setdefault(key, {})[sum(p * q for p, q in zip(first, e))] = nums
    return list(groups.values())


def record_results(monkeypatch, name: str, calls: list | None = None) -> list:
    """Record the return value of every call to detloci.poly.<name> from here on,
    wherever a detloci module binds it, and its positional arguments in calls
    when a list is given."""
    import detloci.poly as poly_module

    results = []
    real = getattr(poly_module, name)

    def recording(*args, **kwargs):
        if calls is not None:
            calls.append(args)
        results.append(real(*args, **kwargs))
        return results[-1]

    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "detloci"]:
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, recording)
    return results


def translate_locus(locus: HyperplaneLocus, v) -> HyperplaneLocus:
    """Image of the locus under alpha -> alpha - v (c0 gains c . v memberwise),
    built and checked by HyperplaneLocus.make; the oracle of combine_bm."""
    if len(v) != locus.r:
        raise ValueError("translation vector has wrong length")
    return HyperplaneLocus.make(
        locus.r,
        [(h.shifted(v), mult) for h, mult in locus.hyperplanes],
        [tuple(h.shifted(v) for h in piece) for piece in locus.pieces],
    )


def loop_containment_check(inner: HyperplaneLocus, outer: HyperplaneLocus):
    """containment_check as it was before hyperplanes were looked up by
    canonical form: every inner member, hyperplane or piece, is parametrized
    and searched against every outer member."""
    if inner.r != outer.r:
        raise ValueError("loci live in different dimensions")
    outer_members = [(h,) for h in outer.members()] + list(outer.pieces)
    for member in [(h,) for h in inner.members()] + list(inner.pieces):
        witness = bsloci._point_avoiding(member, outer_members)
        if witness is not None:
            if outer.contains_rational_point(witness):
                raise ArithmeticError("containment witness lies in the outer locus")
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# The locus calculus as it was before it ran on integer keys: a Fraction
# per pole, a validated hyperplane per filter translate, every outer member
# restricted before any containment test, translates added from generators


def oracle_member_canonicals(locus: HyperplaneLocus) -> frozenset[tuple]:
    return frozenset(h.set_canonical() for h in locus.members())


def oracle_combine_bm(components, m, pi=None) -> HyperplaneLocus:
    r = len(m)
    if any(x < 0 for x in m):
        raise ValueError("the exponent vector must be natural")
    if all(x == 0 for x in m):
        raise ValueError("the exponent vector must be nonzero")
    if pi is None:
        pi = tuple(range(1, r + 1))
    if sorted(pi) != list(range(1, r + 1)):
        raise ValueError("pi must be a permutation of 1..r")
    for j, locus in components.items():
        if not 1 <= j <= r:
            raise ValueError(f"component {j} is not a coordinate 1..{r}")
        if locus.r != r:
            raise ValueError(f"component {j} has mismatched dimension")
    hyperplanes: set[AffineHyperplane] = set()
    pieces: set = set()
    accumulated = [0] * r
    for j in pi:
        mj = m[j - 1]
        if mj > 0:
            if j not in components:
                raise ValueError(f"missing component locus for coordinate {j}")
            locus = components[j]
            for (c, c0), _ in locus.hyperplanes:
                start, step = c0 + sum(map(mul, c, accumulated)), c[j - 1]
                hyperplanes.update(
                    tuple.__new__(AffineHyperplane, (c, start + k * step)) for k in range(mj)
                )
            for piece in locus.pieces:
                starts = [(c, c0 + sum(map(mul, c, accumulated)), c[j - 1]) for c, c0 in piece]
                pieces.update(
                    tuple(tuple.__new__(AffineHyperplane, (c, a + k * b)) for c, a, b in starts)
                    for k in range(mj)
                )
            accumulated[j - 1] += mj
    return HyperplaneLocus.from_checked(r, dict.fromkeys(hyperplanes, 1), pieces)


def oracle_point_avoiding(member, outer) -> list[Fraction] | None:
    base, dirs, den = bsloci._parametrize(member)
    restricted = [[bsloci._restrict(h, base, dirs, den) for h in other] for other in outer]
    if any(all(not any(f) for f in funcs) for funcs in restricted):
        return None  # that outer member contains the whole member
    values = bsloci._first_free_values(restricted, len(dirs), 64)
    if values is None:
        values = bsloci._first_free_values(restricted, len(dirs), None)
    return [
        Fraction(b + sum(v * d[i] for v, d in zip(values, dirs)), den)
        for i, b in enumerate(base)
    ]


def oracle_polar_candidate_filter(candidate: AffineHyperplane, zbf: HyperplaneLocus) -> dict:
    if candidate.nvars != zbf.r:
        raise ValueError("candidate and locus live in different dimensions")
    if candidate.c0 <= 0:
        raise ValueError("polar candidates need a positive constant term")
    total = sum(candidate.c)
    m = candidate.c0 // total
    found = None
    for k in range(m + 1):
        shifted = AffineHyperplane(candidate.c, candidate.c0 - k * total)
        if shifted.set_canonical() in oracle_member_canonicals(zbf):
            found = k
            break
    return {"m": m, "k": found}


def oracle_specialize_slice(model: HyperplaneLocus, b) -> list[dict]:
    if len(b) != model.r:
        raise ValueError("direction vector has wrong length")
    if any(x <= 0 for x in b):
        raise ValueError("direction entries must be positive")
    groups: dict[tuple[int, int], list[int]] = {}
    for h, mult in model.hyperplanes:
        denom = sum(ci * bi for ci, bi in zip(h.c, b))
        g = math.gcd(h.c0, denom)
        entry = groups.setdefault((-h.c0 // g, denom // g), [0, 0])
        entry[0] += mult
        entry[1] += 1
    common = math.lcm(*(den for _, den in groups))
    return [
        {"pole": Fraction(num, den), "order_sum": order_sum, "generic": count == 1}
        for (num, den), (order_sum, count) in sorted(
            groups.items(), key=lambda kv: kv[0][0] * (common // kv[0][1])
        )
    ]


def oracle_locus_to_json(locus: HyperplaneLocus) -> dict:
    def hyperplane_to_json(h, mult=None):
        out = {"c": list(h.c), "c0": h.c0}
        if mult is not None:
            out["mult"] = mult
        return out

    return {
        "r": locus.r,
        "hyperplanes": [hyperplane_to_json(h, m) for h, m in locus.hyperplanes],
        "pieces": [
            {"hyperplanes": [hyperplane_to_json(h) for h in piece]} for piece in locus.pieces
        ],
    }


def cohomology_dims_at_point(complex_: FreeComplex, point) -> dict[int, int]:
    """Dimensions of the cohomology of the complex evaluated at a torsion
    point, from the ranks of the checked Smith diagonals of the evaluated
    differentials, their entries read as one-variable constants."""
    from detloci.smith import smith_normal_form

    order = math.lcm(complex_.ring.cyclotomic_order, *(a.den for a in point))
    ranks = {}
    for i in range(complex_.imin - 1, complex_.imax + 1):
        mat = [
            [LaurentPoly.constant(1, e.evaluate(point, order)) for e in row]
            for row in complex_.differential(i)
        ]
        ranks[i] = smith_normal_form(mat).rank
    return {i: complex_.rank(i) - ranks[i] - ranks[i - 1] for i in complex_.degrees()}


def alternating_cohomology_sum(complex_: FreeComplex, point, i: int) -> int:
    """Alternating sum of cohomology dimensions in degrees >= i at a point."""
    dims = cohomology_dims_at_point(complex_, point)
    return sum(
        (-1 if (l - i) % 2 else 1) * dims[l] for l in range(max(i, complex_.imin), complex_.imax + 1)
    )


def canon_gens(ring: Ring, gens) -> list[tuple]:
    """Canonical sort keys of a generator list, for set comparison."""
    return [g.sort_key() for g in IdealGens.make(ring, list(gens)).gens]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
