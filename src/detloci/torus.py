"""Torsion-translated subtori of the algebraic torus and related calculus.

Covers codimension-one prime divisors {t^u = xi} with natural primitive
support, formal integer divisors, Exp images of affine hyperplanes with
natural normals, slopes, preimages under monomial torus maps, and membership
tests for higher-codimension translated subtori.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from typing import Mapping, Sequence

from .arith import Frozen, TorsionAngle, angle_roots


class AffineHyperplane(namedtuple("AffineHyperplane", "c c0")):
    """The hyperplane {c_1 s_1 + ... + c_r s_r + c0 = 0} with c in N^r, c != 0;
    a validated tuple (c, c0), hashed, compared and ordered as one."""

    __slots__ = ()

    def __new__(cls, c: tuple[int, ...], c0: int):
        if not any(c):
            raise ValueError("hyperplane normal must be nonzero")
        if min(c) < 0:
            raise ValueError("hyperplane normal must have natural entries")
        return tuple.__new__(cls, (c, c0))

    @property
    def nvars(self) -> int:
        return len(self[0])

    def shifted(self, v: Sequence[int]) -> "AffineHyperplane":
        """Image under alpha -> alpha - v: the normal stays, c0 gains c . v."""
        c, c0 = self
        if len(v) != len(c):
            raise ValueError("translation vector has wrong length")
        return tuple.__new__(AffineHyperplane, (c, c0 + sum(map(mul, c, v))))

    def set_canonical(self) -> tuple[tuple[int, ...], int]:
        """Scale-invariant form of the point set (divide out the full gcd)."""
        c, c0 = self
        g = math.gcd(*c, c0)
        return (c, c0) if g == 1 else (tuple(x // g for x in c), c0 // g)

    def __str__(self) -> str:
        parts = []
        for i, ci in enumerate(self.c):
            if ci == 0:
                continue
            coeff = "" if ci == 1 else f"{ci}*"
            parts.append(f"{coeff}s{i + 1}")
        body = "+".join(parts)
        if self.c0 > 0:
            body += f"+{self.c0}"
        elif self.c0 < 0:
            body += f"{self.c0}"
        return body


def slope(h: AffineHyperplane) -> tuple[int, ...]:
    """Primitive representative of the projective class of the normal."""
    g = math.gcd(*h.c)
    return tuple(x // g for x in h.c)


def is_oblique(h: AffineHyperplane) -> bool:
    """A hyperplane is oblique when every normal coordinate is nonzero."""
    return all(x != 0 for x in h.c)


class PrimeTorusDivisor(namedtuple("PrimeTorusDivisor", "u xi")):
    """The irreducible hypersurface {t^u = xi} with u primitive in N^r; a
    validated tuple (u, xi), hashed, compared and ordered as one."""

    __slots__ = ()

    def __new__(cls, u: tuple[int, ...], xi: TorsionAngle):
        if not u or all(x == 0 for x in u):
            raise ValueError("divisor support must be nonzero")
        if any(x < 0 for x in u):
            raise ValueError("divisor support must have natural entries")
        if math.gcd(*u) != 1:
            raise ValueError("divisor support must be primitive")
        return tuple.__new__(cls, (u, xi))

    @property
    def nvars(self) -> int:
        return len(self.u)

    def contains_point(self, point: Sequence[TorsionAngle]) -> bool:
        """Whether a torsion point (given by angles) lies on the divisor."""
        return _monomial_at(self.u, point) == self.xi

    def conjugate(self) -> "PrimeTorusDivisor":
        return PrimeTorusDivisor(self.u, self.xi.inverse())

    def sort_key(self) -> tuple:
        return (self.u, self.xi.as_fraction())

    def __str__(self) -> str:
        mono = "*".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
            for i, e in enumerate(self.u)
            if e != 0
        )
        return f"{{{mono}=e({self.xi})}}"


def _monomial_at(u: Sequence[int], point: Sequence[TorsionAngle]) -> TorsionAngle:
    """The value of t^u at a torsion point, as the angle sum u_i a_i mod 1."""
    den = math.lcm(*(a.den for a in point))
    return TorsionAngle.make(sum(ui * a.num * (den // a.den) for ui, a in zip(u, point)), den)


def exp_hyperplane(h: AffineHyperplane) -> PrimeTorusDivisor:
    """Image of {c . s + c0 = 0} under (alpha_i) |-> (e^{2 pi i alpha_i}).

    With g = gcd(c) the image is the prime divisor {t^{c/g} = e^{-2 pi i c0/g}}:
    every point of the divisor lifts because c/g is primitive.  Both are built
    unchecked: c/g is natural and primitive, and the angle is reduced here.
    """
    c, c0 = h
    g = math.gcd(*c)
    num = -c0 % g
    k = math.gcd(num, g)
    xi = tuple.__new__(TorsionAngle, (num // k, g // k))
    return tuple.__new__(PrimeTorusDivisor, (tuple(x // g for x in c), xi))


class TorusDivisor(Frozen):
    """Formal Z-linear combination of prime torus divisors."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[PrimeTorusDivisor, int] | None = None):
        cleaned = {}
        if coeffs:
            for prime, mult in coeffs.items():
                if mult != 0:
                    cleaned[prime] = mult
        object.__setattr__(self, "coeffs", cleaned)

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        out = dict(self.coeffs)
        for prime, mult in other.coeffs.items():
            out[prime] = out.get(prime, 0) + mult
        return TorusDivisor(out)

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        out = dict(self.coeffs)
        for prime, mult in other.coeffs.items():
            out[prime] = out.get(prime, 0) - mult
        return TorusDivisor(out)

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor({p: -m for p, m in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TorusDivisor):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def multiplicity(self, prime: PrimeTorusDivisor) -> int:
        return self.coeffs.get(prime, 0)

    def is_effective(self) -> bool:
        return all(m >= 0 for m in self.coeffs.values())

    def items(self) -> list[tuple[PrimeTorusDivisor, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "TorusDivisor(0)"
        body = " + ".join(f"{m}*{p}" for p, m in self.items())
        return f"TorusDivisor({body})"


class TranslatedSubtorus(namedtuple("TranslatedSubtorus", "equations")):
    """Intersection of {t^{u_j} = xi_j} with Q-linearly independent u_j.

    A validated tuple (equations,), hashed, compared and ordered as one; the
    equations are kept sorted, so that equality and hashing ignore their order.
    """

    __slots__ = ()

    def __new__(cls, equations: tuple[tuple[tuple[int, ...], TorsionAngle], ...]):
        equations = tuple(sorted(equations))
        if not equations:
            raise ValueError("a translated subtorus needs at least one equation")
        pivots, _, _ = rref([u for u, _ in equations], len(equations[0][0]))
        if len(pivots) != len(equations):
            raise ValueError("subtorus equations must be linearly independent")
        return tuple.__new__(cls, (equations,))

    @property
    def codimension(self) -> int:
        return len(self.equations)

    def contains_point(self, point: Sequence[TorsionAngle]) -> bool:
        return all(_monomial_at(u, point) == xi for u, xi in self.equations)


def rref(rows: list, ncols: int, modulus: int = 0) -> tuple[list[int], list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, pivoting in the
    first ncols columns only: the pivot columns (as many as the rank of those
    columns), the reduced rows, each primitive with a positive entry at its
    own pivot and zeros at the other pivots, and the index in `rows` of the
    row that each reduced row was pivoted from.

    The origins travel with the rows through each swap, and every other step
    scales a row by a nonzero factor or adds a multiple of a pivot row, so the
    reduced rows are T M[R, :] with R the origins and T invertible.  At the
    pivot columns C they are diagonal with a nonzero diagonal, so M[R, C] is
    invertible.

    With a prime modulus p only the rank is computed, and no reduced row is
    returned (the second list is empty).  The rows are reduced modulo p and
    eliminated fraction-free below each pivot only, with no inverse: a row
    with f at the pivot column becomes p_c row - f pivot row, with p_c the
    pivot entry.  A row that becomes zero is dropped, and the elimination
    stops when no row is left.  The pivot columns are the first independent
    columns of the matrix modulo p.  Each pivot row is a nonzero multiple of
    its origin's row plus multiples of earlier pivot rows, so the pivot rows
    are T M[R, :] with T triangular and invertible modulo p; at C they are
    triangular with the pivot entries on the diagonal, so M[R, C] is
    invertible modulo p."""
    if modulus:
        left = [(i, r) for i, r in enumerate([x % modulus for x in row] for row in rows) if any(r)]
        pivots, origin = [], []
        for col in range(ncols):
            if not left:
                break
            for k, (i, prow) in enumerate(left):
                p = prow[col]
                if p:
                    break
            else:
                continue
            del left[k]
            pivots.append(col)
            origin.append(i)
            kept = []
            for j, row in left:
                f = row[col]
                if f:
                    row = [(p * x - f * y) % modulus for x, y in zip(row, prow)]
                    if not any(row):
                        continue
                kept.append((j, row))
            left = kept
        return pivots, [], origin
    mat = [list(row) for row in rows]
    origin = list(range(len(mat)))
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        row = mat[pivot]
        g = math.gcd(*row) if row[col] > 0 else -math.gcd(*row)
        prow = [x // g for x in row]
        mat[pivot], mat[rank] = mat[rank], prow
        origin[pivot], origin[rank] = origin[rank], origin[pivot]
        p = prow[col]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != rank:
                row = [p * x - f * y for x, y in zip(row, prow)]
                g = math.gcd(*row)  # 0 on an all-zero row, which stays as it is
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
    return pivots, mat[: len(pivots)], origin[: len(pivots)]


def tau_preimage(
    m_rows: Sequence[Sequence[int]], divisor: PrimeTorusDivisor
) -> list[PrimeTorusDivisor]:
    """Preimage of {t^u = xi} under the torus map defined by a natural matrix.

    The map sends (lambda_1, ..., lambda_p) to the tuple of monomials with
    exponents the columns of the matrix; the preimage of the divisor is the
    union of the gcd(M u) prime divisors {lambda^{Mu/g} = eta} over the g-th
    roots eta of xi.
    """
    rows = [tuple(int(x) for x in row) for row in m_rows]
    if any(x < 0 for row in rows for x in row):
        raise ValueError("torus map matrix must have natural entries")
    r = divisor.nvars
    if any(len(row) != r for row in rows):
        raise ValueError("matrix width must match the divisor's torus")
    w = tuple(sum(row[i] * divisor.u[i] for i in range(r)) for row in rows)
    if all(x == 0 for x in w):
        raise ValueError("divisor pulls back to all of the torus or empty")
    g = math.gcd(*w)
    u_new = tuple(x // g for x in w)
    return [PrimeTorusDivisor(u_new, eta) for eta in angle_roots(divisor.xi, g)]


def nondegeneracy_check(
    m_rows: Sequence[Sequence[int]], nonempty_mask: Sequence[bool]
) -> bool:
    """Whether the exponent matrix defines a non-degenerate specialization.

    Requires full row rank over Q (surjective torus map) and nonzero column
    sums over every coordinate flagged as having a nonempty divisor.
    """
    rows = [[int(x) for x in row] for row in m_rows]
    r = len(rows[0]) if rows else 0
    if len(rref(rows, r)[0]) != len(rows):
        return False
    if len(nonempty_mask) != r:
        raise ValueError("mask length must match number of columns")
    for i in range(r):
        if nonempty_mask[i] and sum(row[i] for row in rows) == 0:
            return False
    return True
