"""Torsion-translated subtori of the algebraic torus and related calculus.

Covers codimension-one prime divisors {t^u = xi} with natural primitive
support, formal integer divisors, Exp images of affine hyperplanes with
natural normals, slopes, preimages under monomial torus maps, and membership
tests for higher-codimension translated subtori.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arith import TorsionAngle, angle_roots


@dataclass(frozen=True)
class AffineHyperplane:
    """The hyperplane {c_1 s_1 + ... + c_r s_r + c0 = 0} with c in N^r, c != 0."""

    c: tuple[int, ...]
    c0: int

    def __post_init__(self):
        if not any(self.c):
            raise ValueError("hyperplane normal must be nonzero")
        if min(self.c) < 0:
            raise ValueError("hyperplane normal must have natural entries")

    @property
    def nvars(self) -> int:
        return len(self.c)

    @property
    def paper_normal(self) -> bool:
        return self.c0 > 0

    def shifted(self, v: Sequence[int]) -> "AffineHyperplane":
        """Image under alpha -> alpha - v: the normal stays, c0 gains c . v."""
        if len(v) != len(self.c):
            raise ValueError("translation vector has wrong length")
        shift = sum(ci * vi for ci, vi in zip(self.c, v))
        return AffineHyperplane(self.c, self.c0 + shift)

    def set_canonical(self) -> tuple[tuple[int, ...], int]:
        """Scale-invariant form of the point set (divide out the full gcd)."""
        g = 0
        for x in self.c:
            g = math.gcd(g, x)
        g = math.gcd(g, abs(self.c0))
        return tuple(x // g for x in self.c), self.c0 // g

    def sort_key(self) -> tuple:
        return (self.c, self.c0)

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
    g = 0
    for x in h.c:
        g = math.gcd(g, x)
    return tuple(x // g for x in h.c)


def is_oblique(h: AffineHyperplane) -> bool:
    """A hyperplane is oblique when every normal coordinate is nonzero."""
    return all(x != 0 for x in h.c)


@dataclass(frozen=True, order=True)
class PrimeTorusDivisor:
    """The irreducible hypersurface {t^u = xi} with u primitive in N^r."""

    u: tuple[int, ...]
    xi: TorsionAngle

    def __post_init__(self):
        if not self.u or all(x == 0 for x in self.u):
            raise ValueError("divisor support must be nonzero")
        if any(x < 0 for x in self.u):
            raise ValueError("divisor support must have natural entries")
        g = 0
        for x in self.u:
            g = math.gcd(g, x)
        if g != 1:
            raise ValueError("divisor support must be primitive")

    @property
    def nvars(self) -> int:
        return len(self.u)

    def contains_point(self, point: Sequence[TorsionAngle]) -> bool:
        """Whether a torsion point (given by angles) lies on the divisor."""
        total = Fraction(0)
        for ui, a in zip(self.u, point):
            total += ui * a.as_fraction()
        return TorsionAngle.from_fraction(total) == self.xi

    def conjugate(self) -> "PrimeTorusDivisor":
        return PrimeTorusDivisor(self.u, self.xi.conjugate())

    def sort_key(self) -> tuple:
        return (self.u, self.xi.as_fraction())

    def __str__(self) -> str:
        mono = "*".join(
            f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
            for i, e in enumerate(self.u)
            if e != 0
        )
        return f"{{{mono}=e({self.xi})}}"


def exp_hyperplane(h: AffineHyperplane) -> PrimeTorusDivisor:
    """Image of {c . s + c0 = 0} under (alpha_i) |-> (e^{2 pi i alpha_i}).

    With g = gcd(c) the image is the prime divisor {t^{c/g} = e^{-2 pi i c0/g}}:
    every point of the divisor lifts because c/g is primitive.
    """
    g = 0
    for x in h.c:
        g = math.gcd(g, x)
    u = tuple(x // g for x in h.c)
    xi = TorsionAngle.make(-h.c0, g)
    return PrimeTorusDivisor(u, xi)


class TorusDivisor:
    """Formal Z-linear combination of prime torus divisors."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[PrimeTorusDivisor, int] | None = None):
        cleaned = {}
        if coeffs:
            for prime, mult in coeffs.items():
                if mult != 0:
                    cleaned[prime] = mult
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("TorusDivisor values are immutable")

    @staticmethod
    def of(prime: PrimeTorusDivisor, mult: int = 1) -> "TorusDivisor":
        return TorusDivisor({prime: mult})

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

    def reduced_support(self) -> set[PrimeTorusDivisor]:
        return set(self.coeffs)

    def items(self) -> list[tuple[PrimeTorusDivisor, int]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "TorusDivisor(0)"
        body = " + ".join(f"{m}*{p}" for p, m in self.items())
        return f"TorusDivisor({body})"


@dataclass(frozen=True)
class TranslatedSubtorus:
    """Intersection of {t^{u_j} = xi_j} with Q-linearly independent u_j."""

    equations: tuple[tuple[tuple[int, ...], TorsionAngle], ...]

    def __post_init__(self):
        if not self.equations:
            raise ValueError("a translated subtorus needs at least one equation")
        pivots, _ = rref([u for u, _ in self.equations], len(self.equations[0][0]))
        if len(pivots) != len(self.equations):
            raise ValueError("subtorus equations must be linearly independent")

    @property
    def codimension(self) -> int:
        return len(self.equations)

    def contains_point(self, point: Sequence[TorsionAngle]) -> bool:
        for u, xi in self.equations:
            total = Fraction(0)
            for ui, a in zip(u, point):
                total += ui * a.as_fraction()
            if TorsionAngle.from_fraction(total) != xi:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, TranslatedSubtorus):
            return NotImplemented
        return sorted(self.equations, key=_eq_key) == sorted(
            other.equations, key=_eq_key
        )

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.equations, key=_eq_key)))


def _eq_key(eq: tuple[tuple[int, ...], TorsionAngle]) -> tuple:
    u, xi = eq
    return (u, xi.as_fraction())


def rref(rows: list, ncols: int) -> tuple[list[int], list[list[Fraction]]]:
    """Gauss-Jordan elimination over Fraction pivoting in the first ncols columns
    only: the pivot columns (as many as the rank of those columns), reduced rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots, mat[: len(pivots)]


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
    g = 0
    for x in w:
        g = math.gcd(g, x)
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
