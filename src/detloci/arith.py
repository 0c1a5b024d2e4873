"""Exact arithmetic for roots of unity and cyclotomic field elements.

Roots of unity are stored as reduced rational angles a/b (the number
e^{2*pi*i*a/b}), and field constants live in Q(zeta_N) = Q[z]/Phi_N(z) for a
cyclotomic order N fixed per computation.  Everything is arbitrary-precision
rational arithmetic; no floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class TorsionAngle:
    """A root of unity e^{2*pi*i*num/den}, stored reduced with 0 <= num < den."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.num, self.den) != 1 and not (self.num == 0 and self.den == 1):
            raise ValueError("angle must be stored reduced")
        if not 0 <= self.num < self.den and not (self.num == 0 and self.den == 1):
            raise ValueError("angle must lie in [0, 1)")

    @staticmethod
    def make(num: int, den: int) -> "TorsionAngle":
        """Reduce num/den modulo 1 into canonical form."""
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        return TorsionAngle(num // g, den // g)

    @staticmethod
    def from_fraction(q: Fraction) -> "TorsionAngle":
        return TorsionAngle.make(q.numerator, q.denominator)

    @staticmethod
    def zero() -> "TorsionAngle":
        return TorsionAngle(0, 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __mul__(self, other: "TorsionAngle") -> "TorsionAngle":
        """Product of the two roots of unity (sum of angles mod 1)."""
        return TorsionAngle.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __pow__(self, k: int) -> "TorsionAngle":
        return TorsionAngle.make(self.num * k, self.den)

    def inverse(self) -> "TorsionAngle":
        return TorsionAngle.make(-self.num, self.den)

    def conjugate(self) -> "TorsionAngle":
        return self.inverse()

    def is_one(self) -> bool:
        return self.num == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def angle_roots(xi: TorsionAngle, g: int) -> list[TorsionAngle]:
    """The g distinct angles eta with eta*g == xi, sorted ascending.

    These are the g-th roots of the root of unity xi.
    """
    if g < 1:
        raise ValueError("root index must be >= 1")
    roots = [
        TorsionAngle.make(xi.num + k * xi.den, xi.den * g) for k in range(g)
    ]
    return sorted(roots, key=lambda a: a.as_fraction())


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q (coefficient lists, constant term first)


def rpoly_trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return tuple(Fraction(c) for c in coeffs[:end])


def rpoly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                out[i + j] += ca * cb
    return rpoly_trim(out)


def rpoly_divmod(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    b = rpoly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(rpoly_trim(a))
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    inv_lead = Fraction(1) / Fraction(b[-1])
    while len(rem) >= len(b):
        c = rem[-1] * inv_lead
        k = len(rem) - len(b)
        quot[k] = c
        for j, cb in enumerate(b):
            rem[k + j] -= c * cb
        while rem and rem[-1] == 0:
            rem.pop()
    return rpoly_trim(quot), rpoly_trim(rem)


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius undefined for n < 1")
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("phi undefined for n < 1")
    result, m = n, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial, dense integer coefficients, constant first.

    Computed from the Moebius product of (t^d - 1) factors; monic of degree
    phi(n), and the product over d | n recovers t^n - 1 exactly.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    num: Sequence[Fraction] = (Fraction(1),)
    den: Sequence[Fraction] = (Fraction(1),)
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 0:
            continue
        factor = [Fraction(-1)] + [Fraction(0)] * (d - 1) + [Fraction(1)]
        if mu == 1:
            num = rpoly_mul(num, factor)
        else:
            den = rpoly_mul(den, factor)
    quot, rem = rpoly_divmod(num, den)
    if rem:
        raise ArithmeticError("cyclotomic product did not divide exactly")
    if any(c.denominator != 1 for c in quot):
        raise ArithmeticError("cyclotomic polynomial not integral")
    return tuple(int(c) for c in quot)


def unit_root_multiplicity(p: Sequence[Fraction], xi: TorsionAngle) -> int:
    """Multiplicity of e^{2*pi*i*xi} as a root of the rational polynomial p.

    Equals the largest m with Phi_b^m | p for xi = a/b, since a polynomial
    with rational coefficients has the same multiplicity at every primitive
    b-th root of unity.
    """
    coeffs = rpoly_trim(p)
    if not coeffs:
        raise ValueError("zero polynomial has infinite multiplicity")
    phi = tuple(Fraction(c) for c in cyclotomic_poly(xi.den))
    mult = 0
    while True:
        quot, rem = rpoly_divmod(coeffs, phi)
        if rem:
            return mult
        mult += 1
        coeffs = quot
        if not coeffs:
            raise ArithmeticError("division chain reached zero polynomial")


# ---------------------------------------------------------------------------
# Q(zeta_N) elements


@lru_cache(maxsize=None)
def _zpow_table(order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Reductions of z^k modulo Phi_order for k = 0 .. max(2*(d-1), order-1)."""
    phi = [Fraction(c) for c in cyclotomic_poly(order)]
    d = len(phi) - 1
    top = max(2 * (d - 1), order - 1, 0)
    rows: list[tuple[Fraction, ...]] = []
    current = [Fraction(0)] * d
    if d > 0:
        current[0] = Fraction(1)
    rows.append(tuple(current))
    for _ in range(top):
        shifted = [Fraction(0)] + current[:]
        if len(shifted) > d and shifted[d] != 0:
            lead = shifted[d]
            for j in range(d):
                shifted[j] -= lead * phi[j]
        current = shifted[:d]
        rows.append(tuple(current))
    return tuple(rows)


class CycloElem:
    """An element of Q(zeta_order) as a reduced residue modulo Phi_order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem values are immutable")

    @staticmethod
    def make(order: int, dense: Iterable[Fraction]) -> "CycloElem":
        """Reduce an arbitrary Q[z] coefficient list modulo Phi_order."""
        table = _zpow_table(order)
        d = euler_phi(order)
        out = [Fraction(0)] * d
        for k, c in enumerate(dense):
            if c == 0:
                continue
            c = Fraction(c)
            if k < d:
                out[k] += c
            else:
                row = table[k]
                for j, rj in enumerate(row):
                    if rj != 0:
                        out[j] += c * rj
        return CycloElem(order, tuple(out))

    @staticmethod
    def zero(order: int) -> "CycloElem":
        return CycloElem(order, tuple([Fraction(0)] * euler_phi(order)))

    @staticmethod
    def one(order: int) -> "CycloElem":
        return CycloElem.from_rational(order, Fraction(1))

    @staticmethod
    def from_rational(order: int, q) -> "CycloElem":
        d = euler_phi(order)
        coeffs = [Fraction(0)] * d
        if d > 0:
            coeffs[0] = Fraction(q)
        elem = CycloElem(order, tuple(coeffs))
        if d == 0:
            raise ValueError("degenerate cyclotomic order")
        return elem

    @staticmethod
    def from_angle(order: int, angle: TorsionAngle) -> "CycloElem":
        """The root of unity e^{2*pi*i*angle} inside Q(zeta_order)."""
        return _angle_elem(order, angle.num, angle.den)

    def lift(self, new_order: int) -> "CycloElem":
        """Embed into Q(zeta_M) for order | M via zeta_N = zeta_M^{M/N}."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValueError("can only lift along divisibility of orders")
        step = new_order // self.order
        dense: dict[int, Fraction] = {}
        for j, c in enumerate(self.coeffs):
            if c != 0:
                dense[j * step] = c
        top = max(dense, default=0)
        arr = [dense.get(k, Fraction(0)) for k in range(top + 1)]
        return CycloElem.make(new_order, arr)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def _pair(self, other: "CycloElem") -> tuple["CycloElem", "CycloElem"]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // math.gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        return CycloElem(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        return CycloElem(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self) -> "CycloElem":
        return CycloElem(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        d = len(a.coeffs)
        if d == 1:
            return CycloElem(a.order, (a.coeffs[0] * b.coeffs[0],))
        if d == 2:
            a0, a1 = a.coeffs
            b0, b1 = b.coeffs
            c2 = a1 * b1
            if c2 == 0:
                return CycloElem(a.order, (a0 * b0, a0 * b1 + a1 * b0))
            row = _zpow_table(a.order)[2]
            return CycloElem(
                a.order,
                (a0 * b0 + c2 * row[0], a0 * b1 + a1 * b0 + c2 * row[1]),
            )
        conv = [Fraction(0)] * (2 * d - 1 if d else 0)
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb != 0:
                    conv[i + j] += ca * cb
        return CycloElem.make(a.order, conv)

    def scale(self, q) -> "CycloElem":
        q = Fraction(q)
        return CycloElem(self.order, tuple(c * q for c in self.coeffs))

    def inverse(self) -> "CycloElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        if self.is_rational():
            return CycloElem.from_rational(self.order, 1 / self.coeffs[0])
        phi = tuple(Fraction(c) for c in cyclotomic_poly(self.order))
        # extended Euclid in Q[z] for gcd(self, Phi) = 1
        r0, r1 = phi, rpoly_trim(self.coeffs)
        s0: tuple[Fraction, ...] = ()
        s1: tuple[Fraction, ...] = (Fraction(1),)
        while r1:
            q, r = rpoly_divmod(r0, r1)
            s = _rpoly_sub(s0, rpoly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s
        if len(r0) != 1:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        inv_const = Fraction(1) / r0[0]
        return CycloElem.make(self.order, tuple(c * inv_const for c in s0))

    def __truediv__(self, other: "CycloElem") -> "CycloElem":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # values compare across field extensions; use sort keys instead

    def sort_key(self) -> tuple:
        return (self.order, self.coeffs)

    def __repr__(self) -> str:
        return f"CycloElem(order={self.order}, coeffs={self.coeffs})"


@lru_cache(maxsize=None)
def _angle_elem(order: int, num: int, den: int) -> "CycloElem":
    if order % den != 0:
        raise ValueError(f"angle denominator {den} does not divide order {order}")
    return zeta_power(order, (order // den) * num)


@lru_cache(maxsize=None)
def zeta_power(order: int, k: int) -> "CycloElem":
    """The power zeta_order^k as a reduced field element."""
    table = _zpow_table(order)
    return CycloElem(order, table[k % order] if order > 1 else table[0])


def _rpoly_sub(
    a: Sequence[Fraction], b: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return rpoly_trim(out)


def lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def lcm_all(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = lcm(out, v)
    return out
