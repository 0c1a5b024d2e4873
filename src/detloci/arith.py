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
from typing import Iterable, Mapping, Sequence


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

    t^n - 1 divided by Phi_d for every proper divisor d of n; each Phi_d is
    monic and integral, so every division is exact over the integers.
    """
    if n < 1:
        raise ValueError("cyclotomic polynomial needs n >= 1")
    rem = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        phi = cyclotomic_poly(d)
        top = len(phi) - 1
        quot = [0] * (len(rem) - top)
        for k in range(len(quot) - 1, -1, -1):
            c = quot[k] = rem[k + top]
            if c:
                for i, p in enumerate(phi):
                    rem[k + i] -= c * p
        if any(rem):
            raise ArithmeticError("cyclotomic product did not divide exactly")
        rem = quot
    return tuple(rem)


# ---------------------------------------------------------------------------
# Q(zeta_N) elements


@lru_cache(maxsize=None)
def _phi_tail(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(order) and the nonzero (index, coefficient) pairs of Phi_order below
    its leading 1."""
    phi = cyclotomic_poly(order)
    return len(phi) - 1, tuple((i, c) for i, c in enumerate(phi[:-1]) if c)


def reduce_mod_phi(order: int, dense: Sequence[int]) -> list[int]:
    """Residue of an integer coefficient list (constant first) modulo Phi_order.

    Indices >= order fold by z^order = 1, which Phi_order divides; then
    synthetic division from the top by the monic Phi_order leaves phi(order)
    integer coefficients.
    """
    d, tail = _phi_tail(order)
    n = len(dense)
    if n <= d:
        return list(dense) + [0] * (d - n)
    out = list(dense)
    if n > order:
        for k in range(order, n):
            out[k % order] += out[k]
        del out[order:]
    for top in range(len(out) - 1, d - 1, -1):
        if c := out[top]:
            base = top - d
            for i, p in tail:
                out[base + i] -= c * p
    return out[:d]


def _mul_nums(order: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer residues modulo Phi_order."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    return reduce_mod_phi(order, conv)


def lift_nums(nums: Sequence[int], order: int, new_order: int) -> tuple[int, ...]:
    """Numerators over the powers of zeta_order embedded in Q(zeta_new_order) via
    zeta_order = zeta_new_order^(new_order/order).  The embedding keeps the ring
    of integers, so a row without a factor common to a denominator keeps none."""
    if new_order % order:
        raise ValueError("can only lift along divisibility of orders")
    step = new_order // order
    dense = [0] * ((len(nums) - 1) * step + 1)
    for j, n in enumerate(nums):
        dense[j * step] = n
    return tuple(reduce_mod_phi(new_order, dense))


def _elem(order: int, nums: tuple[int, ...], den: int) -> "CycloElem":
    """Wrap numerators and a denominator that are already canonical."""
    e = _new(CycloElem)
    _set_order(e, order)
    _set_nums(e, nums)
    _set_den(e, den)
    return e


def _canonical(order: int, nums: Sequence[int], den: int) -> "CycloElem":
    """nums/den (den > 0) with the common factor of numerators and den removed."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return _elem(order, tuple(n // g for n in nums), den // g)
    return _elem(order, tuple(nums), den)


class CycloElem:
    """An element of Q(zeta_order) as a reduced residue modulo Phi_order.

    Stored as integer numerators over one positive common denominator, kept
    canonical: gcd(*nums, den) == 1, so zero is (0, ..., 0)/1 and equal
    elements of one field have equal (nums, den).
    """

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order: int, coeffs: Sequence[Fraction]):
        if len(coeffs) != _phi_tail(order)[0]:
            raise ValueError("coefficient vector has wrong length")
        return CycloElem.make(order, coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, z, ..., z^(d-1), reduced."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    @staticmethod
    def make(order: int, dense: Iterable[Fraction]) -> "CycloElem":
        """Reduce an arbitrary Q[z] coefficient list modulo Phi_order."""
        qs = [Fraction(c) for c in dense]
        den = math.lcm(*(q.denominator for q in qs))
        nums = [q.numerator * (den // q.denominator) for q in qs]
        return _canonical(order, reduce_mod_phi(order, nums), den)

    @staticmethod
    def zero(order: int) -> "CycloElem":
        return _elem(order, (0,) * _phi_tail(order)[0], 1)

    @staticmethod
    def one(order: int) -> "CycloElem":
        return _elem(order, (1,) + (0,) * (_phi_tail(order)[0] - 1), 1)

    @staticmethod
    def from_rational(order: int, q) -> "CycloElem":
        q = Fraction(q)
        return _elem(order, (q.numerator,) + (0,) * (_phi_tail(order)[0] - 1), q.denominator)

    @staticmethod
    def from_angle(order: int, angle: TorsionAngle) -> "CycloElem":
        """The root of unity e^{2*pi*i*angle} inside Q(zeta_order)."""
        if order % angle.den:
            raise ValueError(f"angle denominator {angle.den} does not divide order {order}")
        return zeta_power(order, order // angle.den * angle.num)

    def lift(self, new_order: int) -> "CycloElem":
        """Embed into Q(zeta_M) for order | M via zeta_N = zeta_M^{M/N}."""
        if new_order == self.order:
            return self
        return _elem(new_order, lift_nums(self.nums, self.order, new_order), self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def _pair(self, other: "CycloElem") -> tuple["CycloElem", "CycloElem"]:
        if self.order == other.order:
            return self, other
        m = self.order * other.order // math.gcd(self.order, other.order)
        return self.lift(m), other.lift(m)

    def __add__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        da, db = a.den, b.den
        return _canonical(a.order, [x * db + y * da for x, y in zip(a.nums, b.nums)], da * db)

    def __sub__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        da, db = a.den, b.den
        return _canonical(a.order, [x * db - y * da for x, y in zip(a.nums, b.nums)], da * db)

    def __neg__(self) -> "CycloElem":
        return _elem(self.order, tuple(-x for x in self.nums), self.den)

    def __mul__(self, other: "CycloElem") -> "CycloElem":
        a, b = self._pair(other)
        return _canonical(a.order, _mul_nums(a.order, a.nums, b.nums), a.den * b.den)

    def scale(self, q) -> "CycloElem":
        q = Fraction(q)
        return _canonical(
            self.order, [n * q.numerator for n in self.nums], self.den * q.denominator
        )

    def inverse(self) -> "CycloElem":
        """1/x as the product of the other Galois conjugates of x over its norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        nums, order = self.nums, self.order
        if self.is_rational():
            return CycloElem.from_rational(order, Fraction(self.den, nums[0]))
        # x = A/den, and A * prod_{a != 1} sigma_a(A) = norm(A), a nonzero integer,
        # where sigma_a sends z to z^a for each unit a modulo the order
        cofactor = [1]
        for a in range(2, order):
            if math.gcd(a, order) == 1:
                dense = [0] * order
                for j, n in enumerate(nums):
                    dense[j * a % order] = n
                cofactor = _mul_nums(order, cofactor, reduce_mod_phi(order, dense))
        norm = _mul_nums(order, nums, cofactor)
        if any(norm[1:]) or not norm[0]:
            raise ArithmeticError("norm of a nonzero element is not a nonzero rational")
        sign = -1 if norm[0] < 0 else 1
        return _canonical(order, [sign * self.den * c for c in cofactor], abs(norm[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # values compare equal across field extensions

    def __repr__(self) -> str:
        return f"CycloElem(order={self.order}, coeffs={self.coeffs})"


_new = object.__new__
# slot setters: CycloElem.__setattr__ refuses every assignment
_set_order = CycloElem.order.__set__
_set_nums = CycloElem.nums.__set__
_set_den = CycloElem.den.__set__


def zeta_power(order: int, k: int) -> "CycloElem":
    """The power zeta_order^k as a reduced field element."""
    return _elem(order, tuple(reduce_mod_phi(order, [0] * (k % order) + [1])), 1)


# ---------------------------------------------------------------------------
# Sums at roots of unity, spread over the powers of zeta


def _spread(
    order: int, source: int, terms: Sequence, weights: Sequence[int] | None = None
) -> list[int]:
    """sum w * n * zeta_order^shift over the (n, shift) terms, n a numerator row
    over the powers of zeta_source (source | order), as integers indexed by the
    exponent of zeta_order; the integer weights w are all 1 when none are given."""
    step = order // source
    dense = [0] * order
    for t, (nums, shift) in enumerate(terms):
        w = 1 if weights is None else weights[t]
        if not w:
            continue
        for i, n in enumerate(nums):
            if n:
                dense[(i * step + shift) % order] += n * w
    return dense


def root_multiplicity(
    order: int, rows: Mapping[int, Sequence[int]], xi: TorsionAngle, cap: int | None = None
) -> int:
    """Multiplicity of the root of unity xi in the Laurent polynomial sum c_k t^k
    given by its rows {k: numerators of c_k over the powers of zeta_order}; no
    denominator is passed, since a nonzero scale moves no root.

    The multiplicity is the least j with sum_k C(k - low, j) c_k xi^k != 0,
    low the least key (a zero row changes nothing): that sum is xi^(low + j)
    times the j-th Hasse derivative of t^-low * f at xi.  Each j costs one
    integer spread of the weighted c_k xi^k over the powers of zeta_M, M the
    lcm of order and xi's denominator, and one reduction modulo Phi_M; no
    field multiplication.  With a cap, min(multiplicity, cap) is
    returned and no j >= cap is tried; without one, the zero polynomial
    raises ArithmeticError.
    """
    top = math.lcm(xi.den, order)
    rot = top // xi.den * xi.num
    terms = [(nums, rot * k) for k, nums in rows.items()]
    low = min(rows, default=0)
    j = 0
    while cap is None or j < cap:
        weights = [math.comb(k - low, j) for k in rows] if j else None
        if any(reduce_mod_phi(top, _spread(top, order, terms, weights))):
            return j
        if j and not any(weights):
            raise ArithmeticError("the zero polynomial has no root multiplicity")
        j += 1
    return cap
