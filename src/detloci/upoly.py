"""Dense one-variable polynomials over Q(zeta_N), the representation of the Smith layer.

Each t-degree holds the integer numerators of its coefficient on 1, z, ...,
z^(phi(N)-1), and one positive denominator serves the whole polynomial, so a
product is an integer schoolbook convolution in t and z with one reduction
modulo Phi_N per t-degree and one gcd, a row update is one fused
`target - q*source`, and a sum of products (an entry of a matrix product)
accumulates every convolution before its one reduction and gcd.  Internal to
the package: callers convert at the boundary with `poly.u_dense` and
`poly.u_laurent`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .arith import CycloElem, _canonical, _phi_tail, reduce_mod_phi


def _convolution(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """Numerator rows of the product of two nonzero dense polynomials, convolved
    in t and z but not reduced modulo Phi_N."""
    if len(a[0]) == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, (x,) in enumerate(a):
            if x:
                for j, (y,) in enumerate(b):
                    out[i + j] += x * y
        return [[c] for c in out]
    sparse_b = [[(q, y) for q, y in enumerate(row) if y] for row in b]
    out = [[0] * (2 * len(a[0]) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, row in enumerate(a):
        xs = [(p, x) for p, x in enumerate(row) if x]
        if xs:
            for j, ys in enumerate(sparse_b):
                acc = out[i + j]
                for q, y in ys:
                    for p, x in xs:
                        acc[p + q] += x * y
    return out


def _product_rows(order: int, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """Numerator rows of the product of two dense polynomials, not normalized."""
    if not a or not b:
        return []
    rows = _convolution(a, b)
    return rows if len(a[0]) == 1 else [reduce_mod_phi(order, row) for row in rows]


def sum_of_products(order: int, pairs: Iterable[tuple["UPoly", "UPoly"]]) -> "UPoly":
    """The sum of a*b over the (a, b) pairs: every numerator convolution
    accumulates unreduced over one common denominator, then each t-degree is
    reduced modulo Phi_order once and the sum normalized once."""
    pairs = [(a, b) for a, b in pairs if a.rows and b.rows]
    den = math.lcm(*(a.den * b.den for a, b in pairs))
    out = []
    for a, b in pairs:
        f = den // (a.den * b.den)
        for k, row in enumerate(_convolution(a.rows, b.rows)):
            if k == len(out):
                out.append([0] * len(row))
            out[k] = [x + f * y for x, y in zip(out[k], row)]
    return _make(order, [reduce_mod_phi(order, row) for row in out], den)


def _make(order: int, rows: list, den: int) -> "UPoly":
    """rows/den (den > 0) with trailing zero rows and common factors removed."""
    while rows and not any(rows[-1]):
        rows.pop()
    if not rows:
        return UPoly(order, 1, ())
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g != 1:
            return UPoly(order, den // g, tuple(tuple(n // g for n in row) for row in rows))
    return UPoly(order, den, tuple(map(tuple, rows)))


class UPoly:
    """A polynomial sum_k (rows[k] . (1, z, ...)) t^k / den over Q(zeta_order).

    Kept canonical (no trailing zero row, gcd(den, all numerators) == 1), so
    zero is () over 1 and equal polynomials of one order have equal fields.
    Treated as immutable; the monic form is remembered once asked for.
    """

    __slots__ = ("order", "den", "rows", "_monic")

    def __init__(self, order: int, den: int, rows: tuple[tuple[int, ...], ...]):
        self.order = order
        self.den = den
        self.rows = rows
        self._monic = None

    @staticmethod
    def from_terms(order: int, terms: Iterable[tuple[int, CycloElem]]) -> "UPoly":
        """sum c_k t^k from (k, c_k) pairs with distinct k >= 0 and nonzero c_k."""
        terms = [(k, c.lift(order)) for k, c in terms]
        if min((k for k, _ in terms), default=0) < 0:
            raise ValueError("dense polynomials need exponents >= 0")
        den = math.lcm(*(c.den for _, c in terms))
        rows = [(0,) * _phi_tail(order)[0]] * (max((k for k, _ in terms), default=-1) + 1)
        for k, c in terms:
            f = den // c.den
            rows[k] = c.nums if f == 1 else tuple(n * f for n in c.nums)
        return UPoly(order, den, tuple(rows))

    @staticmethod
    def one(order: int) -> "UPoly":
        return UPoly(order, 1, ((1,) + (0,) * (_phi_tail(order)[0] - 1),))

    def terms(self) -> Iterator[tuple[int, CycloElem]]:
        """The (k, c_k) pairs of the nonzero coefficients."""
        order, den = self.order, self.den
        return ((k, _canonical(order, row, den)) for k, row in enumerate(self.rows) if any(row))

    def is_zero(self) -> bool:
        return not self.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return (self.order, self.den, self.rows) == (other.order, other.den, other.rows)

    __hash__ = None

    def __neg__(self) -> "UPoly":
        return UPoly(self.order, self.den, tuple(tuple(-n for n in row) for row in self.rows))

    def __add__(self, other: "UPoly") -> "UPoly":
        return self._combine(other.rows, other.den, 1)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self._combine(other.rows, other.den, -1)

    def submul(self, q: "UPoly", s: "UPoly") -> "UPoly":
        """self - q*s, normalized once."""
        if not q.rows or not s.rows:
            return self
        return self._combine(_product_rows(self.order, q.rows, s.rows), q.den * s.den, -1)

    def _combine(self, b: Sequence[Sequence[int]], db: int, sign: int) -> "UPoly":
        """self + sign * b/db for integer numerator rows b."""
        if not b:
            return self
        a, da = self.rows, self.den
        g = math.gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        rows = [[fa * x + fb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        if len(a) > len(b):
            rows += [[fa * x for x in ra] for ra in a[len(b):]]
        else:
            rows += [[fb * y for y in rb] for rb in b[len(a):]]
        return _make(self.order, rows, da // g * db)

    def __mul__(self, other: "UPoly") -> "UPoly":
        return _make(self.order, _product_rows(self.order, self.rows, other.rows), self.den * other.den)

    def scale(self, c: CycloElem) -> "UPoly":
        c = c.lift(self.order)
        return _make(self.order, _product_rows(self.order, self.rows, (c.nums,)), self.den * c.den)

    def monic_pair(self) -> tuple["UPoly", CycloElem | None]:
        """This nonzero polynomial scaled to leading coefficient 1, and the
        inverse of its leading coefficient (None when that is already 1)."""
        if self._monic is None:
            top = self.rows[-1]
            if top[0] == self.den and not any(top[1:]):
                self._monic = (None, None)
            else:
                inv = _canonical(self.order, top, self.den).inverse()
                self._monic = (self.scale(inv), inv)
        monic, inv = self._monic
        return (self if monic is None else monic), inv

    def divmod(self, g: "UPoly") -> tuple["UPoly", "UPoly"]:
        """(q, r) with self = q*g + r and deg r < deg g.

        Runs on integer rows against the monic form of g: each step drops the
        top row of the remainder, and only a monic form with a denominator
        other than 1 scales the rows.  A monic g needs no inverse.
        """
        if not g.rows:
            raise ZeroDivisionError("polynomial division by zero")
        monic, inv = g.monic_pair()
        order, db, dm = self.order, len(monic.rows) - 1, monic.den
        tail = monic.rows[:db]
        rem = [list(row) for row in self.rows]
        den = self.den
        quot = []
        while len(rem) > db:
            top = rem.pop()
            quot.append(top)
            if not any(top):
                continue
            if dm != 1:
                rem = [[n * dm for n in row] for row in rem]
                quot = [[n * dm for n in row] for row in quot]
                den *= dm
            shift = len(rem) - db
            for k, row in enumerate(_product_rows(order, (top,), tail)):
                rem[shift + k] = [x - y for x, y in zip(rem[shift + k], row)]
        q = _make(order, quot[::-1], den)
        return (q if inv is None else q.scale(inv)), _make(order, rem, den)
