"""Dense one-variable polynomials over Q(zeta_N), the representation of the Smith layer.

Each t-degree holds the integer numerators of its coefficient on 1, z, ...,
z^(phi(N)-1), and one positive denominator serves the whole polynomial.  Every
product runs on one integer kernel, `_accumulate`, which adds f*x*y into
unreduced rows in place over the nonzero numerators of the two operands.  Each
polynomial remembers those sparse rows once asked for, so an operand reused
across products (a matrix column, an echelon vector, a divisor) is scanned
once.  A product, a row update `target - q*source` seeded with the target's
rows, a division step and a sum of products (an entry of a matrix product)
each accumulate every term before one reduction modulo Phi_N per t-degree and
one gcd.  Internal to the package: callers convert at the boundary with
`poly.u_dense` and `poly.u_laurent`.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from .arith import CycloElem, _canonical, _phi_tail, reduce_mod_phi


def _accumulate(out: list, sa: Sequence, sb: Sequence, f: int):
    """out[i+j][p+q] += f*x*y over the sparse rows (i, [(p, x), ...]) of sa and
    (j, [(q, y), ...]) of sb: the one product kernel, unreduced modulo Phi_N."""
    for i, xs in sa:
        if f != 1:
            xs = [(p, f * x) for p, x in xs]
        for j, ys in sb:
            acc = out[i + j]
            for q, y in ys:
                for p, x in xs:
                    acc[p + q] += x * y


def _reduced(order: int, out: list, den: int) -> "UPoly":
    """The canonical out/den once each unreduced row is reduced modulo Phi_order
    (rows of one integer, at phi(order) = 1, are already reduced)."""
    if out and len(out[0]) > 1:
        out = [reduce_mod_phi(order, row) for row in out]
    return _make(order, out, den)


def sum_of_products(order: int, pairs: Iterable[tuple["UPoly", "UPoly"]]) -> "UPoly":
    """The sum of a*b over the (a, b) pairs: every product accumulates unreduced
    into one set of rows over one common denominator, then each t-degree is
    reduced modulo Phi_order once and the sum normalized once."""
    pairs = [(a, b) for a, b in pairs if a.rows and b.rows]
    den = math.lcm(*(a.den * b.den for a, b in pairs))
    length = max((len(a.rows) + len(b.rows) - 1 for a, b in pairs), default=0)
    out = [[0] * (2 * _phi_tail(order)[0] - 1) for _ in range(length)]
    for a, b in pairs:
        _accumulate(out, a.sparse(), b.sparse(), den // (a.den * b.den))
    return _reduced(order, out, den)


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
    Treated as immutable; the monic form and the sparse rows are remembered
    once asked for.
    """

    __slots__ = ("order", "den", "rows", "_monic", "_sparse")

    def __init__(self, order: int, den: int, rows: tuple[tuple[int, ...], ...]):
        self.order = order
        self.den = den
        self.rows = rows
        self._monic = None
        self._sparse = None

    def sparse(self) -> list:
        """[(k, [(q, y), ...])] over the nonzero rows k and their nonzero numerators y of z^q."""
        if self._sparse is None:
            rows = enumerate(self.rows)
            self._sparse = [(k, [(q, y) for q, y in enumerate(row) if y]) for k, row in rows if any(row)]
        return self._sparse

    @staticmethod
    def one(order: int) -> "UPoly":
        return UPoly(order, 1, ((1,) + (0,) * (_phi_tail(order)[0] - 1),))

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
        """self - q*s: self's rows over the common denominator take -q*s in
        place, then one reduction and one normalization."""
        if not q.rows or not s.rows:
            return self
        dp = q.den * s.den
        g = math.gcd(self.den, dp)
        d, fa = len(s.rows[0]), dp // g
        out = [[fa * x for x in row] + [0] * (d - 1) for row in self.rows]
        out += [[0] * (2 * d - 1) for _ in range(len(q.rows) + len(s.rows) - 1 - len(out))]
        _accumulate(out, q.sparse(), s.sparse(), -(self.den // g))
        return _reduced(self.order, out, self.den // g * dp)

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
        return sum_of_products(self.order, ((self, other),))

    def scale(self, c: CycloElem) -> "UPoly":
        c = c.lift(self.order)
        return self * UPoly(self.order, c.den, (c.nums,))

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

        Runs on unreduced integer rows against the monic form of g: each step
        reduces and drops the top row of the remainder and accumulates its
        product with the sparse tail of the monic form, and only a monic form
        with a denominator other than 1 scales the rows.  A monic g needs no
        inverse.
        """
        if not g.rows:
            raise ZeroDivisionError("polynomial division by zero")
        monic, inv = g.monic_pair()
        order, db, dm = self.order, len(monic.rows) - 1, monic.den
        tail = monic.sparse()[:-1]
        zeros = [0] * (len(monic.rows[0]) - 1)
        rem = [list(row) + zeros for row in self.rows]
        den = self.den
        quot = []
        while len(rem) > db:
            top = reduce_mod_phi(order, rem.pop())
            quot.append(top)
            if not any(top):
                continue
            if dm != 1:
                rem = [[n * dm for n in row] for row in rem]
                quot = [[n * dm for n in row] for row in quot]
                den *= dm
            _accumulate(rem, [(len(rem) - db, [(p, -x) for p, x in enumerate(top) if x])], tail, 1)
        q = _make(order, quot[::-1], den)
        return (q if inv is None else q.scale(inv)), _reduced(order, rem, den)
