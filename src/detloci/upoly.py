"""Dense one-variable polynomials over Q(zeta_N), the representation of the Smith layer.

Each t-degree holds the integer numerators of its coefficient on 1, z, ...,
z^(phi(N)-1), and one positive denominator serves the whole polynomial.  Every
product runs on one integer kernel, `_accumulate`, which adds f*x*y into
unreduced rows in place over the nonzero numerators of the two operands.  Each
polynomial remembers those sparse rows once asked for, so an operand reused
across products (a matrix column, an echelon vector, a divisor) is scanned
once.  A product, a row update `target - q*source` seeded with the target's
rows and a sum of products (an entry of a matrix product) each accumulate
every term before one reduction modulo Phi_N per t-degree and one gcd; the
reduction skips a row with nothing at z^phi(N) or above.

One division loop, `_eliminate`, serves `UPoly.divmod`, `UPoly.remainder`
(which builds no quotient) and the Krylov echelon of `smith`: it keeps the
remainder, and the combination the Krylov echelon tracks, as unreduced
integer rows over one denominator, reduces only the top row of each step
modulo Phi_N, and normalizes all rows only when the denominator has grown by
a machine word; division reads its quotient off the steps the loop took.
Internal to the package: callers convert at the boundary with `poly.u_dense`
and `poly.u_laurent`.
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


def _reduced_rows(order: int, out: list) -> list:
    """Each unreduced row, of 2 phi(order) - 1 entries, modulo Phi_order; a row
    with nothing at z^phi(order) or above is only cut to phi(order) entries
    (rows of one integer, at phi(order) = 1, are already reduced)."""
    if not out or len(out[0]) == 1:
        return out
    d = (len(out[0]) + 1) // 2
    return [reduce_mod_phi(order, row) if any(row[d:]) else row[:d] for row in out]


def _reduced(order: int, out: list, den: int) -> "UPoly":
    """The canonical out/den of unreduced rows out."""
    return _make(order, _reduced_rows(order, out), den)


# The division loop scales its unreduced rows by each pivot's denominator and
# reduces only the top row, so the rows carry a factor that the content gcd of
# unreduced rows rarely finds.  Once the running denominator has grown by more
# than a machine word since the rows were last normalized, every row is
# reduced modulo Phi_N and the content gcd divided out: without this the
# largest operand of the Krylov echelon of a dense planted 24 x 24 matrix at
# order 12 grew from about 3,500 to 22,000 bits, and the echelon took three to
# five times as long.
_NORMALIZE_BITS = 64


def _normalize(order: int, den: int, blocks: list[list]) -> int:
    """Reduce every row of the blocks modulo Phi_order and divide them and den by
    their common factor, in place, keeping each row's unreduced width; returns
    the new den."""
    reduced = [_reduced_rows(order, rows) for rows in blocks]
    g = math.gcd(den, *itertools.chain.from_iterable(itertools.chain.from_iterable(reduced)))
    pad = [0] * (_phi_tail(order)[0] - 1)
    for rows, new in zip(blocks, reduced):
        rows[:] = [[n // g for n in row] + pad for row in new]
    return den // g


def _eliminate(order: int, rem: list, den: int, pivots: dict, acc: list | None) -> tuple:
    """The division loop: reduce the unreduced rows rem/den from the top, in
    place.  Returns the denominator that rem and acc end over and the steps
    taken, each (shift, top, d): top/d is the coefficient taken off at the
    step, times the pivot shifted by `shift` rows.

    The loop stops below the lowest pivot, and at a top row k that is
    nonzero modulo Phi_order and has no entry in pivots; a top row that is
    zero modulo Phi_order is dropped.  pivots[k] = (deg, e, tail, c)
    is the monic pivot (tail + e*t^deg)/e, tail its sparse rows below t^deg,
    and c the sparse rows of the combination it stands for, both over e.
    The step reduces that top row alone, drops it and scales rem and acc by
    e, then accumulates -top*tail into rem and -top*c into acc, both shifted
    k - deg rows.  acc may be None when no combination is tracked.
    """
    blocks = [rem] if acc is None else [rem, acc]
    limit, steps, lowest = den << _NORMALIZE_BITS, [], min(pivots, default=len(rem))
    while len(rem) > lowest:
        top = reduce_mod_phi(order, rem[-1])
        if not any(top):
            rem.pop()
            continue
        step = pivots.get(len(rem) - 1)
        if step is None:
            break
        deg, e, tail, c = step
        rem.pop()
        steps.append((len(rem) - deg, top, den))
        if e != 1:
            for rows in blocks:
                rows[:] = [[e * n for n in row] for row in rows]
            den *= e
        neg = [(len(rem) - deg, [(p, -x) for p, x in enumerate(top) if x])]
        _accumulate(rem, neg, tail, 1)
        if acc is not None:
            _accumulate(acc, neg, c, 1)
        if den > limit:
            den = _normalize(order, den, blocks)
            limit = den << _NORMALIZE_BITS
    return den, steps


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

    def _division(self, g: "UPoly") -> tuple["UPoly", list]:
        """The remainder of self by g and the steps of the division loop
        against the monic form of g."""
        if not g.rows:
            raise ZeroDivisionError("polynomial division by zero")
        monic = g.monic_pair()[0]
        db = len(monic.rows) - 1
        pivot = (db, monic.den, monic.sparse()[:-1], None)
        pad = [0] * (len(monic.rows[0]) - 1)
        rem = [list(row) + pad for row in self.rows]
        pivots = dict.fromkeys(range(db, len(rem)), pivot)
        den, steps = _eliminate(self.order, rem, self.den, pivots, None)
        return _reduced(self.order, rem, den), steps

    def remainder(self, g: "UPoly") -> "UPoly":
        """self mod g, without building the quotient."""
        return self._division(g)[0]

    def divmod(self, g: "UPoly") -> tuple["UPoly", "UPoly"]:
        """(q, r) with self = q*g + r and deg r < deg g.

        Runs the division loop `_eliminate` against the monic form of g and
        reads the quotient off its steps; a monic g needs no inverse.
        """
        r, steps = self._division(g)
        if not steps:
            return UPoly(self.order, 1, ()), r
        den = math.lcm(*(d for _, _, d in steps))
        zero = [0] * len(steps[0][1])
        rows = [zero] * (steps[0][0] + 1)  # the first step has the largest shift
        for shift, top, d in steps:
            rows[shift] = [x * (den // d) for x in top]
        q = _make(self.order, rows, den)
        inv = g.monic_pair()[1]
        return (q if inv is None else q.scale(inv)), r
