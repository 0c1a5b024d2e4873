"""Multivariate Laurent polynomials over Q(zeta_N) and ideal generator lists.

A polynomial keeps, per exponent vector, the integer numerators of its
coefficient on 1, z, ..., z^(phi(N)-1), over one positive denominator, with a
graded-lexicographic canonical order; the Smith layer's `upoly.UPoly` keeps
the same rows per power of t, and `smith` converts between the two.  Every
product, a*b as well as the signed sum of a minor's cofactor products, is one
fused integer kernel, `sum_of_products`.  Valuation along
binomial prime divisors, read off the one-variable fibres, is the workhorse
for everything downstream; no Groebner machinery anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import (
    CycloElem,
    Frozen,
    TorsionAngle,
    _canonical,
    _phi_tail,
    _spread,
    inverse_row,
    lift_nums,
    reduce_mod_phi,
    root_multiplicity,
)
from .torus import PrimeTorusDivisor


class Ring(namedtuple("Ring", "nvars laurent cyclotomic_order")):
    """Descriptor of the ambient ring: variable count, Laurent flag, Q(zeta_N);
    a validated tuple, hashed, compared and ordered as one."""

    __slots__ = ()

    def __new__(cls, nvars: int, laurent: bool, cyclotomic_order: int = 1):
        if nvars < 1:
            raise ValueError("ring needs at least one variable")
        if cyclotomic_order < 1:
            raise ValueError("cyclotomic order must be positive")
        return tuple.__new__(cls, (nvars, laurent, cyclotomic_order))

    def with_order(self, order: int) -> "Ring":
        return Ring(self.nvars, self.laurent, math.lcm(self.cyclotomic_order, order))


def term_key(exps: tuple[int, ...]) -> tuple:
    """Graded-lexicographic key: total degree first, then lex on exponents."""
    return (sum(exps), exps)


def _reduced_pairs(row: Sequence[int], den: int) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each reduced rational coefficient of row/den."""
    gs = [math.gcd(n, den) for n in row]
    return tuple((n // g, den // g) for n, g in zip(row, gs))


def _from_rows(nvars: int, order: int, rows: dict, den: int) -> "LaurentPoly":
    """rows/den made canonical (rows hold no zero row, den > 0); no gcd pass when den is 1."""
    if den != 1:
        g = math.gcd(den, *itertools.chain.from_iterable(rows.values()))
        if g != 1:
            den //= g
            rows = {e: tuple(n // g for n in row) for e, row in rows.items()}
    return LaurentPoly(nvars, order, den, rows)


class LaurentPoly(Frozen):
    """Sparse polynomial with exponents in Z^nvars and Q(zeta_order) coefficients.

    Stored as rows = {exponents: phi(order) integer numerators} over one
    positive den, kept canonical (no zero row, gcd(den, every numerator) ==
    1), so zero is {} over 1 and equal polynomials of one order have equal
    den and rows.  `terms` gives the same coefficients as field elements.
    """

    __slots__ = ("nvars", "order", "den", "rows", "_fibres")

    def __init__(self, nvars: int, order: int, den: int, rows: dict):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_fibres", None)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def make(
        nvars: int, order: int, terms: Mapping[tuple[int, ...], CycloElem]
    ) -> "LaurentPoly":
        """sum c t^e over the (e, c) terms, in Q(zeta_M) for M the lcm of order
        and the coefficient orders."""
        top = math.lcm(order, *(c.order for c in terms.values()))
        den = math.lcm(*(c.den for c in terms.values()))
        rows = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise ValueError("exponent width does not match nvars")
            if not c.is_zero():
                rows[tuple(int(x) for x in e)] = tuple(n * (den // c.den) for n in c.lift(top).nums)
        return _from_rows(nvars, top, rows, den)

    @staticmethod
    def zero(nvars: int, order: int = 1) -> "LaurentPoly":
        return LaurentPoly(nvars, order, 1, {})

    @staticmethod
    def constant(nvars: int, value: CycloElem) -> "LaurentPoly":
        return LaurentPoly.make(nvars, value.order, {(0,) * nvars: value})

    @staticmethod
    def one(nvars: int, order: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_rational(nvars, 1, order)

    @staticmethod
    def from_rational(nvars: int, q, order: int = 1) -> "LaurentPoly":
        """The constant q, its one row written directly."""
        q = Fraction(q)
        if not q:
            return LaurentPoly.zero(nvars, order)
        row = (q.numerator,) + (0,) * (_phi_tail(order)[0] - 1)
        return LaurentPoly(nvars, order, q.denominator, {(0,) * nvars: row})

    @staticmethod
    def variable(nvars: int, index: int, power: int = 1, order: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[index] = power
        return LaurentPoly.one(nvars, order).shift(e)

    @staticmethod
    def binomial_divisor(
        nvars: int, divisor: PrimeTorusDivisor, order: int = 1
    ) -> "LaurentPoly":
        """The defining equation t^u - xi of a prime torus divisor."""
        if divisor.nvars != nvars:
            raise ValueError("divisor lives in a different torus")
        top = math.lcm(order, divisor.xi.den)
        root = CycloElem.from_angle(top, divisor.xi)
        return LaurentPoly.make(
            nvars,
            top,
            {tuple(divisor.u): CycloElem.one(top), (0,) * nvars: -root},
        )

    # -- basics -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], CycloElem]:
        """{exponents: coefficient}, each a canonical field element, built on each read."""
        order, den = self.order, self.den
        return {e: _canonical(order, row, den) for e, row in self.rows.items()}

    def is_zero(self) -> bool:
        return not self.rows

    def lift(self, order: int) -> "LaurentPoly":
        if order == self.order:
            return self
        rows = {e: lift_nums(row, self.order, order) for e, row in self.rows.items()}
        return LaurentPoly(self.nvars, order, self.den, rows)

    def _pair(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")
        top = math.lcm(self.order, other.order)
        return self.lift(top), other.lift(top)

    def _combine(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other over the common denominator, normalized once."""
        a, b = self._pair(other)
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        rows = {e: tuple(fa * x for x in row) for e, row in a.rows.items()}
        for e, row in b.rows.items():
            rows[e] = tuple(x + fb * y for x, y in zip(rows.get(e, (0,) * len(row)), row))
        rows = {e: row for e, row in rows.items() if any(row)}
        return _from_rows(a.nvars, a.order, rows, a.den // g * b.den)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._combine(other, -1)

    def __neg__(self) -> "LaurentPoly":
        rows = {e: tuple(-n for n in row) for e, row in self.rows.items()}
        return LaurentPoly(self.nvars, self.order, self.den, rows)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return sum_of_products(self.nvars, self.order, ((1, self, other),))

    def scale(self, c: CycloElem) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly.zero(self.nvars, self.order)
        constant = LaurentPoly.constant(self.nvars, c)
        return sum_of_products(self.nvars, self.order, ((1, self, constant),))

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined")
        result = LaurentPoly.one(self.nvars, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        a, b = self._pair(other)
        return a.den == b.den and a.rows == b.rows

    __hash__ = None

    def sort_key(self) -> tuple:
        """Descending graded-lex (exponents, order, reduced (num, den) pairs) per term."""
        order, den = self.order, self.den
        items = sorted(self.rows.items(), key=lambda kv: term_key(kv[0]), reverse=True)
        return tuple((e, order, _reduced_pairs(row, den)) for e, row in items)

    # -- structure --------------------------------------------------------

    def leading(self) -> tuple[tuple[int, ...], CycloElem]:
        if not self.rows:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.rows, key=term_key)
        return e, _canonical(self.order, self.rows[e], self.den)

    def min_exponents(self) -> tuple[int, ...]:
        if not self.rows:
            raise ValueError("zero polynomial has no support")
        mins = [min(e[i] for e in self.rows) for i in range(self.nvars)]
        return tuple(mins)

    def shift(self, offset: Sequence[int]) -> "LaurentPoly":
        rows = {tuple(map(operator.add, e, offset)): row for e, row in self.rows.items()}
        return LaurentPoly(self.nvars, self.order, self.den, rows)

    def clear_units(self) -> "LaurentPoly":
        """Divide out the monomial content so every variable hits exponent 0."""
        if self.is_zero():
            return self
        mins = self.min_exponents()
        if all(m == 0 for m in mins):
            return self
        return self.shift(tuple(-m for m in mins))

    def monic(self) -> "LaurentPoly":
        """Scale so the graded-lex leading coefficient is 1: one product with
        the constant of the inverse of the leading row."""
        if self.is_zero():
            return self
        top = self.rows[max(self.rows, key=term_key)]
        if top[0] == self.den and not any(top[1:]):
            return self
        nums, den = inverse_row(self.order, top, self.den)
        inv = LaurentPoly(self.nvars, self.order, den, {(0,) * self.nvars: nums})
        return sum_of_products(self.nvars, self.order, ((1, self, inv),))

    def normalized(self, laurent: bool) -> "LaurentPoly":
        """Canonical generator form: unit content removed, leading coeff 1."""
        if self.is_zero():
            return self
        p = self.clear_units() if laurent else self
        return p.monic()

    def is_one(self) -> bool:
        if len(self.rows) != 1 or self.den != 1:
            return False
        (e, row), = self.rows.items()
        return not any(e) and row[0] == 1 and not any(row[1:])

    def substitute_powers(self, b: Sequence[int]) -> "LaurentPoly":
        """Apply t_i -> t^{b_i}, landing in the one-variable ring."""
        if len(b) != self.nvars:
            raise ValueError("substitution vector has wrong length")
        out: dict[tuple[int, ...], tuple[int, ...]] = {}
        for e, row in self.rows.items():
            key = (sum(map(operator.mul, e, b)),)
            old = out.get(key)
            out[key] = row if old is None else tuple(map(operator.add, old, row))
        return _from_rows(1, self.order, {k: row for k, row in out.items() if any(row)}, self.den)

    def evaluate(self, point: Sequence[TorsionAngle], order: int) -> CycloElem:
        """Exact value at a torsion point of the torus, inside Q(zeta_order)."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        for a in point:
            if order % a.den != 0:
                raise ValueError("field order does not contain the point")
        if self.rows and order % self.order:
            raise ValueError("can only lift along divisibility of orders")
        powers = [(order // a.den) * a.num for a in point]
        # one integer spread of every row over the powers of zeta, one reduction
        terms = [(row, sum(map(operator.mul, e, powers))) for e, row in self.rows.items()]
        return _canonical(order, reduce_mod_phi(order, _spread(order, self.order, terms)), self.den)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self, laurent=True)})"


def sum_of_products(
    nvars: int, order: int, signed_pairs: Iterable[tuple[int, LaurentPoly, LaurentPoly]]
) -> LaurentPoly:
    """The sum of s*a*b over the (s, a, b) triples, s = +-1, in Q(zeta_M)
    for M the lcm of order and the operand orders.

    Every integer convolution in the exponents and in z accumulates
    unreduced over one common denominator; each exponent is then reduced
    modulo Phi_M, unless its convolution stops below z^phi(M) (always so
    when phi(M) = 1), and the sum is normalized with one gcd.
    """
    top = order
    triples = []
    for t in signed_pairs:
        _, a, b = t
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("polynomials live in different rings")
        top = math.lcm(top, a.order, b.order)
        if a.rows and b.rows:
            triples.append(t)
    triples = [(s, a.lift(top), b.lift(top)) for s, a, b in triples]
    den = math.lcm(*[a.den * b.den for _, a, b in triples])
    d = _phi_tail(top)[0]
    acc: dict[tuple[int, ...], list[int]] = {}
    for s, a, b in triples:
        f = s * (den // (a.den * b.den))
        rb = [(eb, [(q, y) for q, y in enumerate(row) if y]) for eb, row in b.rows.items()]
        for ea, row in a.rows.items():
            xs = [(p, f * x) for p, x in enumerate(row) if x]
            for eb, ys in rb:
                e = tuple(map(operator.add, ea, eb))
                conv = acc.get(e)
                if conv is None:
                    conv = acc[e] = [0] * (2 * d - 1)
                for q, y in ys:
                    for p, x in xs:
                        conv[p + q] += x * y
    rows = {}
    for e, conv in acc.items():
        nums = reduce_mod_phi(top, conv) if any(conv[d:]) else conv[:d]
        if any(nums):
            rows[e] = tuple(nums)
    return _from_rows(nvars, top, rows, den)


# ---------------------------------------------------------------------------
# Valuations along binomial prime divisors


def fibres(f: LaurentPoly, u: tuple[int, ...]) -> list[dict[int, tuple[int, ...]]]:
    """The one-variable parts of f along the primitive direction u, fewest terms first.

    Two exponents share a fibre exactly when they differ by an integer
    multiple of u (a rational multiple p/q in lowest terms has q dividing
    every u_i, so q = 1).  A fibre is the rows of f whose exponents share a
    base point e - lambda(e) u, keyed by lambda(e) = e_k // u_k for the first
    k with u_k != 0.  t^u - xi divides f in the Laurent ring exactly when xi
    is a root of every fibre.  The split is remembered on f per direction, so
    callers must not modify the returned fibres.
    """
    memo = f._fibres
    if memo is None:
        memo = {}
        object.__setattr__(f, "_fibres", memo)
    split = memo.get(u)
    if split is None:
        split = memo[u] = _split_fibres(f, u)
    return split


def _split_fibres(f: LaurentPoly, u: tuple[int, ...]) -> list[dict[int, tuple[int, ...]]]:
    """Group the rows of f by base point; floor division keeps negative exponents
    on their own fibre."""
    if math.gcd(*u) != 1:
        raise ValueError("divisor support must be primitive")
    k = next(i for i, x in enumerate(u) if x)
    groups: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for e, nums in f.rows.items():
        step = e[k] // u[k]
        base = tuple([x - step * y for x, y in zip(e, u)])
        groups.setdefault(base, {})[step] = nums
    return sorted(groups.values(), key=len)


def valuation_along(f: LaurentPoly, divisor: PrimeTorusDivisor, cap: int | None = None) -> int:
    """Largest m with (t^u - xi)^m dividing f in the Laurent ring; with a cap,
    min(m, cap), and no multiplicity >= cap is tested.

    The minimum, over the fibres of f along u, of the root multiplicity of
    xi; each fibre is tested only up to the least multiplicity so far, and
    the first fibre without the root ends the search.  Agrees with repeated
    exact division, which the tests use as the oracle.
    """
    if f.is_zero():
        raise ValueError("infinite valuation: zero polynomial")
    if f.nvars != divisor.nvars:
        raise ValueError("divisor lives in a different torus")
    if len(f.rows) == 1:
        return 0  # a monomial is a unit of the Laurent ring, and xi != 0
    best = cap
    for rows in fibres(f, divisor.u):
        best = root_multiplicity(f.order, rows, divisor.xi, best)
        if best == 0:
            return 0
    return best


def least_valuation(gens: Iterable[LaurentPoly], divisor: PrimeTorusDivisor):
    """min of valuation_along over the nonzero gens (inf for none), zero gens
    skipped, each capped at the least so far."""
    best = math.inf
    for g in gens:
        if g.rows:
            best = valuation_along(g, divisor, cap=None if best == math.inf else best)
            if best == 0:
                break
    return best


class IdealGens(Frozen):
    """A canonical finite generator list for an ideal of the (Laurent) ring.

    Zero generators are dropped, each generator is unit-normalized (monomial
    content removed in the Laurent case, leading coefficient 1), and the list
    is deduplicated and sorted.  (0) is the empty list and (1) is [1].
    Generators are deliberately not reduced against each other.  The ideal
    of the m x m minors of a matrix (`minors`, a pair (engine, m) whose
    engine yields them with `engine.minors(m)` and values them with
    `engine.valuation(m, divisor)`, built only when some minor is nonzero;
    see `complexes.MinorEngine`) or a sum of products of ideals
    (`sum_of_products`, held as its pairs of factors) is formed into that
    list through `make` when `gens` is first read, and only then.  `ring`
    is fixed at construction: the base field raised to every order of a nonzero
    generator, which unit normalization keeps.  `valuations` holds
    ideal_valuation per divisor, filled on demand.
    """

    __slots__ = ("ring", "parts", "minors", "valuations", "_gens")

    def __init__(self, ring: Ring, parts: tuple = (), minors: tuple = ()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "parts", parts)  # pairs of IdealGens
        object.__setattr__(self, "minors", minors)
        object.__setattr__(self, "valuations", {})
        object.__setattr__(self, "_gens", None)  # the generator list, once formed

    def __repr__(self) -> str:
        fields = f"ring={self.ring!r}, parts={self.parts!r}, minors={self.minors!r}"
        return f"IdealGens({fields})"

    @staticmethod
    def make(ring: Ring, gens: Iterable[LaurentPoly]) -> "IdealGens":
        order = ring.cyclotomic_order
        normalized = []
        for g in gens:
            if g.nvars != ring.nvars:
                raise ValueError("generator has wrong number of variables")
            if g.is_zero():
                continue
            n = g.normalized(ring.laurent)
            normalized.append(n)
            order = math.lcm(order, n.order)
        normalized = [g.lift(order) for g in normalized]
        # each generator keyed once; equal keys sort next to each other
        unique, last = [], None
        for key, g in sorted(((g.sort_key(), g) for g in normalized), key=lambda kg: kg[0]):
            if key != last:
                unique.append(g)
                last = key
        return IdealGens._formed_as(ring.with_order(order), tuple(unique))

    @staticmethod
    def _formed_as(ring: Ring, gens: tuple[LaurentPoly, ...]) -> "IdealGens":
        """The ideal of a list already in canonical form, held as `gens`."""
        ideal = IdealGens(ring)
        object.__setattr__(ideal, "_gens", gens)
        return ideal

    @staticmethod
    def sum_of_products(ring: Ring, pairs: Iterable[tuple]) -> "IdealGens":
        """The sum of the ideals I*J over the pairs (I, J), multiplied out when
        read; a pair with a zero factor adds no product, so no order either, and
        with no other pair the sum is (0)."""
        pairs = tuple(pairs)
        live = [x for p in pairs if not (p[0].is_zero() or p[1].is_zero()) for x in p]
        if not live:
            return IdealGens.zero_ideal(ring)
        return IdealGens(ring.with_order(math.lcm(*(x.ring.cyclotomic_order for x in live))), pairs)

    @staticmethod
    def zero_ideal(ring: Ring) -> "IdealGens":
        return IdealGens._formed_as(ring, ())

    @staticmethod
    def unit_ideal(ring: Ring) -> "IdealGens":
        return IdealGens._formed_as(ring, (LaurentPoly.one(ring.nvars, ring.cyclotomic_order),))

    @property
    def gens(self) -> tuple[LaurentPoly, ...]:
        if self._gens is None:
            minors = self.minors[0].minors(self.minors[1]) if self.minors else ()
            products = (f * g for a, b in self.parts for f in a.gens for g in b.gens)
            formed = IdealGens.make(self.ring, itertools.chain(minors, products))
            object.__setattr__(self, "_gens", formed._gens)
        return self._gens

    def is_zero(self) -> bool:
        """Whether this is (0), decided without forming: a minor ideal holds a
        nonzero minor, and a sum of products a pair of nonzero factors (the
        ring is a domain)."""
        return not (self.parts or self.minors or self.gens)

    def contains_one(self) -> bool:
        return any(g.is_one() for g in self.gens)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealGens):
            return NotImplemented
        if self.ring.nvars != other.ring.nvars or self.ring.laurent != other.ring.laurent:
            return False
        if len(self.gens) != len(other.gens):
            return False
        return all(a == b for a, b in zip(self.gens, other.gens))

    __hash__ = None


def ideal_valuation(ideal: IdealGens, divisor: PrimeTorusDivisor):
    """min of valuation_along over the generators; infinity exactly for (0).

    Valuing forms no ideal.  A minor ideal is valued by its engine
    (`complexes.MinorEngine.valuation`), which expands only the minors it
    lists or its local elimination borders.  Valuation adds over products
    and takes the minimum over sums, so a sum of products is the min over
    the pairs of v(I) + v(J).  Formed generators are valued by
    `least_valuation`.  Each ideal remembers its valuations.
    """
    # only a divisor of the ideal's torus is ever remembered
    best = ideal.valuations.get(divisor)
    if best is not None:
        return best
    if divisor.nvars != ideal.ring.nvars:
        raise ValueError("divisor lives in a different torus")
    if ideal.minors:
        best = ideal.minors[0].valuation(ideal.minors[1], divisor)
    elif ideal.parts:
        best = math.inf
        for a, b in ideal.parts:
            best = min(best, ideal_valuation(a, divisor) + ideal_valuation(b, divisor))
            if best == 0:
                break
    else:
        best = least_valuation(ideal.gens, divisor)
    ideal.valuations[divisor] = best
    return best


# ---------------------------------------------------------------------------
# Text grammar: sums of terms, e(a/b) constants, s/t variable spellings

# Each term opens with a run of signs, which only the first may leave empty.
# A factor is an ASCII decimal fraction, e(a/b) or a variable with an optional
# power, followed by the "*" that continues its term; an empty denominator,
# index or power matches too, so that the scan can say which integer is missing.
_SIGNS = re.compile(r"[+-]*")
_FACTOR = re.compile(
    r"(?:([0-9]+)(?:/([0-9]*))?"
    r"|e\(([+-]?[0-9]+)/([+-]?[0-9]+)\)"
    r"|([st])([0-9]*)(?:\^(-?[0-9]*))?)(\*?)"
)


class ParseError(ValueError):
    """Malformed polynomial text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _factor_error(s: str, pos: int) -> ParseError:
    """The error for text that starts no factor at pos."""
    if s.startswith("e(", pos):
        close = s.find(")", pos)
        if close < 0:
            return ParseError("unterminated unit-root constant", pos)
        if "/" not in s[pos + 2 : close]:
            return ParseError("unit root must be written e(a/b)", pos)
        return ParseError("bad unit-root constant", pos)
    if s.startswith("(", pos):
        return ParseError("parenthesized subexpressions are not allowed", pos)
    return ParseError("expected a factor", pos)


def parse_poly(text: str, ring: Ring) -> LaurentPoly:
    """Parse text in the given ring, lifting the field to cover all unit roots.

    One scan, factor by factor, reads each term into an integer coefficient
    num/den, a root of unity e(a/b) and an exponent vector.  The field order
    rises to the reduced denominator of every term's root, zero terms
    included.  Each monomial then becomes one integer row over the powers of
    zeta_N, over the lcm of all the denominators, reduced modulo Phi_N once,
    and the rows are normalized with one gcd.  Error positions count
    characters of the text without its whitespace.
    """
    s = "".join(text.split())
    n = len(s)
    if not n:
        raise ParseError("empty polynomial", 0)
    nvars, laurent = ring.nvars, ring.laurent
    orders = {ring.cyclotomic_order}
    terms = []
    pos = 0
    while pos < n:
        start, pos = pos, _SIGNS.match(s, pos).end()
        if pos == n:
            raise ParseError("dangling sign", pos)
        num, den, a, b = -1 if s.count("-", start, pos) % 2 else 1, 1, 0, 1
        exps = [0] * nvars
        star = "*"
        while star:
            m = _FACTOR.match(s, pos)
            if m is None:
                raise _factor_error(s, pos)
            digits, over, ea, eb, letter, index, power, star = m.groups()
            if digits is not None:
                num *= int(digits)
                if over is not None:
                    if not over:
                        raise ParseError("expected an integer", m.start(2))
                    if not (d := int(over)):
                        raise ParseError("denominator must be positive", m.start(2))
                    den *= d
            elif ea is not None:
                eb = int(eb)
                if eb <= 0:
                    raise ParseError("unit-root denominator must be positive", pos)
                a, b = a * eb + int(ea) * b, b * eb
            else:
                if not index:
                    raise ParseError("expected an integer", pos + 1)
                i = int(index)
                if not 1 <= i <= nvars:
                    raise ParseError(f"variable index out of range 1..{nvars}", m.end(6))
                if power is None:
                    k = 1
                elif power in ("", "-"):
                    raise ParseError("expected an integer", m.end(7))
                elif (k := int(power)) < 0 and (not laurent or letter == "s"):
                    raise ParseError(
                        "negative exponents need the Laurent flag and a t-variable", m.end(7)
                    )
                exps[i - 1] += k
            pos = m.end()
        if pos < n and _FACTOR.match(s, pos):
            raise ParseError("missing '*' between factors", pos)
        if a:
            g = math.gcd(a, b)
            b //= g
            a = a // g % b
            orders.add(b)
        terms.append((tuple(exps), num, den, a, b))
    order = math.lcm(*orders)
    monomials: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    dens = set()
    for exps, num, den, a, b in terms:
        if num:
            dens.add(den)
            monomials.setdefault(exps, []).append((num, den, order // b * a))
    lcd = math.lcm(*dens)
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    for exps, parts in monomials.items():
        if len(parts) == 1:
            (num, den, k), = parts
            row = [0] * k + [num * (lcd // den)]
        else:
            row = [0] * (max([k for _, _, k in parts]) + 1)
            for num, den, k in parts:
                row[k] += num * (lcd // den)
        nums = reduce_mod_phi(order, row)
        if any(nums):
            rows[exps] = tuple(nums)
    return _from_rows(nvars, order, rows, lcd)


def format_poly(p: LaurentPoly, laurent: bool = True) -> str:
    """Canonical string in the text grammar; round-trips through parse_poly.

    Each nonzero numerator n of z^j in a row is one term
    n/p.den * e(j/p.order) times the monomial, both fractions reduced.
    """
    if p.is_zero():
        return "0"
    letter = "t" if laurent else "s"
    den, order = p.den, p.order
    pieces: list[str] = []
    for e in sorted(p.rows, key=term_key, reverse=True):
        monomial = [f"{letter}{i + 1}" + (f"^{x}" if x != 1 else "") for i, x in enumerate(e) if x]
        for j, n in enumerate(p.rows[e]):
            if not n:
                continue
            g = math.gcd(n, den)
            q, d = abs(n) // g, den // g
            factors = [] if q == d == 1 else [f"{q}/{d}" if d != 1 else str(q)]
            if j:
                g = math.gcd(j, order)
                factors.append(f"e({j // g}/{order // g})")
            pieces.append(("-" if n < 0 else "+") + ("*".join(factors + monomial) or "1"))
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text
