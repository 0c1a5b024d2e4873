"""Multivariate Laurent polynomials over Q(zeta_N) and ideal generator lists.

Sparse term maps from integer exponent vectors to cyclotomic coefficients,
with a graded-lexicographic canonical order.  Every product, a*b as well as
the signed sum of a minor's cofactor products, is one fused integer kernel,
`sum_of_products`.  Valuation along binomial prime divisors, read off the
one-variable fibres, is the workhorse for everything downstream; no Groebner
machinery anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .arith import (
    CycloElem,
    TorsionAngle,
    _canonical,
    _phi_tail,
    _spread,
    reduce_mod_phi,
    root_multiplicity,
)
from .torus import PrimeTorusDivisor
from .upoly import UPoly


@dataclass(frozen=True)
class Ring:
    """Descriptor of the ambient ring: variable count, Laurent flag, Q(zeta_N)."""

    nvars: int
    laurent: bool
    cyclotomic_order: int = 1

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("ring needs at least one variable")
        if self.cyclotomic_order < 1:
            raise ValueError("cyclotomic order must be positive")

    def with_order(self, order: int) -> "Ring":
        return Ring(self.nvars, self.laurent, math.lcm(self.cyclotomic_order, order))


def term_key(exps: tuple[int, ...]) -> tuple:
    """Graded-lexicographic key: total degree first, then lex on exponents."""
    return (sum(exps), exps)


def _reduced_pairs(c: CycloElem) -> tuple[tuple[int, int], ...]:
    """(numerator, denominator) of each reduced rational coefficient of c."""
    gs = [math.gcd(n, c.den) for n in c.nums]
    return tuple((n // g, c.den // g) for n, g in zip(c.nums, gs))


class LaurentPoly:
    """Sparse polynomial with exponents in Z^nvars and Q(zeta_order) coefficients."""

    __slots__ = ("nvars", "order", "terms", "_key", "_fibres")

    def __init__(self, nvars: int, order: int, terms: dict[tuple[int, ...], CycloElem]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_fibres", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly values are immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def make(
        nvars: int, order: int, terms: Mapping[tuple[int, ...], CycloElem]
    ) -> "LaurentPoly":
        top = order
        for c in terms.values():
            top = math.lcm(top, c.order)
        cleaned: dict[tuple[int, ...], CycloElem] = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise ValueError("exponent width does not match nvars")
            c = c.lift(top)
            if not c.is_zero():
                cleaned[tuple(int(x) for x in e)] = c
        return LaurentPoly(nvars, top, cleaned)

    @staticmethod
    def zero(nvars: int, order: int = 1) -> "LaurentPoly":
        return LaurentPoly(nvars, order, {})

    @staticmethod
    def constant(nvars: int, value: CycloElem) -> "LaurentPoly":
        return LaurentPoly.make(nvars, value.order, {(0,) * nvars: value})

    @staticmethod
    def one(nvars: int, order: int = 1) -> "LaurentPoly":
        return LaurentPoly.constant(nvars, CycloElem.one(order))

    @staticmethod
    def from_rational(nvars: int, q, order: int = 1) -> "LaurentPoly":
        return LaurentPoly.constant(nvars, CycloElem.from_rational(order, q))

    @staticmethod
    def variable(nvars: int, index: int, power: int = 1, order: int = 1) -> "LaurentPoly":
        e = [0] * nvars
        e[index] = power
        return LaurentPoly.make(nvars, order, {tuple(e): CycloElem.one(order)})

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

    def is_zero(self) -> bool:
        return not self.terms

    def lift(self, order: int) -> "LaurentPoly":
        if order == self.order:
            return self
        return LaurentPoly.make(self.nvars, order, self.terms)

    def _pair(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different rings")
        top = math.lcm(self.order, other.order)
        return self.lift(top), other.lift(top)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self._pair(other)
        out = dict(a.terms)
        for e, c in b.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return LaurentPoly(a.nvars, a.order, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, self.order, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        return sum_of_products(self.nvars, self.order, ((1, self, other),))

    def scale(self, c: CycloElem) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly.zero(self.nvars, self.order)
        top = math.lcm(self.order, c.order)
        c = c.lift(top)
        return LaurentPoly(
            self.nvars, top, {e: v.lift(top) * c for e, v in self.terms.items()}
        )

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
        if set(a.terms) != set(b.terms):
            return False
        return all(a.terms[e] == b.terms[e] for e in a.terms)

    __hash__ = None

    def sort_key(self) -> tuple:
        cached = self._key
        if cached is None:
            items = sorted(
                self.terms.items(), key=lambda kv: term_key(kv[0]), reverse=True
            )
            cached = tuple((e, c.order, _reduced_pairs(c)) for e, c in items)
            object.__setattr__(self, "_key", cached)
        return cached

    # -- structure --------------------------------------------------------

    def leading(self) -> tuple[tuple[int, ...], CycloElem]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=term_key)
        return e, self.terms[e]

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no support")
        mins = [min(e[i] for e in self.terms) for i in range(self.nvars)]
        return tuple(mins)

    def shift(self, offset: Sequence[int]) -> "LaurentPoly":
        return LaurentPoly(
            self.nvars,
            self.order,
            {tuple(x + o for x, o in zip(e, offset)): c for e, c in self.terms.items()},
        )

    def clear_units(self) -> "LaurentPoly":
        """Divide out the monomial content so every variable hits exponent 0."""
        if self.is_zero():
            return self
        mins = self.min_exponents()
        if all(m == 0 for m in mins):
            return self
        return self.shift(tuple(-m for m in mins))

    def monic(self) -> "LaurentPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        _, lead = self.leading()
        return self if lead.is_one() else self.scale(lead.inverse())

    def normalized(self, laurent: bool) -> "LaurentPoly":
        """Canonical generator form: unit content removed, leading coeff 1."""
        if self.is_zero():
            return self
        p = self.clear_units() if laurent else self
        return p.monic()

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return all(x == 0 for x in e) and c.is_one()

    def substitute_powers(self, b: Sequence[int]) -> "LaurentPoly":
        """Apply t_i -> t^{b_i}, landing in the one-variable ring."""
        if len(b) != self.nvars:
            raise ValueError("substitution vector has wrong length")
        out: dict[tuple[int, ...], CycloElem] = {}
        for e, c in self.terms.items():
            k = sum(x * bi for x, bi in zip(e, b))
            key = (k,)
            if key in out:
                s = out[key] + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return LaurentPoly(1, self.order, out)

    def evaluate(self, point: Sequence[TorsionAngle], order: int) -> CycloElem:
        """Exact value at a torsion point of the torus, inside Q(zeta_order)."""
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        for a in point:
            if order % a.den != 0:
                raise ValueError("field order does not contain the point")
        powers = [(order // a.den) * a.num for a in point]
        # one integer spread of every term over the powers of zeta, one reduction
        dense, den = _spread(
            order, [(c, sum(x * p for x, p in zip(e, powers))) for e, c in self.terms.items()]
        )
        return _canonical(order, reduce_mod_phi(order, dense), den)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self, laurent=True)})"


def _numerator_rows(p: LaurentPoly) -> tuple[int, list]:
    """One denominator for p and, per term, its exponents and the nonzero
    (power of z, integer numerator) pairs over that denominator."""
    den = math.lcm(*(c.den for c in p.terms.values()))
    return den, [
        (e, [(i, n * (den // c.den)) for i, n in enumerate(c.nums) if n])
        for e, c in p.terms.items()
    ]


def sum_of_products(
    nvars: int, order: int, signed_pairs: Iterable[tuple[int, LaurentPoly, LaurentPoly]]
) -> LaurentPoly:
    """The sum of s*a*b over the (s, a, b) triples, s = +-1, in Q(zeta_M)
    for M the lcm of order and the operand orders.

    Every integer convolution in the exponents and in z accumulates
    unreduced over one common denominator; each exponent is then reduced
    modulo Phi_M, unless its convolution stops below z^phi(M) (always so
    when phi(M) = 1), and made canonical once.
    """
    top = order
    triples = []
    for t in signed_pairs:
        _, a, b = t
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("polynomials live in different rings")
        top = math.lcm(top, a.order, b.order)
        if a.terms and b.terms:
            triples.append(t)
    rows = [(s, _numerator_rows(a.lift(top)), _numerator_rows(b.lift(top))) for s, a, b in triples]
    den = math.lcm(*[da * db for _, (da, _), (db, _) in rows])
    d = _phi_tail(top)[0]
    acc: dict[tuple[int, ...], list[int]] = {}
    for s, (da, ra), (db, rb) in rows:
        f = s * (den // (da * db))
        for ea, xs in ra:
            xs = [(p, f * x) for p, x in xs]
            for eb, ys in rb:
                e = tuple(map(operator.add, ea, eb))
                conv = acc.get(e)
                if conv is None:
                    conv = acc[e] = [0] * (2 * d - 1)
                for q, y in ys:
                    for p, x in xs:
                        conv[p + q] += x * y
    out = {}
    for e, conv in acc.items():
        nums = reduce_mod_phi(top, conv) if any(conv[d:]) else conv[:d]
        if any(nums):
            out[e] = _canonical(top, nums, den)
    return LaurentPoly(nvars, top, out)


# ---------------------------------------------------------------------------
# Valuations along binomial prime divisors


@lru_cache(maxsize=None)
def _lattice_transform(u: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Rows of a unimodular integer matrix sending the primitive vector u to e_1.

    Used to change monomial coordinates so the binomial t^u - xi becomes
    linear in the first new variable.
    """
    r = len(u)
    rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    vec = list(u)
    for i in range(1, r):
        a, b = vec[0], vec[i]
        if b == 0:
            continue
        g, x, y = _ext_gcd(a, b)
        row0 = [x * p + y * q for p, q in zip(rows[0], rows[i])]
        rowi = [(-b // g) * p + (a // g) * q for p, q in zip(rows[0], rows[i])]
        rows[0], rows[i] = row0, rowi
        vec[0], vec[i] = g, 0
    if vec[0] != 1:
        raise ValueError("divisor support must be primitive")
    return tuple(tuple(row) for row in rows)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def fibres(f: LaurentPoly, u: tuple[int, ...]) -> list[dict[int, CycloElem]]:
    """The one-variable parts of f along the primitive direction u, fewest terms first.

    A unimodular monomial change of coordinates sends u to the first new
    variable x; the terms sharing the remaining exponents form one fibre,
    keyed by the exponent of x.  t^u - xi divides f in the Laurent ring
    exactly when xi is a root of every fibre.  The split is remembered on f
    per direction, so callers must not modify the returned fibres.
    """
    memo = f._fibres
    if memo is None:
        memo = {}
        object.__setattr__(f, "_fibres", memo)
    split = memo.get(u)
    if split is None:
        split = memo[u] = _split_fibres(f, u)
    return split


def _split_fibres(f: LaurentPoly, u: tuple[int, ...]) -> list[dict[int, CycloElem]]:
    first, *rest = _lattice_transform(u)
    groups: dict[tuple[int, ...], dict[int, CycloElem]] = {}
    for e, c in f.terms.items():
        key = tuple([sum(map(operator.mul, row, e)) for row in rest])
        groups.setdefault(key, {})[sum(map(operator.mul, first, e))] = c
    return sorted(groups.values(), key=len)


def valuation_along(f: LaurentPoly, divisor: PrimeTorusDivisor) -> int:
    """Largest m with (t^u - xi)^m dividing f in the Laurent ring.

    The minimum, over the fibres of f along u, of the root multiplicity of
    xi; each fibre is tested only up to the least multiplicity so far, and
    the first fibre without the root ends the search.  Agrees with repeated
    exact division, which the tests use as the oracle.
    """
    if f.is_zero():
        raise ValueError("infinite valuation: zero polynomial")
    if f.nvars != divisor.nvars:
        raise ValueError("divisor lives in a different torus")
    if len(f.terms) == 1:
        return 0  # a monomial is a unit of the Laurent ring, and xi != 0
    best = None
    for coeffs in fibres(f, divisor.u):
        best = root_multiplicity(coeffs, divisor.xi, best)
        if best == 0:
            return 0
    return best


@dataclass(frozen=True, eq=False)
class IdealGens:
    """A canonical finite generator list for an ideal of the (Laurent) ring.

    Zero generators are dropped, each generator is unit-normalized (monomial
    content removed in the Laurent case, leading coefficient 1), and the list
    is deduplicated and sorted.  (0) is the empty list and (1) is [1].
    Generators are deliberately not reduced against each other.  An ideal
    of raw generators (`unformed`, such as all minors of one size) or a sum
    of products of ideals (`sum_of_products`, held as its pairs of factors)
    is formed into that list when `ring` or `gens` is first read.
    """

    _ring: Ring
    _gens: tuple[LaurentPoly, ...] | None
    parts: tuple[tuple["IdealGens", "IdealGens"], ...] = ()
    raw: tuple[LaurentPoly, ...] = ()
    # ideal_valuation per divisor, filled on demand
    valuations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        seen = set()
        unique = []
        for g in sorted(normalized, key=lambda p: p.sort_key()):
            key = g.sort_key()
            if key not in seen:
                seen.add(key)
                unique.append(g)
        return IdealGens(ring.with_order(order), tuple(unique))

    @staticmethod
    def unformed(ring: Ring, gens: Iterable[LaurentPoly]) -> "IdealGens":
        """The ideal of the given generators, put through `make` when read."""
        return IdealGens(ring, None, raw=tuple(gens))

    @staticmethod
    def sum_of_products(ring: Ring, pairs: Iterable[tuple]) -> "IdealGens":
        """The sum of the ideals I*J over the pairs (I, J), multiplied out when read."""
        return IdealGens(ring, None, tuple(pairs))

    @staticmethod
    def zero_ideal(ring: Ring) -> "IdealGens":
        return IdealGens(ring, ())

    @staticmethod
    def unit_ideal(ring: Ring) -> "IdealGens":
        return IdealGens(ring, (LaurentPoly.one(ring.nvars, ring.cyclotomic_order),))

    def _formed(self) -> "IdealGens":
        if self._gens is None:
            products = (f * g for a, b in self.parts for f in a.gens for g in b.gens)
            formed = IdealGens.make(self._ring, itertools.chain(self.raw, products))
            object.__setattr__(self, "_ring", formed.ring)
            object.__setattr__(self, "_gens", formed.gens)
        return self

    @property
    def ring(self) -> Ring:
        return self._formed()._ring

    @property
    def gens(self) -> tuple[LaurentPoly, ...]:
        return self._formed()._gens

    def is_zero(self) -> bool:
        return not self.gens

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

    Neither kind of unformed ideal is formed to be valued.  Unit factors and
    repeats do not change a valuation along a prime divisor, so raw
    generators are valued as they are, zeros skipped.  Valuation adds over
    products and takes the minimum over sums, so a sum of products is the min
    over the pairs of v(I) + v(J).  Each ideal remembers its valuations.
    """
    if divisor.nvars != ideal._ring.nvars:
        raise ValueError("divisor lives in a different torus")
    best = ideal.valuations.get(divisor)
    if best is not None:
        return best
    if ideal.parts:
        values = (ideal_valuation(a, divisor) + ideal_valuation(b, divisor) for a, b in ideal.parts)
    else:
        gens = ideal.raw if ideal._gens is None else ideal._gens
        values = (valuation_along(g, divisor) for g in gens if not g.is_zero())
    best = math.inf
    for v in values:
        best = min(best, v)
        if best == 0:
            break
    ideal.valuations[divisor] = best
    return best


# ---------------------------------------------------------------------------
# Univariate helpers on one-variable polynomials (exponents >= 0)


def u_dense(f: LaurentPoly, order: int) -> UPoly:
    """A one-variable polynomial without negative exponents as a dense one over Q(zeta_order)."""
    return UPoly.from_terms(order, ((k, c) for (k,), c in f.terms.items()))


def u_laurent(f: UPoly) -> LaurentPoly:
    return LaurentPoly(1, f.order, {(k,): c for k, c in f.terms()})


# ---------------------------------------------------------------------------
# Text grammar: sums of terms, e(a/b) constants, s/t variable spellings

# Each term opens with a run of signs.  A factor is an ASCII decimal
# fraction, e(a/b) or a variable with an optional power, followed by the "*"
# that continues its term; an empty denominator, index or power matches too,
# so that the scan can say which integer is missing.
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
    zeta_N, over the lcm of its denominators, reduced modulo Phi_N once.
    Error positions count characters of the text without its whitespace.
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
        if a:
            g = math.gcd(a, b)
            b //= g
            a = a // g % b
            orders.add(b)
        terms.append((tuple(exps), num, den, a, b))
    order = math.lcm(*orders)
    monomials: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for exps, num, den, a, b in terms:
        if num:
            monomials.setdefault(exps, []).append((num, den, order // b * a))
    out: dict[tuple[int, ...], CycloElem] = {}
    for exps, parts in monomials.items():
        if len(parts) == 1:
            (num, lcd, k), = parts
            row = [0] * k + [num]
        else:
            lcd = math.lcm(*[den for _, den, _ in parts])
            row = [0] * (max([k for _, _, k in parts]) + 1)
            for num, den, k in parts:
                row[k] += num * (lcd // den)
        nums = reduce_mod_phi(order, row)
        if any(nums):
            out[exps] = _canonical(order, nums, lcd)
    return LaurentPoly(nvars, order, out)


def format_poly(p: LaurentPoly, laurent: bool = True) -> str:
    """Canonical string in the text grammar; round-trips through parse_poly.

    Each nonzero numerator n of z^j in a coefficient c is one term
    n/c.den * e(j/c.order) times the monomial, both fractions reduced.
    """
    if p.is_zero():
        return "0"
    letter = "t" if laurent else "s"
    pieces: list[str] = []
    for e in sorted(p.terms, key=term_key, reverse=True):
        c = p.terms[e]
        monomial = [f"{letter}{i + 1}" + (f"^{x}" if x != 1 else "") for i, x in enumerate(e) if x]
        for j, n in enumerate(c.nums):
            if not n:
                continue
            g = math.gcd(n, c.den)
            q, d = abs(n) // g, c.den // g
            factors = [] if q == d == 1 else [f"{q}/{d}" if d != 1 else str(q)]
            if j:
                g = math.gcd(j, c.order)
                factors.append(f"e({j // g}/{c.order // g})")
            pieces.append(("-" if n < 0 else "+") + ("*".join(factors + monomial) or "1"))
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text
