"""Zero-locus calculus for Bernstein-Sato-type ideals and polar-locus models.

Loci are stored intensionally: a multiset of affine hyperplanes with natural
normals plus a list of higher-codimension linear pieces, each given by its
defining hyperplanes.  All operations are set-theoretic on this data; there
is no polynomial ideal representation.  They work on the integer pairs
(c, c0) of the members and build a Fraction only for a result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .arith import Frozen
from .torus import (
    AffineHyperplane,
    PrimeTorusDivisor,
    exp_hyperplane,
    is_oblique,
    rref,
    slope,
)

Piece = tuple[AffineHyperplane, ...]


def _piece_make(hyperplanes: Sequence[AffineHyperplane], r: int) -> Piece:
    if len(hyperplanes) < 2:
        raise ValueError("a linear piece needs at least two defining hyperplanes")
    for h in hyperplanes:
        if h.nvars != r:
            raise ValueError("piece member has wrong dimension")
    pivots, _ = rref([h.c for h in hyperplanes], r)
    if len(pivots) != len(hyperplanes):
        raise ValueError("piece normals must be linearly independent")
    return tuple(sorted(hyperplanes))


def _check_member(h: AffineHyperplane, mult: int, r: int) -> None:
    if h.nvars != r:
        raise ValueError("hyperplane has wrong dimension")
    if mult < 1:
        raise ValueError("hyperplane multiplicity must be >= 1")


class HyperplaneLocus(Frozen):
    """Finite union of hyperplanes (with multiplicities) and linear pieces.

    Equality, hashing and repr are those of the fields (r, hyperplanes, pieces).
    """

    __slots__ = ("r", "hyperplanes", "pieces", "_canonicals")

    def __init__(self, r: int, hyperplanes: tuple, pieces: tuple[Piece, ...] = ()):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "hyperplanes", hyperplanes)  # (hyperplane, multiplicity) pairs
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_canonicals", None)  # member_canonicals, once read

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.hyperplanes, self.pieces) == (other.r, other.hyperplanes, other.pieces)

    def __hash__(self) -> int:
        return hash((self.r, self.hyperplanes, self.pieces))

    def __repr__(self) -> str:
        fields = f"r={self.r!r}, hyperplanes={self.hyperplanes!r}, pieces={self.pieces!r}"
        return f"HyperplaneLocus({fields})"

    @staticmethod
    def make(
        r: int,
        hyperplanes: Iterable[tuple[AffineHyperplane, int]] | Iterable[AffineHyperplane],
        pieces: Iterable[Sequence[AffineHyperplane]] = (),
    ) -> "HyperplaneLocus":
        if r < 1:
            raise ValueError("r must be a positive integer")
        merged: dict[AffineHyperplane, int] = {}
        for item in hyperplanes:
            h, mult = (item, 1) if isinstance(item, AffineHyperplane) else item
            _check_member(h, mult, r)
            merged[h] = merged.get(h, 0) + mult
        return HyperplaneLocus.from_checked(r, merged, {_piece_make(p, r) for p in pieces})

    @staticmethod
    def from_checked(
        r: int, orders: Mapping[AffineHyperplane, int], pieces: Iterable[Piece] = ()
    ) -> "HyperplaneLocus":
        """The locus of members known to be valid (hyperplanes of dimension
        r >= 1 with multiplicities >= 1, distinct pieces as `_piece_make`
        returns them), only sorted: nothing is checked."""
        return HyperplaneLocus(r, tuple(sorted(orders.items())), tuple(sorted(pieces)))

    def members(self) -> list[AffineHyperplane]:
        return [h for h, _ in self.hyperplanes]

    @property
    def member_canonicals(self) -> frozenset[tuple]:
        """Scale-invariant forms of the members, built once per locus in one pass."""
        if self._canonicals is None:
            canonicals = frozenset(h.set_canonical() for h, _ in self.hyperplanes)
            object.__setattr__(self, "_canonicals", canonicals)
        return self._canonicals

    def without_multiplicities(self) -> "HyperplaneLocus":
        return HyperplaneLocus.from_checked(self.r, dict.fromkeys(self.members(), 1), self.pieces)

    def set_canonical(self) -> tuple:
        """Scale-invariant description of the underlying point set."""
        hs = sorted({h.set_canonical() for h, _ in self.hyperplanes})
        ps = sorted({tuple(sorted(h.set_canonical() for h in piece)) for piece in self.pieces})
        return (tuple(hs), tuple(ps))

    def contains_rational_point(self, point: Sequence[Fraction]) -> bool:
        """Whether some member or piece passes through the point, tested as
        c . n + c0 * den == 0 on the point's numerators n over one denominator."""
        den = lcm(*(x.denominator for x in point))
        nums = [x.numerator * (den // x.denominator) for x in point]

        def on(h: AffineHyperplane) -> bool:
            return sum(ci * n for ci, n in zip(h.c, nums)) + h.c0 * den == 0

        return any(on(h) for h, _ in self.hyperplanes) or any(
            all(on(h) for h in piece) for piece in self.pieces
        )


PolarModel = HyperplaneLocus
"""A locus whose hyperplane multiplicities are read as polar orders."""


def combine_bm(
    components: Mapping[int, HyperplaneLocus],
    m: Sequence[int],
    pi: Sequence[int] | None = None,
) -> HyperplaneLocus:
    """Union of translated single-exponent loci along a permutation ordering.

    For each j (in permutation order) with m_j > 0, the j-th component locus
    enters translated by the accumulated earlier shifts plus k e_j for
    k = 0 .. m_j - 1.  Multiplicities are dropped; any permutation yields the
    same locus.
    """
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
    new = tuple.__new__
    orders: dict[AffineHyperplane, int] = {}
    pieces: set[Piece] = set()
    accumulated = [0] * r
    for j in pi:
        mj = m[j - 1]
        if mj > 0:
            if j not in components:
                raise ValueError(f"missing component locus for coordinate {j}")
            locus = components[j]
            # c . (acc + k e_j) = c . acc + k c_j: one dot product per member,
            # then steps of c_j; the normals are unchanged, so no validation
            for (c, c0), _ in locus.hyperplanes:
                c0 += sum(map(mul, c, accumulated))
                step = c[j - 1]
                for _ in range(mj):
                    orders[new(AffineHyperplane, (c, c0))] = 1
                    c0 += step
            for piece in locus.pieces:
                starts = [(c, c0 + sum(map(mul, c, accumulated)), c[j - 1]) for c, c0 in piece]
                # shifting keeps a piece sorted: its normals are distinct
                pieces.update(
                    tuple(new(AffineHyperplane, (c, a + k * b)) for c, a, b in starts)
                    for k in range(mj)
                )
            accumulated[j - 1] += mj
    return HyperplaneLocus.from_checked(r, orders, pieces)


# ---------------------------------------------------------------------------
# Containment with rational witnesses


def _parametrize(member: Piece) -> tuple[list[int], list[list[int]], int]:
    """The member's points as (base + sum_j v_j dirs[j]) / den over its free
    coordinates v (ascending), with integer base and directions; den > 0 is
    the lcm of the pivot entries of the primitive reduced rows."""
    n = member[0].nvars
    pivots, rows = rref([(*h.c, -h.c0) for h in member], n)
    free = [i for i in range(n) if i not in pivots]
    den = lcm(*(row[col] for row, col in zip(rows, pivots)))
    base = [0] * n
    dirs = [[0] * n for _ in free]
    for row, col in zip(rows, pivots):
        scale = den // row[col]
        base[col] = row[n] * scale
        for d, f in zip(dirs, free):
            d[col] = -row[f] * scale
    for d, f in zip(dirs, free):
        d[f] = den
    return base, dirs, den


def _restrict(h: AffineHyperplane, base: list[int], dirs: list[list[int]], den: int) -> tuple:
    """den * (c.x + c0) on a parametrized member, as (a0, a_1, ..., a_k)."""
    c, c0 = h
    return (sum(map(mul, c, base)) + c0 * den, *(sum(map(mul, c, d)) for d in dirs))


def _grid_order(bound: int | None) -> Iterator[int]:
    """0, 1, -1, 2, -2, ... up to +-bound, or without end for bound None."""
    yield 0
    for v in itertools.count(1) if bound is None else range(1, bound + 1):
        yield v
        yield -v


def _blocked_value(funcs: list[tuple[int, ...]]) -> int | None:
    """The value of the next free coordinate at which the outer member with
    these restrictions contains the whole slice, if any.

    The fixed coordinates are substituted: each restriction is
    (a0, a_1, ...) with a_1 the coefficient of the next free coordinate.
    """
    value = None
    for f in funcs:
        if any(f[2:]):
            return None
        const, a = f[0], f[1]
        if not a:
            if const:
                return None
            continue
        q, rem = divmod(-const, a)
        if rem or value not in (None, q):
            return None
        value = q
    return value


def _first_free_values(
    outer: list[list[tuple[int, ...]]], k: int, bound: int | None, memo: dict | None = None
) -> list[int] | None:
    """Lexicographically first k free values in grid order of a point in no
    outer member; None if none lies within +-bound.

    An outer member that does not contain the current slice contains its
    sub-slice x_j = v for at most one v, so only those values are skipped and
    the search backtracks only where every grid value of a level is blocked.
    A sub-search depends only on the restrictions with the fixed coordinates
    substituted, so equal ones share one result through the memo.
    """
    if k == 0:
        return []
    if memo is None:
        memo = {}
    key = (k, tuple(tuple(funcs) for funcs in outer))
    if key in memo:
        return memo[key]
    blocked = {_blocked_value(funcs) for funcs in outer}
    found = None
    for v in _grid_order(bound):
        if v not in blocked:
            inner = [[(f[0] + f[1] * v, *f[2:]) for f in funcs] for funcs in outer]
            rest = _first_free_values(inner, k - 1, bound, memo)
            if rest is not None:
                found = [v] + rest
                break
    memo[key] = found
    return found


def _point_avoiding(member: Piece, outer: list[Piece]) -> list[Fraction] | None:
    """The first point of the member, in grid order over its free coordinates,
    that lies in no outer member; None if some outer member contains it.

    The grid is +-64 in each free coordinate; where it holds no such point the
    search runs on past it in the same order, so it always ends with a point.
    """
    base, dirs, den = _parametrize(member)
    restricted = []
    for other in outer:
        restricted.append([_restrict(h, base, dirs, den) for h in other])
        if not any(map(any, restricted[-1])):
            return None  # that outer member contains the whole member
    values = _first_free_values(restricted, len(dirs), 64)
    if values is None:
        values = _first_free_values(restricted, len(dirs), None)
    return [
        Fraction(b + sum(v * d[i] for v, d in zip(values, dirs)), den)
        for i, b in enumerate(base)
    ]


def containment_check(
    inner: HyperplaneLocus, outer: HyperplaneLocus
) -> tuple[bool, list[Fraction] | None]:
    """Set-theoretic containment of unions; returns a rational witness on failure.

    A hyperplane is contained exactly when an outer hyperplane has its
    canonical form, as a piece (codimension >= 2) holds no hyperplane.  Any
    other member (a hyperplane is a one-equation piece) is contained when the
    restrictions of some outer member's equations to it vanish identically.
    The witness is the first point, in grid order, of the first member not
    contained that the outer locus misses.
    """
    if inner.r != outer.r:
        raise ValueError("loci live in different dimensions")
    outer_members = [(h,) for h in outer.members()] + list(outer.pieces)
    canonicals = outer.member_canonicals
    missing = [(h,) for h, _ in inner.hyperplanes if h.set_canonical() not in canonicals]
    for member in missing + list(inner.pieces):
        witness = _point_avoiding(member, outer_members)
        if witness is not None:
            if outer.contains_rational_point(witness):
                raise ArithmeticError("containment witness lies in the outer locus")
            return False, witness
    return True, None


# ---------------------------------------------------------------------------
# Oblique parts, slopes, Exp comparisons


def oblique_part(locus: HyperplaneLocus) -> HyperplaneLocus:
    """Codimension-one components whose slopes have every coordinate nonzero."""
    return HyperplaneLocus.from_checked(
        locus.r, {h: mult for h, mult in locus.hyperplanes if is_oblique(h)}
    )


def exp_divisors(locus: HyperplaneLocus) -> set[PrimeTorusDivisor]:
    return {exp_hyperplane(h) for h, _ in locus.hyperplanes}


def exp_oblique_equal(a: HyperplaneLocus, b: HyperplaneLocus) -> bool:
    return exp_divisors(oblique_part(a)) == exp_divisors(oblique_part(b))


def slope_set(locus: HyperplaneLocus) -> set[tuple[int, ...]]:
    return {slope(h) for h, _ in locus.hyperplanes}


# ---------------------------------------------------------------------------
# Polar-locus arithmetic


def polar_candidate_filter(candidate: AffineHyperplane, zbf: HyperplaneLocus) -> dict:
    """Box position and translate test for a would-be polar hyperplane.

    m = floor(c0 / sum(c)) locates the unique half-open box (-m-1, -m]^r the
    hyperplane meets; the candidate survives if some translate by k*(1,..,1)
    with 0 <= k <= m is a member of the zero locus: the translate (c, c0 - k
    sum(c)) over its gcd, taken from gcd(c), is one of the members' canonicals.
    """
    if candidate.nvars != zbf.r:
        raise ValueError("candidate and locus live in different dimensions")
    c, c0 = candidate
    if c0 <= 0:
        raise ValueError("polar candidates need a positive constant term")
    total = sum(c)
    m = c0 // total
    g_c = gcd(*c)
    canonicals = zbf.member_canonicals
    found = None
    for k in range(m + 1):
        g = gcd(g_c, c0)
        if ((c, c0) if g == 1 else (tuple(x // g for x in c), c0 // g)) in canonicals:
            found = k
            break
        c0 -= total
    return {"m": m, "k": found}


def propagate_polar(model: PolarModel, steps: int) -> PolarModel:
    """Closure under the unit translates H -> H - e_i, orders kept as lower bounds."""
    if steps < 0:
        raise ValueError("steps must be a natural number")
    orders: dict[AffineHyperplane, int] = {h: mult for h, mult in model.hyperplanes}
    frontier = dict(orders)
    for _ in range(steps):
        new_frontier: dict[AffineHyperplane, int] = {}
        for h, order in frontier.items():
            c, c0 = h
            for ci in c:
                # the normal is unchanged, so the image needs no validation
                image = tuple.__new__(AffineHyperplane, (c, c0 + ci))
                if orders.get(image, 0) < order:
                    orders[image] = max(orders.get(image, 0), order)
                    new_frontier[image] = max(new_frontier.get(image, 0), order)
        if not new_frontier:
            break
        frontier = new_frontier
    return HyperplaneLocus.from_checked(model.r, orders, model.pieces)


def specialize_slice(model: PolarModel, b: Sequence[int]) -> list[dict]:
    """Pole data of the restriction to the line s -> (b_1 s, ..., b_r s).

    Hyperplanes sharing the intersection point with the line are grouped;
    order_sum adds their polar orders and generic marks singleton groups (the
    arrangement-collision half of genericity; the analytic zero-locus half is
    not decidable from this data and is flagged by the field name).

    A member's pole is -c0 / (c . b), where c . b > 0.  Over L, the lcm of the
    dot products, one per distinct normal (translates share theirs), it is the
    integer key -c0 * (L / (c . b)); groups are formed and sorted by key, and
    each builds one Fraction(key, L).
    """
    if len(b) != model.r:
        raise ValueError("direction vector has wrong length")
    if any(x <= 0 for x in b):
        raise ValueError("direction entries must be positive")
    dots = {c: sum(map(mul, c, b)) for c in {c for (c, _), _ in model.hyperplanes}}
    common = lcm(*dots.values())
    scale = {c: common // dot for c, dot in dots.items()}
    groups: dict[int, list[int]] = {}
    for (c, c0), mult in model.hyperplanes:
        entry = groups.setdefault(-c0 * scale[c], [0, 0])
        entry[0] += mult
        entry[1] += 1
    return [
        {"pole": Fraction(key, common), "order_sum": order_sum, "generic": count == 1}
        for key, (order_sum, count) in sorted(groups.items())
    ]


def ord_sum_check(
    divisor: PrimeTorusDivisor, zbf: HyperplaneLocus, target: int
) -> bool:
    """Whether some diagonal-translation class mapping to the divisor has
    total multiplicity at least the target.

    Hyperplanes H and H' are in the same class when H' = H - k*(1,...,1) for
    some integer k; class sums aggregate the locus multiplicities.
    """
    sums: dict[tuple, int] = {}
    for h, mult in zbf.hyperplanes:
        if exp_hyperplane(h) != divisor:
            continue
        c_hat, c0_hat = h.set_canonical()
        key = (c_hat, c0_hat % sum(c_hat))
        sums[key] = sums.get(key, 0) + mult
    if not sums:
        return target <= 0
    return max(sums.values()) >= target
