"""Bounded complexes of finite-rank free modules and their minor ideals.

A complex stores its differentials as matrices acting on column vectors (rows
indexed by the target basis); composition-zero is verified at construction.
Determinantal ideals of the differentials yield the truncated-Euler minors
ideals and the block-sum jump ideals; base change substitutes monomial powers.
Minors are expanded along their first row with one memo per differential,
each minor one `poly.sum_of_products` over its cofactor pairs, and every
minor without a nonzero pair is the engine's one shared zero.  A minor ideal
is valued along a prime divisor without expanding every minor: a tropical
lower bound from the entry valuations, and one minor that reaches it, prove
the value (`MinorEngine`); its generators are enumerated only when read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .poly import IdealGens, LaurentPoly, Ring, sum_of_products, valuation_along
from .torus import PrimeTorusDivisor

Matrix = tuple[tuple[LaurentPoly, ...], ...]

MAX_MINOR_DIM = 12


def matrix_make(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def matrix_shape(mat: Matrix, ncols: int = 0) -> tuple[int, int]:
    """Rows and columns; a matrix without rows has the given column count."""
    return (len(mat), len(mat[0]) if mat else ncols)


def empty_matrix(nrows: int, ncols: int, nvars: int, order: int) -> Matrix:
    zero = LaurentPoly.zero(nvars, order)
    return tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows))


class MinorEngine:
    """Shared-memo determinant expansion over all minors of one matrix, and
    the valuations of its minor ideals along prime divisors.

    Each minor of size >= 2 is one `sum_of_products` over its nonzero
    cofactor pairs along the first row; a minor with no such pair is the
    engine's one shared zero.

    `valuation(m, D)` is v_D(I_m), the least valuation along D of an m x m
    minor, from a tropical lower bound and a certificate.  With the entry
    weights w_ij = v_D(m_ij) (None for a zero entry), every Leibniz term of
    det M[R, C] has valuation at least the weight of its matching, and the
    valuation of a sum is at least the least valuation of its terms, so
    every m x m minor has valuation at least T_m, the least weight of an
    m-matching.  Every (k+1)-minor is a combination of k-minors (Laplace), so
    v_D(I_m) is also at most U, the least valuation known for a larger size.
    The steps, in order:
    1. U = 0, or (unless the weights are known and T_m > 0) the first nonzero
       minor in combination order has valuation 0: the answer is 0;
    2. the minor on the rows and columns of a least m-matching has
       valuation T_m: that minor certifies v_D(I_m) = T_m;
    3. otherwise every m x m minor is ranked by its own tropical weight and
       valued in that order, each capped at the least value found (at first
       U), until the next weight reaches that value: complete, whatever
       cancels.
    The weights and the least k-matchings for every k are computed once per
    divisor and shared by every size.  Steps 1 and 2 are capped valuations
    (caps 1 and T_m + 1), so they test no multiplicity that cannot change
    the answer.
    """

    def __init__(self, mat: Matrix, nvars: int, order: int):
        self.mat = mat
        self.nvars = nvars
        self.order = order
        self.zero = LaurentPoly.zero(nvars, order)
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}
        # size -> the first nonzero minor of that size, or None
        self._first: dict[int, LaurentPoly | None] = {}
        # divisor -> (entry weights, least k-matchings)
        self._tropical: dict = {}
        # divisor -> {size: valuation of the minor ideal}
        self._values: dict = {}

    def det(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> LaurentPoly:
        if len(rows) != len(cols):
            raise ValueError("minor needs equal row and column counts")
        if not rows:
            return LaurentPoly.one(self.nvars, self.order)
        key = (rows, cols)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if len(rows) == 1:
            result = self.mat[rows[0]][cols[0]]
        else:
            top = rows[0]
            rest = rows[1:]
            pairs = []
            for j, col in enumerate(cols):
                entry = self.mat[top][col]
                if entry.is_zero():
                    continue
                sub = self.det(rest, cols[:j] + cols[j + 1 :])
                if not sub.is_zero():
                    pairs.append((-1 if j % 2 else 1, entry, sub))
            result = sum_of_products(self.nvars, self.order, pairs) if pairs else self.zero
        self._memo[key] = result
        return result

    def minors(self, m: int) -> Iterator[LaurentPoly]:
        """Every m x m minor, rows then columns in ascending combination order."""
        nrows, ncols = matrix_shape(self.mat)
        for rows in itertools.combinations(range(nrows), m):
            for cols in itertools.combinations(range(ncols), m):
                yield self.det(rows, cols)

    def first_nonzero(self, m: int) -> LaurentPoly | None:
        """The first nonzero m x m minor in combination order, None when all are zero."""
        if m not in self._first:
            self._first[m] = next((f for f in self.minors(m) if f.rows), None)
        return self._first[m]

    def valuation(self, m: int, divisor: PrimeTorusDivisor) -> int:
        """v(I_m) along divisor, for an m with a nonzero m x m minor (see the class)."""
        known = self._values.get(divisor)
        if known is None:
            known = self._values[divisor] = {}
        value = known.get(m)
        if value is None:
            # I_(k+1) lies in I_k, so v(I_m) is at most v(I_k) for every larger k
            upper = min([v for k, v in known.items() if k > m], default=math.inf)
            value = known[m] = self._valuation(m, divisor, upper)
        return value

    def _valuation(self, m: int, divisor: PrimeTorusDivisor, upper: int | float) -> int:
        if upper == 0:
            return 0
        tropical = self._tropical.get(divisor)
        # once T_m > 0 is known, no m x m minor can have valuation 0
        if tropical is None or tropical[1][m][0] == 0:
            if valuation_along(self.first_nonzero(m), divisor, cap=1) == 0:
                return 0
        if tropical is None:
            weights = [[valuation_along(e, divisor) if e.rows else None for e in row] for row in self.mat]
            tropical = self._tropical[divisor] = (weights, _least_matchings(weights))
        weights, matchings = tropical
        bound, rows, cols = matchings[m]
        minor = self.det(rows, cols)
        if minor.rows and valuation_along(minor, divisor, cap=bound + 1) == bound:
            return bound
        return self._ranked_valuation(m, weights, divisor, upper)

    def _ranked_valuation(
        self, m: int, weights: list, divisor: PrimeTorusDivisor, upper: int | float
    ) -> int:
        """The least valuation over the m x m minors, at most upper, visited in
        increasing tropical weight (integer min-plus Laplace expansion) until
        the next weight reaches the least value found."""
        memo: dict = {}

        def tropical(rows: tuple[int, ...], cols: tuple[int, ...]) -> int | None:
            if len(rows) == 1:
                return weights[rows[0]][cols[0]]
            key = (rows, cols)
            if key not in memo:
                best = None
                for j, col in enumerate(cols):
                    w = weights[rows[0]][col]
                    if w is not None:
                        sub = tropical(rows[1:], cols[:j] + cols[j + 1 :])
                        if sub is not None and (best is None or w + sub < best):
                            best = w + sub
                memo[key] = best
            return memo[key]

        nrows, ncols = matrix_shape(self.mat)
        ranked = sorted(
            (weight, rows, cols)
            for rows in itertools.combinations(range(nrows), m)
            for cols in itertools.combinations(range(ncols), m)
            if (weight := tropical(rows, cols)) is not None
        )
        best = upper
        for weight, rows, cols in ranked:
            if weight >= best:
                break
            minor = self.det(rows, cols)
            if minor.rows:
                best = valuation_along(minor, divisor, cap=None if best == math.inf else best)
        return best


def _least_matchings(weights: list[list[int | None]]) -> list[tuple[int, tuple, tuple]]:
    """(T_k, rows, columns) of a least-weight k-matching, for k = 0 up to the
    largest k with a matching; weights[i][j] is None where there is no edge.

    Successive shortest augmenting paths (Kuhn's Hungarian method as a
    min-cost flow): augmenting a least-weight k-matching along a least-weight
    path of the residual graph, found here by label correction, leaves a
    least-weight (k+1)-matching.  Integers only.
    """
    nrows = len(weights)
    ncols = len(weights[0]) if weights else 0
    col_of: list[int | None] = [None] * nrows
    row_of: list[int | None] = [None] * ncols
    edges = [[(j, w) for j, w in enumerate(row) if w is not None] for row in weights]
    out = [(0, (), ())]
    while True:
        dist = {i: 0 for i in range(nrows) if col_of[i] is None}
        reach: dict[int, tuple[int, int]] = {}  # column: (distance, row it is reached from)
        frontier = list(dist)
        while frontier:
            changed = []
            for i in frontier:
                for j, w in edges[i]:
                    d = dist[i] + w
                    if j != col_of[i] and (j not in reach or d < reach[j][0]):
                        reach[j] = (d, i)
                        back = row_of[j]
                        if back is not None:
                            # a matched row is reached only back along its own edge
                            dist[back] = d - weights[back][j]
                            changed.append(back)
            frontier = changed
        free = [(d, j) for j, (d, _) in reach.items() if row_of[j] is None]
        if not free:
            return out
        d, j = min(free)
        while j is not None:
            i = reach[j][1]
            previous = col_of[i]
            col_of[i] = j
            row_of[j] = i
            j = previous
        rows = tuple(i for i in range(nrows) if col_of[i] is not None)
        out.append((out[-1][0] + d, rows, tuple(sorted(col_of[i] for i in rows))))


def _decided_by_size(nrows: int, ncols: int, m: int, unit: IdealGens) -> IdealGens | None:
    """`unit` or the zero ideal of its ring where the size conventions decide it, else None."""
    if m <= 0:
        return unit
    if m > min(nrows, ncols):
        return IdealGens.zero_ideal(unit.ring)
    return None


def _minors_from_engine(engine: MinorEngine, m: int, unit: IdealGens) -> IdealGens:
    """The ideal of the m x m minors, (0) when every minor is zero; raises
    ValueError for a matrix beyond the enumeration limit.

    The entries (m = 1), or fewer minors than the matrix has entries, take
    fewer valuations one by one than the engine's entry weights, so they are
    listed at once as an unformed ideal.  Any other size is left to the engine:
    the ideal holds (engine, m), is zero exactly when the engine finds no
    nonzero minor, and has the ring of its minors, raised to the engine's
    order, which is the order of every minor of size >= 2.
    """
    nrows, ncols = matrix_shape(engine.mat)
    decided = _decided_by_size(nrows, ncols, m, unit)
    if decided is not None:
        return decided
    if nrows > MAX_MINOR_DIM or ncols > MAX_MINOR_DIM:
        raise ValueError(
            f"matrix exceeds the {MAX_MINOR_DIM}x{MAX_MINOR_DIM} minor enumeration limit"
        )
    if m == 1 or math.comb(nrows, m) * math.comb(ncols, m) < nrows * ncols:
        return IdealGens.unformed(unit.ring, engine.minors(m))
    if engine.first_nonzero(m) is None:
        return IdealGens.zero_ideal(unit.ring)
    return IdealGens(unit.ring.with_order(engine.order), minors=(engine, m))


def _engine_for(mat: Matrix, ring: Ring) -> MinorEngine:
    order = math.lcm(ring.cyclotomic_order, *(entry.order for row in mat for entry in row))
    return MinorEngine(mat, ring.nvars, order)


def minors_ideal(mat: Matrix, m: int, ring: Ring) -> IdealGens:
    """Ideal generated by all m x m minors, with the usual size conventions.

    m <= 0 gives the unit ideal and m beyond the matrix dimensions gives the
    zero ideal.  Its generators, read, enumerate every row/column subset in
    ascending combination order; its valuations need not.
    """
    return _minors_from_engine(_engine_for(mat, ring), m, IdealGens.unit_ideal(ring))


@dataclass(frozen=True)
class FreeComplex:
    """A bounded complex of free modules given by composition-zero matrices."""

    ring: Ring
    imin: int
    imax: int
    ranks: Mapping[int, int]
    diffs: Mapping[int, Matrix]
    # one unit ideal, minor engines, minors ideals and jump ideals, filled on demand
    minor_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def make(
        ring: Ring,
        degrees: tuple[int, int],
        ranks: Mapping[int, int],
        diffs: Mapping[int, Sequence[Sequence[LaurentPoly]]],
    ) -> "FreeComplex":
        imin, imax = degrees
        if imin > imax:
            raise ValueError("empty degree range")
        rank_map = {}
        for i in range(imin, imax + 1):
            rank = int(ranks.get(i, 0))
            if rank < 0:
                raise ValueError("ranks must be natural numbers")
            rank_map[i] = rank
        order = math.lcm(
            ring.cyclotomic_order,
            *(entry.order for mat in diffs.values() for row in mat for entry in row),
        )
        ring = ring.with_order(order)
        diff_map: dict[int, Matrix] = {}
        for i in range(imin, imax):
            target, source = rank_map[i + 1], rank_map[i]
            given = diffs.get(i)
            if given is None:
                mat = empty_matrix(target, source, ring.nvars, order)
            else:
                mat = matrix_make(
                    [[entry.lift(order) for entry in row] for row in given]
                )
                # the first row whose width is not the source rank names the shape
                shape = (len(mat), next((len(row) for row in mat if len(row) != source), source))
                if shape != (target, source):
                    raise ValueError(
                        f"differential at degree {i} has shape {shape}, expected {(target, source)}"
                    )
            diff_map[i] = mat
        for i in sorted(diffs):
            if not imin <= i < imax:
                if any(not e.is_zero() for row in diffs[i] for e in row):
                    raise ValueError(f"differential at degree {i} is out of range")
        complex_ = FreeComplex(ring, imin, imax, rank_map, diff_map)
        complex_._check_composition()
        return complex_

    def _check_composition(self):
        """Each entry of d^(i+1) d^i is one `sum_of_products` over its nonzero pairs."""
        nvars, order = self.ring.nvars, self.ring.cyclotomic_order
        for i in range(self.imin, self.imax - 1):
            right = self.differential(i)
            for row in self.differential(i + 1):
                for j in range(self.rank(i)):
                    pairs = [(1, a, b[j]) for a, b in zip(row, right) if a.rows and b[j].rows]
                    if pairs and not sum_of_products(nvars, order, pairs).is_zero():
                        raise ValueError(
                            f"differentials at degrees {i} and {i + 1} do not compose to zero"
                        )

    def rank(self, i: int) -> int:
        return self.ranks.get(i, 0)

    def degrees(self) -> range:
        return range(self.imin, self.imax + 1)

    def differential(self, i: int) -> Matrix:
        """The matrix of d^i : F^i -> F^{i+1} (empty outside the stored range)."""
        mat = self.diffs.get(i)
        if mat is not None:
            return mat
        return empty_matrix(
            self.rank(i + 1), self.rank(i), self.ring.nvars, self.ring.cyclotomic_order
        )


def euler_truncation(complex_: FreeComplex, i: int) -> int:
    """Alternating sum of ranks in degrees >= i."""
    total = 0
    for l in range(max(i, complex_.imin), complex_.imax + 1):
        sign = -1 if (l - i) % 2 else 1
        total += sign * complex_.rank(l)
    return total


def _unit_ideal(complex_: FreeComplex) -> IdealGens:
    """The one unit ideal of the complex's ring that every size <= 0 returns."""
    if ("unit",) not in complex_.minor_cache:
        complex_.minor_cache[("unit",)] = IdealGens.unit_ideal(complex_.ring)
    return complex_.minor_cache[("unit",)]


def differential_minors(complex_: FreeComplex, i: int, size: int) -> IdealGens:
    """Minors ideal of d^i, sharing the expansion memo, the entry weights and
    the known valuations across all sizes."""
    cache = complex_.minor_cache
    key = ("ideal", i, size)
    found = cache.get(key)
    if found is not None:
        return found
    engine = cache.get(("engine", i))
    if engine is None:
        engine = _engine_for(complex_.differential(i), complex_.ring)
        cache[("engine", i)] = engine
    ideal = _minors_from_engine(engine, size, _unit_ideal(complex_))
    cache[key] = ideal
    return ideal


def cdf_ideal(complex_: FreeComplex, i: int, k: int) -> IdealGens:
    """Minors ideal of d^{i-1} at size r_i - k (truncated-Euler indexing)."""
    size = euler_truncation(complex_, i) - k
    return differential_minors(complex_, i - 1, size)


def jump_ideal(complex_: FreeComplex, i: int, k: int) -> IdealGens:
    """Minors ideal of the block sum diag(d^{i-1}, d^i) at size rank_i - k + 1.

    A minor of a block-diagonal matrix vanishes unless its rows and columns
    split alike between the blocks, and is then the product of the two block
    minors, so I_m(diag(A, B)) is the sum over a + b = m of I_a(A) I_b(B), kept
    as those pairs until read.  Only pairs whose factors can both be nonzero
    by size are kept, and with none the ideal is (0).  The size conventions
    apply to the block sum, the enumeration limit to each differential whose
    minors are enumerated.
    """
    cache = complex_.minor_cache
    key = ("jump", i, k)
    found = cache.get(key)
    if found is not None:
        return found
    ra, ca = matrix_shape(complex_.differential(i - 1), complex_.rank(i - 1))
    rb, cb = matrix_shape(complex_.differential(i), complex_.rank(i))
    size = complex_.rank(i) - k + 1
    ideal = _decided_by_size(ra + rb, ca + cb, size, _unit_ideal(complex_))
    if ideal is None:
        pairs = [
            (differential_minors(complex_, i - 1, a), differential_minors(complex_, i, size - a))
            for a in range(max(0, size - min(rb, cb)), min(size, ra, ca) + 1)
        ]
        ring = complex_.ring
        ideal = IdealGens.sum_of_products(ring, pairs) if pairs else IdealGens.zero_ideal(ring)
    cache[key] = ideal
    return ideal


def base_change(complex_: FreeComplex, b: Sequence[int]) -> FreeComplex:
    """Substitute t_i -> t^{b_i}, landing over the one-variable Laurent ring."""
    if len(b) != complex_.ring.nvars:
        raise ValueError("substitution vector has wrong length")
    if any(x <= 0 for x in b):
        raise ValueError("degenerate specialization: all exponents must be positive")
    new_ring = Ring(1, complex_.ring.laurent, complex_.ring.cyclotomic_order)
    new_diffs = {
        i: [[entry.substitute_powers(b) for entry in row] for row in mat]
        for i, mat in complex_.diffs.items()
    }
    return FreeComplex.make(
        new_ring, (complex_.imin, complex_.imax), dict(complex_.ranks), new_diffs
    )


def direct_sum(a: FreeComplex, b: FreeComplex) -> FreeComplex:
    """Degreewise direct sum, differentials in block-diagonal form."""
    if a.ring.nvars != b.ring.nvars or a.ring.laurent != b.ring.laurent:
        raise ValueError("complexes live over different rings")
    order = math.lcm(a.ring.cyclotomic_order, b.ring.cyclotomic_order)
    ring = a.ring.with_order(order)
    imin, imax = min(a.imin, b.imin), max(a.imax, b.imax)
    ranks = {i: a.rank(i) + b.rank(i) for i in range(imin, imax + 1)}
    diffs = {}
    for i in range(imin, imax):
        mat_a = (
            a.differential(i)
            if a.imin <= i < a.imax
            else empty_matrix(a.rank(i + 1), a.rank(i), ring.nvars, order)
        )
        mat_b = (
            b.differential(i)
            if b.imin <= i < b.imax
            else empty_matrix(b.rank(i + 1), b.rank(i), ring.nvars, order)
        )
        glued = []
        zero_left = [LaurentPoly.zero(ring.nvars, order)] * a.rank(i)
        zero_right = [LaurentPoly.zero(ring.nvars, order)] * b.rank(i)
        for row in mat_a:
            glued.append(list(row) + zero_right)
        for row in mat_b:
            glued.append(zero_left + list(row))
        diffs[i] = glued
    return FreeComplex.make(ring, (imin, imax), ranks, diffs)


def insert_trivial_summand(complex_: FreeComplex, position: int) -> FreeComplex:
    """Add a summand [R -> R] with identity differential at (position-1, position)."""
    ring = complex_.ring
    one = LaurentPoly.one(ring.nvars, ring.cyclotomic_order)
    piece = FreeComplex.make(
        ring,
        (position - 1, position),
        {position - 1: 1, position: 1},
        {position - 1: [[one]]},
    )
    return direct_sum(complex_, piece)
