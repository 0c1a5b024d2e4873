"""Bounded complexes of finite-rank free modules and their minor ideals.

A complex stores its differentials as matrices acting on column vectors (rows
indexed by the target basis); composition-zero is verified at construction.
Determinantal ideals of the differentials yield the truncated-Euler minors
ideals and the block-sum jump ideals; base change substitutes monomial powers.
Minors are expanded along their first row with one memo per differential,
each minor one `poly.sum_of_products` over its cofactor pairs, and every
minor without a nonzero pair is the engine's one shared zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .poly import IdealGens, LaurentPoly, Ring, sum_of_products

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


def matrix_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero) -> tuple:
    """a*b for matrices over any ring whose elements have is_zero, + and *;
    zero is that ring's zero, the value of an empty sum."""
    rb, cb = matrix_shape(b)
    ra, ca = matrix_shape(a, rb)
    if ca != rb:
        raise ValueError("matrix shapes do not compose")
    out = []
    for i in range(ra):
        row = []
        for j in range(cb):
            acc = zero
            for k in range(ca):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def matrix_is_zero(mat: Matrix) -> bool:
    return all(entry.is_zero() for row in mat for entry in row)


class MinorEngine:
    """Shared-memo determinant expansion over all minors of one matrix.

    Each minor of size >= 2 is one `sum_of_products` over its nonzero
    cofactor pairs along the first row; a minor with no such pair is the
    engine's one shared zero.
    """

    def __init__(self, mat: Matrix, nvars: int, order: int):
        self.mat = mat
        self.nvars = nvars
        self.order = order
        self.zero = LaurentPoly.zero(nvars, order)
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}

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


def _decided_by_size(nrows: int, ncols: int, m: int, ring: Ring) -> IdealGens | None:
    """The unit or zero ideal where the size conventions decide it, else None."""
    if m <= 0:
        return IdealGens.unit_ideal(ring)
    if m > min(nrows, ncols):
        return IdealGens.zero_ideal(ring)
    return None


def _minors_from_engine(engine: MinorEngine, m: int, ring: Ring) -> IdealGens:
    """Raises ValueError for a matrix beyond the enumeration limit."""
    nrows, ncols = matrix_shape(engine.mat)
    decided = _decided_by_size(nrows, ncols, m, ring)
    if decided is not None:
        return decided
    if nrows > MAX_MINOR_DIM or ncols > MAX_MINOR_DIM:
        raise ValueError(
            f"matrix exceeds the {MAX_MINOR_DIM}x{MAX_MINOR_DIM} minor enumeration limit"
        )
    gens = []
    for rows in itertools.combinations(range(nrows), m):
        for cols in itertools.combinations(range(ncols), m):
            gens.append(engine.det(rows, cols))
    return IdealGens.unformed(ring, gens)


def _engine_for(mat: Matrix, ring: Ring) -> MinorEngine:
    order = math.lcm(ring.cyclotomic_order, *(entry.order for row in mat for entry in row))
    return MinorEngine(mat, ring.nvars, order)


def minors_ideal(mat: Matrix, m: int, ring: Ring) -> IdealGens:
    """Ideal generated by all m x m minors, with the usual size conventions.

    m <= 0 gives the unit ideal and m beyond the matrix dimensions gives the
    zero ideal.  Enumeration is exhaustive over row/column subsets in
    ascending combination order.
    """
    return _minors_from_engine(_engine_for(mat, ring), m, ring)


@dataclass(frozen=True)
class FreeComplex:
    """A bounded complex of free modules given by composition-zero matrices."""

    ring: Ring
    imin: int
    imax: int
    ranks: Mapping[int, int]
    diffs: Mapping[int, Matrix]
    # minor engines, minors ideals and jump ideals, filled on demand
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
                if matrix_shape(mat, source) != (target, source):
                    raise ValueError(
                        f"differential at degree {i} has shape {matrix_shape(mat, source)}, "
                        f"expected {(target, source)}"
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
        for i in range(self.imin, self.imax - 1):
            prod = matrix_mul(
                self.differential(i + 1),
                self.differential(i),
                LaurentPoly.zero(self.ring.nvars, self.ring.cyclotomic_order),
            )
            if not matrix_is_zero(prod):
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


def differential_minors(complex_: FreeComplex, i: int, size: int) -> IdealGens:
    """Minors ideal of d^i, sharing the expansion memo across all sizes."""
    cache = complex_.minor_cache
    key = ("ideal", i, size)
    found = cache.get(key)
    if found is not None:
        return found
    engine = cache.get(("engine", i))
    if engine is None:
        engine = _engine_for(complex_.differential(i), complex_.ring)
        cache[("engine", i)] = engine
    ideal = _minors_from_engine(engine, size, complex_.ring)
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
    ideal = _decided_by_size(ra + rb, ca + cb, size, complex_.ring)
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
