"""Bounded complexes of finite-rank free modules and their minor ideals.

A complex stores its differentials as matrices acting on column vectors (rows
indexed by the target basis); composition-zero is verified at construction.
Determinantal ideals of the differentials yield the truncated-Euler minors
ideals and the block-sum jump ideals; base change substitutes monomial powers.
Minors are expanded along their first row with one memo per differential,
each minor one `poly.sum_of_products` over its cofactor pairs, and every
minor without a nonzero pair is the engine's one shared zero.  A minor ideal
is valued along a prime divisor without expanding every minor: one local
elimination per divisor, pivoting on the least-valued bordered minor, gives
the valuation of every size that is not listed (`MinorEngine`); its
generators are enumerated only when read.

Above the listing size, one modular rank decides every zero: the rank of the
matrix's image over F_p (`_fp_image`, once per field order) at one point,
from one modular `torus.rref` (`_unit_block`).  At a generic point it
certifies that a minor ideal is not zero; at a point of a divisor, that a
block is a unit there, which seeds the elimination, so the sizes whose
valuation is 0 expand no minor.  The points, and the values of monomials at
them, are shared by the engines of a complex.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Mapping, Sequence

from .arith import Frozen, prime_root_of_unity
from .poly import IdealGens, LaurentPoly, Ring, least_valuation, sum_of_products, valuation_along
from .torus import PrimeTorusDivisor, rref

Matrix = tuple[tuple[LaurentPoly, ...], ...]

MAX_MINOR_DIM = 12

# the generic point x_j = _GENERIC^j of `MinorEngine.rank_bound`, and y_2,
# y_3, ... of the point `_point_on` builds, are powers of this constant, which
# is below every prime of `arith.prime_root_of_unity`
_GENERIC = 314159265


def matrix_make(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def matrix_shape(mat: Matrix, ncols: int = 0) -> tuple[int, int]:
    """Rows and columns; a matrix without rows has the given column count."""
    return (len(mat), len(mat[0]) if mat else ncols)


def empty_matrix(nrows: int, ncols: int, nvars: int, order: int) -> Matrix:
    zero = LaurentPoly.zero(nvars, order)
    return tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows))


def lists_minors(nrows: int, ncols: int, m: int) -> bool:
    """Whether the m x m minors are listed rather than eliminated: the entries,
    or fewer minors than entries, take fewer valuations one by one than the
    elimination's first level, which weighs every entry.  A speed choice only."""
    return m == 1 or math.comb(nrows, m) * math.comb(ncols, m) < nrows * ncols


def _point_on(u: tuple[int, ...], eta: int, p: int) -> list[int]:
    """A point x of (F_p^*)^r with x^u = eta.  Euclid's algorithm on the entries
    of the primitive u, each step a row operation, gives a unimodular B with
    B u = e_1; then x_j = prod_i y_i^(B_ij) has x^u = prod_i y_i^((B u)_i) =
    y_1, so y_1 = eta, and y_i = _GENERIC^(i-1) for i >= 2."""
    r = len(u)
    b = [[int(i == j) for j in range(r)] for i in range(r)]  # the rows of B
    v = list(u)
    while sum(map(bool, v)) > 1:
        k = min((i for i in range(r) if v[i]), key=v.__getitem__)
        for i in range(r):
            if i != k and v[i]:
                q = v[i] // v[k]
                v[i] -= q * v[k]
                b[i] = [x - q * y for x, y in zip(b[i], b[k])]
    k = v.index(1)
    b[0], b[k] = b[k], b[0]
    y = [eta] + [pow(_GENERIC, i, p) for i in range(1, r)]
    return [math.prod(pow(y[i], b[i][j], p) for i in range(r)) % p for j in range(r)]


def _fp_image(mat: Matrix, top: int) -> tuple | None:
    """M over F_p for a field order L = top that every entry order divides,
    as `_unit_block` evaluates it: (p, [w^k for k < L], the monomials of M,
    the rows of M with each entry a list of (monomial index, coefficient)
    pairs, () for a zero entry), with (p, w) =
    `arith.prime_root_of_unity(L)` and zeta_n -> w^(L/n) for each entry
    order n, a ring homomorphism on the coefficients; None when p divides an
    entry denominator."""
    p, w = prime_root_of_unity(top)
    powers = [1] * top  # the images of zeta_top^k
    for k in range(1, top):
        powers[k] = powers[k - 1] * w % p
    monomials: dict[tuple[int, ...], int] = {}
    entries = []
    for row in mat:
        out = []
        for f in row:
            pairs = ()
            if f.rows:
                if f.den % p == 0:
                    return None
                step, inverse = top // f.order, pow(f.den, -1, p)
                pairs = [
                    (monomials.setdefault(e, len(monomials)),
                     sum([n * powers[j * step] for j, n in enumerate(nums) if n]) * inverse % p)
                    for e, nums in f.rows.items()
                ]
            out.append(pairs)
        entries.append(out)
    return p, powers, list(monomials), entries


def _unit_block(image: tuple, point: list[int], values: dict) -> tuple[list[int], list[int]]:
    """Rows R and columns C, ascending, with det M[R, C](x) != 0 modulo p, as
    many as the rank of M(x) modulo p: the pivot columns and origin rows of
    one modular `torus.rref` of M(x), with the image of M over F_p (`_fp_image`)
    and x a point of (F_p^*)^r.  Only the monomials of M are evaluated at x,
    each read from `values`, the monomial values at x that every engine of a
    complex shares, or computed and kept there.

    With x on D = {t^u = xi} (`_point_on`, with xi mapped to w^(L num/den)
    for the field order L = lcm(order, den xi)), det M[R, C] has valuation 0
    along D.  Were t^u - xi to divide det M[R, C], the quotient would be
    integral at p too (Gauss's lemma: t^u - xi has unit content), and det
    M[R, C](x) would vanish modulo p.  So the local Smith exponents s_1, ...,
    s_|R| are 0.  At any point of the torus, det M[R, C] != 0: evaluation is
    a ring homomorphism, and p divides no denominator of the image.  A
    degenerate point, where M(x) has less than the rank of M (along D), gives
    a smaller block; no value depends on the point.
    """
    p, _, monomials, entries = image
    evaluated = []
    for e in monomials:
        value = values.get(e)
        if value is None:
            value = values[e] = math.prod(map(pow, point, e, [p] * len(e))) % p
        evaluated.append(value)
    mat = [[sum([evaluated[k] * c for k, c in f]) % p if f else 0 for f in row] for row in entries]
    cols, _, rows = rref(mat, len(mat[0]), p)
    return sorted(rows), cols


class MinorEngine:
    """Shared-memo determinant expansion over all minors of one matrix, and
    the valuations of its minor ideals along prime divisors.

    Each minor of size >= 2 is one `sum_of_products` over its nonzero
    cofactor pairs along the first row; a minor with no such pair is the
    engine's one shared zero.  Per size the engine keeps the first nonzero
    minor in combination order once it is asked for (`nonzero`), and, once
    the size is valued, whether `lists_minors` lists it and, if so, its
    nonzero minors.

    `valuation(m, D)` is v_D(I_m), the least valuation along D of an m x m
    minor.  A size that `lists_minors` lists takes the least valuation of its
    nonzero minors, each capped at the least so far (`poly.least_valuation`).
    Any other size is read off one local elimination per divisor.  Along D
    the matrix has local Smith exponents s_1 <= s_2 <= ... over the discrete
    valuation ring at D, and v_D(I_m) = s_1 + ... + s_m (Newman, Integral Matrices).
    Level k of the elimination holds a pivot block M[R, C] of size k with
    valuation s_1 + ... + s_k, and values the minors that border it,
    det M[R + {i}, C + {j}]: each is det M[R, C] times an entry of the Schur
    complement (Sylvester's identity; Bareiss 1968), so the least of them is
    s_1 + ... + s_(k+1), and its row and column join the block, which is
    complete pivoting by valuation and needs no division.  Since s_(k+1) >=
    s_k, a bordered minor of valuation s_1 + ... + s_k + s_k ends the level,
    and each valuation is capped at the least one found so far.  The levels
    are computed as sizes ask for them and shared by every size, a listed one
    included once its level is reached.  The first elimination along D starts
    from the block M[R, C] of `_unit_block`, whose determinant is certified a
    unit at D by one modular rank at a point of D, on the image of the matrix
    over F_p that the engine keeps per field order L = lcm(order, den xi)
    (`_fp_image`): so s_1 = ... = s_|R| = 0, levels 1 to |R| are 0 with no
    minor expanded or valued, and level |R| + 1 borders that block as it
    would border its own.  So a size of valuation 0 expands no minor.  A
    degenerate point gives a smaller block, and the levels it leaves out are
    computed as before, so no value depends on the point.

    `rank_bound()` is the rank of the matrix at the generic point x_j =
    _GENERIC^j modulo the prime of the engine's order, a lower bound on its
    rank that `_minors_from_engine` reads to certify nonzero minor ideals.
    The points and their monomial values are shared with the other engines
    of a complex through `points` ({(divisor or None, L): (x, {monomial:
    value at x})}), which the complex keeps in its `minor_cache`.

    `order` is a multiple of every entry's order (`_engine_for` takes their
    lcm).  Copy and pickle rebuild the engine from (mat, nvars, order),
    without what it has computed (minors, listings, eliminations, images and
    points), and its repr shows those three.
    """

    def __init__(self, mat: Matrix, nvars: int, order: int, points: dict | None = None):
        self.mat = mat
        self.nvars = nvars
        self.order = order
        self.zero = LaurentPoly.zero(nvars, order)
        self._memo: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}
        # size -> (its first nonzero minor,), or () when every one is zero
        self._nonzero: dict[int, tuple[LaurentPoly, ...]] = {}
        # size -> its nonzero minors if `lists_minors` lists the size, else None
        self._listed: dict[int, tuple[LaurentPoly, ...] | None] = {}
        # divisor -> (pivot rows, pivot columns, [s_1 + ... + s_k for each level k])
        self._eliminations: dict = {}
        # field order L -> the image of mat over F_p (`_fp_image`)
        self._images: dict[int, tuple | None] = {}
        # the rank at the generic point, once `rank_bound` has computed it
        self._rank: int | None = None
        # (divisor, or None for the generic point; L) -> (the point, {monomial:
        # its value there}), shared by the engines of a complex
        self._points = {} if points is None else points

    def __reduce__(self):
        return MinorEngine, (self.mat, self.nvars, self.order)

    def __repr__(self) -> str:
        return f"MinorEngine(mat={self.mat!r}, nvars={self.nvars!r}, order={self.order!r})"

    def _block(self, divisor: PrimeTorusDivisor | None) -> tuple[list[int], list[int]]:
        """`_unit_block` at the engine's point of divisor, or at the generic
        point for None, with the image for its field order; ([], []) without
        an image (an entry denominator that p divides)."""
        top = self.order if divisor is None else math.lcm(self.order, divisor.xi.den)
        if top not in self._images:
            self._images[top] = _fp_image(self.mat, top)
        image = self._images[top]
        if image is None:
            return [], []
        key = (divisor, top)
        if key not in self._points:
            p, powers = image[0], image[1]
            if divisor is None:
                point = [pow(_GENERIC, j, p) for j in range(1, self.nvars + 1)]
            else:
                num, den = divisor.xi
                point = _point_on(divisor.u, powers[top // den * num], p)
            self._points[key] = point, {}
        return _unit_block(image, *self._points[key])

    def rank_bound(self) -> int:
        """The rank of the matrix at the generic point modulo p, 0 without an
        image: for every m up to it, some m x m minor is nonzero."""
        if self._rank is None:
            self._rank = len(self._block(None)[0])
        return self._rank

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

    def nonzero(self, m: int) -> tuple[LaurentPoly, ...]:
        """(the first nonzero m x m minor in combination order,), or () when
        every one is zero."""
        if m not in self._nonzero:
            self._nonzero[m] = tuple(itertools.islice((f for f in self.minors(m) if f.rows), 1))
        return self._nonzero[m]

    def valuation(self, m: int, divisor: PrimeTorusDivisor) -> int:
        """v(I_m) along divisor, for an m with a nonzero m x m minor (see the class)."""
        elimination = self._eliminations.get(divisor)
        if elimination is not None and len(elimination[2]) > m:
            return elimination[2][m]
        if m not in self._listed:
            self._listed[m] = (
                tuple(f for f in self.minors(m) if f.rows)
                if lists_minors(*matrix_shape(self.mat), m) else None
            )
        listed = self._listed[m]
        if listed is not None:
            return least_valuation(listed, divisor)
        if elimination is None:
            rows, cols = self._block(divisor)
            elimination = self._eliminations[divisor] = (rows, cols, [0] * (len(rows) + 1))
        rows, cols, sums = elimination
        nrows, ncols = matrix_shape(self.mat)
        while len(sums) <= m:
            # s_(k+1) >= s_k bounds the level from below
            floor = 2 * sums[-1] - sums[-2] if len(sums) > 1 else 0
            best, pivot = math.inf, None
            for i, j in itertools.product(range(nrows), range(ncols)):
                if i in rows or j in cols:
                    continue
                minor = self.det(tuple(sorted(rows + [i])), tuple(sorted(cols + [j])))
                if minor.rows:
                    value = valuation_along(minor, divisor, cap=None if best == math.inf else best)
                    if value < best:
                        best, pivot = value, (i, j)
                        if best == floor:
                            break
            rows.append(pivot[0])
            cols.append(pivot[1])
            sums.append(best)
        return sums[m]


def _decided_by_size(nrows: int, ncols: int, m: int, unit: IdealGens) -> IdealGens | None:
    """`unit` or the zero ideal of its ring where the size conventions decide it, else None."""
    if m <= 0:
        return unit
    if m > min(nrows, ncols):
        return IdealGens.zero_ideal(unit.ring)
    return None


def _minors_from_engine(engine: MinorEngine, m: int, ring: Ring) -> IdealGens:
    """The ideal of the m x m minors for a size that the size conventions
    leave open, (0) when every minor is zero; raises ValueError for a matrix
    beyond the enumeration limit.  It holds (engine, m) and has the ring of
    its nonzero minors: the orders of the nonzero entries for m = 1, the
    engine's order for m >= 2, which every larger minor has.

    A size that `lists_minors` does not list is certified nonzero when the
    engine's `rank_bound` is at least m: an m x m minor of M(x) is nonzero
    modulo p, so that minor of M is nonzero, since evaluation is a ring
    homomorphism and p divides no denominator.  Otherwise, and for a listed
    size, the minors are walked to the first nonzero one (`nonzero`)."""
    nrows, ncols = matrix_shape(engine.mat)
    if nrows > MAX_MINOR_DIM or ncols > MAX_MINOR_DIM:
        raise ValueError(
            f"matrix exceeds the {MAX_MINOR_DIM}x{MAX_MINOR_DIM} minor enumeration limit"
        )
    certified = not lists_minors(nrows, ncols, m) and engine.rank_bound() >= m
    if not (certified or engine.nonzero(m)):
        return IdealGens.zero_ideal(ring)
    order = engine.order
    if m == 1:
        order = math.lcm(*[f.order for row in engine.mat for f in row if f.rows])
    return IdealGens(ring.with_order(order), minors=(engine, m))


def _engine_for(mat: Matrix, ring: Ring, points: dict | None = None) -> MinorEngine:
    order = math.lcm(ring.cyclotomic_order, *(entry.order for row in mat for entry in row))
    return MinorEngine(mat, ring.nvars, order, points)


def minors_ideal(mat: Matrix, m: int, ring: Ring) -> IdealGens:
    """Ideal generated by all m x m minors, with the usual size conventions.

    m <= 0 gives the unit ideal and m beyond the matrix dimensions gives the
    zero ideal.  Its generators, read, enumerate every row/column subset in
    ascending combination order; its valuations need not.
    """
    decided = _decided_by_size(*matrix_shape(mat), m, IdealGens.unit_ideal(ring))
    if decided is not None:
        return decided
    return _minors_from_engine(_engine_for(mat, ring), m, ring)


class FreeComplex(Frozen):
    """A bounded complex of free modules given by composition-zero matrices.

    Equality and repr are those of the fields (ring, imin, imax, ranks, diffs);
    `minor_cache` holds one unit ideal, minor engines, minors ideals, jump
    ideals and the `top_ideals` of a torsion complex, filled on demand.
    """

    _fields = ("ring", "imin", "imax", "ranks", "diffs")  # compared and shown
    __slots__ = _fields + ("minor_cache",)

    def __init__(
        self, ring: Ring, imin: int, imax: int, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "imin", imin)
        object.__setattr__(self, "imax", imax)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "diffs", diffs)
        object.__setattr__(self, "minor_cache", {})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"FreeComplex({fields})"

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
    """Minors ideal of d^i, sharing the expansion memo and the eliminations
    along each divisor across all sizes; a size that the size conventions
    decide, as every size > 0 of the 0-row d^imax, builds no engine."""
    cache = complex_.minor_cache
    key = ("ideal", i, size)
    found = cache.get(key)
    if found is not None:
        return found
    mat = complex_.differential(i)
    ideal = _decided_by_size(*matrix_shape(mat, complex_.rank(i)), size, _unit_ideal(complex_))
    if ideal is None:
        engine = cache.get(("engine", i))
        if engine is None:
            points = cache.setdefault(("points",), {})
            engine = cache[("engine", i)] = _engine_for(mat, complex_.ring, points)
        ideal = _minors_from_engine(engine, size, complex_.ring)
    cache[key] = ideal
    return ideal


class NonTorsionError(ValueError):
    """Some H^j of a complex is not torsion; `degree` is the lowest such j (`top_ideals`)."""

    def __init__(self, degree: int):
        super().__init__(f"cohomology in degree {degree} is not torsion")
        self.degree = degree


def cdf_ideal(complex_: FreeComplex, i: int, k: int) -> IdealGens:
    """Minors ideal of d^{i-1} at size r_i - k (truncated-Euler indexing)."""
    size = euler_truncation(complex_, i) - k
    return differential_minors(complex_, i - 1, size)


def top_ideals(complex_: FreeComplex) -> dict[int, tuple[IdealGens, LaurentPoly]]:
    """(`cdf_ideal` at k = 0, one nonzero generator of it) per degree, once
    every H^j is torsion; else NonTorsionError names the lowest j that is not.

    Over a domain rank d^j + rank d^(j-1) <= r_j, with equality exactly when
    H^j is torsion (Buchsbaum-Eisenbud).  So with f_j = r_j - f_(j-1) counted
    up from the bottom, the first j with I_(f_j)(d^j) = 0 is the lowest
    non-torsion degree.  With none, f_j = e_(j+1): the ideal checked at j is
    `cdf_ideal` of degree j + 1, and its generator its engine's first nonzero
    minor (1 for the unit ideal), so no other minor is expanded.  The verdict
    is kept in `minor_cache`; a failure is not, and raises again on every call.
    """
    tops = complex_.minor_cache.get(("tops",))
    if tops is None:
        ideal, size, tops = _unit_ideal(complex_), 0, {}
        for j in complex_.degrees():
            top = ideal.minors[0].nonzero(ideal.minors[1])[0] if ideal.minors else ideal.gens[0]
            tops[j] = ideal, top
            size = complex_.rank(j) - size
            ideal = differential_minors(complex_, j, size)
            if ideal.is_zero():
                raise NonTorsionError(j)
        complex_.minor_cache[("tops",)] = tops
    return tops


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
        glued = []
        zero_left = [LaurentPoly.zero(ring.nvars, order)] * a.rank(i)
        zero_right = [LaurentPoly.zero(ring.nvars, order)] * b.rank(i)
        for row in a.differential(i):
            glued.append(list(row) + zero_right)
        for row in b.differential(i):
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
