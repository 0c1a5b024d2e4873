"""Smith normal form over Q(zeta_N)[t] and the data it extracts.

Covers the diagonalization with tracked unimodular transforms, Fitting-ideal
generators of torsion modules, determinantal factors b_k of a square matrix
over the field (with b_0/b_1, the last invariant factor, the minimal
polynomial), maximal Jordan block sizes at unit-root eigenvalues,
presentations of the cohomology of one-variable complexes with torsion
cohomology, and the cohomology dimensions of a complex evaluated at a torsion
point, all read off one checked Smith diagonal.

One pivoting loop (`_pivot`) serves two entry points.  `smith_normal_form`
tracks U and V and checks U*M*V = D; `smith_diagonal`, for callers that read
only the diagonal, tracks U and V^-1 and checks U*M = D*V^-1, keeping V^-1
for that check alone.  Both check the divisibility chain of the diagonal.

The loop, both checks and the products behind the determinantal factors and
Fitting generators run on `upoly.UPoly` (integer numerator rows per power of
t over one denominator); matrices are converted from LaurentPoly once on
entry and back once on exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .arith import CycloElem, TorsionAngle, root_multiplicity
from .complexes import FreeComplex, Matrix, matrix_make, matrix_mul, matrix_shape
from .poly import IdealGens, LaurentPoly, u_dense, u_laurent
from .upoly import UPoly


def _rank(diagonal: Sequence[LaurentPoly | UPoly]) -> int:
    return sum(1 for entry in diagonal if not entry.is_zero())


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = D with unimodular U, V and D = diag(diagonal), divisibility-chained."""

    u: Matrix
    v: Matrix
    diagonal: tuple[LaurentPoly, ...]

    @property
    def rank(self) -> int:
        return _rank(self.diagonal)


@dataclass(frozen=True)
class SmithDiagonal:
    """The Smith diagonal of M, without the transforms that produce it."""

    diagonal: tuple[LaurentPoly, ...]

    @property
    def rank(self) -> int:
        return _rank(self.diagonal)


def _identity(n: int, order: int) -> list[list[UPoly]]:
    one = UPoly.one(order)
    zero = UPoly(order, 1, ())
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _dense_matrix(mat: Matrix | Sequence[Sequence[LaurentPoly]]) -> list[list[UPoly]]:
    """The entries as dense polynomials over the lcm of their cyclotomic orders."""
    order = 1
    for row in mat:
        for entry in row:
            if entry.nvars != 1:
                raise ValueError("Smith form needs one-variable entries")
            if not entry.is_zero() and entry.min_exponents()[0] < 0:
                raise ValueError("Smith form needs polynomial entries; clear units first")
            order = math.lcm(order, entry.order)
    return [[u_dense(entry, order) for entry in row] for row in mat]


def _laurent_matrix(mat: Sequence[Sequence[UPoly]]) -> Matrix:
    return matrix_make([[u_laurent(entry) for entry in row] for row in mat])


def _sub_rows(mat: list, i_target: int, i_source: int, q: UPoly):
    """Row i_target -= q * row i_source."""
    target = mat[i_target]
    for j, s in enumerate(mat[i_source]):
        target[j] = target[j].submul(q, s)


def _sub_cols(mat: list, j_target: int, j_source: int, q: UPoly):
    """Column j_target -= q * column j_source."""
    for row in mat:
        row[j_target] = row[j_target].submul(q, row[j_source])


def _inverse_col_op(v_inv: list, j_target: int, j_source: int, q: UPoly):
    """Keep V^-1 in step with V's column j_target -= q * column j_source.

    The inverse elementary matrix acts on the left: row j_source += q * row j_target.
    """
    _sub_rows(v_inv, j_source, j_target, -q)


def _pivot(rows: list[list[UPoly]], inverse: bool):
    """Diagonalize with degree-minimal deterministic pivoting.

    Takes the dense entries of `_dense_matrix`, all of one order, and returns
    (d, u, w, order) with U * M * V = d, where w is V^-1 when `inverse` is set
    and V otherwise; every transform is a product of elementary matrices.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    order = rows[0][0].order if nrows and ncols else 1
    d = [list(row) for row in rows]
    u = _identity(nrows, order)
    w = _identity(ncols, order)

    def row_op(i_target: int, i_source: int, q: UPoly):
        _sub_rows(d, i_target, i_source, q)
        _sub_rows(u, i_target, i_source, q)

    def col_op(j_target: int, j_source: int, q: UPoly):
        _sub_cols(d, j_target, j_source, q)
        if inverse:
            _inverse_col_op(w, j_target, j_source, q)
        else:
            _sub_cols(w, j_target, j_source, q)

    def swap_rows(a: int, b: int):
        if a != b:
            d[a], d[b] = d[b], d[a]
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int):
        if a != b:
            for row in d:
                row[a], row[b] = row[b], row[a]
            if inverse:
                w[a], w[b] = w[b], w[a]
            else:
                for row in w:
                    row[a], row[b] = row[b], row[a]

    limit = min(nrows, ncols)
    for idx in range(limit):
        while True:
            pivot = None
            best = None
            for i in range(idx, nrows):
                for j in range(idx, ncols):
                    deg = len(d[i][j].rows)
                    if deg and (best is None or deg < best):
                        best = deg
                        pivot = (i, j)
            if pivot is None:
                break
            swap_rows(idx, pivot[0])
            swap_cols(idx, pivot[1])
            p = d[idx][idx]
            dirty = False
            for i in range(nrows):
                if i != idx and d[i][idx].rows:
                    q, _ = d[i][idx].divmod(p)
                    row_op(i, idx, q)
                    if d[i][idx].rows:
                        dirty = True
            for j in range(ncols):
                if j != idx and d[idx][j].rows:
                    q, _ = d[idx][j].divmod(p)
                    col_op(j, idx, q)
                    if d[idx][j].rows:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(idx + 1, nrows):
                for j in range(idx + 1, ncols):
                    if d[i][j].rows and d[i][j].divmod(p)[1].rows:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(idx, offender, -UPoly.one(order))  # add offending row to the pivot row
        entry = d[idx][idx]
        if entry.rows:
            _, inv = entry.monic_pair()
            if inv is not None:
                d[idx] = [e.scale(inv) for e in d[idx]]
                u[idx] = [e.scale(inv) for e in u[idx]]
    return d, u, w, order


def smith_normal_form(mat: Matrix | Sequence[Sequence[LaurentPoly]]) -> SmithForm:
    """Smith normal form over Q(zeta)[t] with tracked U and V, checked as U*M*V = D.

    Entries must be one-variable polynomials without negative exponents
    (Laurent matrices are unit-cleared by the callers first).
    """
    rows = _dense_matrix(mat)
    d, u, v, order = _pivot(rows, inverse=False)
    diagonal = tuple(d[i][i] for i in range(min(len(d), len(v))))
    zero = UPoly(order, 1, ())
    if rows and matrix_mul(matrix_mul(u, rows, zero), v, zero) != matrix_make(d):
        raise ArithmeticError("Smith verification failed: U*M*V != D")
    _check_chain(diagonal)
    return SmithForm(
        u=_laurent_matrix(u),
        v=_laurent_matrix(v),
        diagonal=tuple(u_laurent(e) for e in diagonal),
    )


def _checked_diagonal(mat: Matrix | Sequence[Sequence[LaurentPoly]]):
    """(diagonal, order) with dense entries, checked as U*M = D*V^-1.

    Runs the pivoting of `smith_normal_form` but tracks V^-1 instead of V;
    D is diagonal, so the check is one matrix product and a row scaling.
    """
    rows = _dense_matrix(mat)
    d, u, v_inv, order = _pivot(rows, inverse=True)
    diagonal = tuple(d[i][i] for i in range(min(len(d), len(v_inv))))
    if rows:
        zero = UPoly(order, 1, ())
        for i, row in enumerate(matrix_mul(u, rows, zero)):
            if i < len(diagonal):
                want = tuple(diagonal[i] * w for w in v_inv[i])
            else:
                want = (zero,) * len(row)
            if row != want:
                raise ArithmeticError("Smith verification failed: U*M != D*V^-1")
    _check_chain(diagonal)
    return diagonal, order


def smith_diagonal(mat: Matrix | Sequence[Sequence[LaurentPoly]]) -> SmithDiagonal:
    """The Smith diagonal of a matrix, checked as U*M = D*V^-1."""
    return SmithDiagonal(tuple(u_laurent(e) for e in _checked_diagonal(mat)[0]))


def _check_chain(diagonal: Sequence[UPoly]):
    for a, b in zip(diagonal, diagonal[1:]):
        if not a.rows and b.rows:
            raise ArithmeticError("Smith diagonal has a zero before a nonzero entry")
        if a.rows and b.rows and b.divmod(a)[1].rows:
            raise ArithmeticError("Smith diagonal is not divisibility-chained")


def fitting_generator(presentation: Matrix, k: int) -> LaurentPoly:
    """Monic generator of the k-th Fitting ideal of coker(presentation), or zero.

    Rows index the module generators and columns the relations; the generator
    is the gcd of the (n-k)-minors, read off the Smith diagonal as the product
    of its first n-k invariants.
    """
    nrows, ncols = matrix_shape(presentation)
    order = math.lcm(*(entry.order for row in presentation for entry in row))
    size = nrows - k
    if size > min(nrows, ncols):
        return LaurentPoly.zero(1, order)
    result = UPoly.one(order)
    if size > 0:
        for entry in _checked_diagonal(presentation)[0][:size]:
            result = result * entry
    return u_laurent(result)


@dataclass(frozen=True)
class DeterminantalFactors:
    """Monic generators b_0, b_1, ... of the minor-gcd chain of t*id - phi."""

    b: tuple[LaurentPoly, ...]
    minimal: LaurentPoly  # b_0/b_1, the last invariant factor (1 for the 0x0 matrix)


def characteristic_matrix(phi: Sequence[Sequence[CycloElem]]) -> Matrix:
    m = len(phi)
    order = math.lcm(*(entry.order for row in phi for entry in row))
    t = LaurentPoly.variable(1, 0, 1, order)
    rows = []
    for i in range(m):
        row = []
        for j in range(m):
            entry = LaurentPoly.constant(1, -phi[i][j].lift(order))
            if i == j:
                entry = entry + t
            row.append(entry)
        rows.append(row)
    return matrix_make(rows)


def determinantal_factors(phi: Sequence[Sequence[CycloElem]]) -> DeterminantalFactors:
    """The b_k chain for a square matrix over the coefficient field."""
    m = len(phi)
    if any(len(row) != m for row in phi):
        raise ValueError("determinantal factors need a square matrix")
    diagonal, order = _checked_diagonal(characteristic_matrix(phi))
    # prefixes[j] is the product of the first j invariant factors; b_k = prefixes[m - k]
    prefixes = [UPoly.one(order)]
    for entry in diagonal:
        prefixes.append(prefixes[-1] * entry)
    b = tuple(u_laurent(p) for p in reversed(prefixes))
    return DeterminantalFactors(b, u_laurent(diagonal[-1]) if diagonal else b[0])


def max_jordan_size(phi: Sequence[Sequence[CycloElem]], xi: TorsionAngle) -> int:
    """Multiplicity of e^{2*pi*i*xi} in b_0/b_1, the largest invariant factor."""
    if not phi:
        return 0
    minimal = determinantal_factors(phi).minimal
    return root_multiplicity({k: c for (k,), c in minimal.terms.items()}, xi)


# ---------------------------------------------------------------------------
# Cohomology of one-variable complexes


class NonTorsionError(ValueError):
    """A one-variable complex has non-torsion cohomology in some degree."""

    def __init__(self, degree: int):
        super().__init__(f"cohomology in degree {degree} is not torsion")
        self.degree = degree


def _cleared_polynomial_matrix(mat: Matrix, order: int) -> Matrix:
    """Scale the whole matrix by a t-power so all entries are polynomial."""
    low = min((e.min_exponents()[0] for row in mat for e in row if not e.is_zero()), default=0)
    shift = (max(0, -low),)
    return matrix_make([[e.shift(shift).lift(order) for e in row] for row in mat])


def _torsion_invariants(complex_: FreeComplex) -> dict[int, tuple[UPoly, ...]]:
    """The invariant factors of positive degree of H^i, for every i with any.

    Over the PID Q(zeta)[t] the image of d^i is free, so coker d^{i-1} is H^i
    plus a free module, and the invariant factors of H^i are the Smith
    invariants of d^{i-1} of positive degree, chained, so the last one
    generates the annihilator.  The ranks of the same diagonals, one per
    nonempty cleared differential, decide that every H^i is torsion.
    """
    if complex_.ring.nvars != 1:
        raise ValueError("cohomology presentations need a one-variable complex")
    order = complex_.ring.cyclotomic_order
    diagonals = {}
    for j in range(complex_.imin - 1, complex_.imax + 1):
        mat = _cleared_polynomial_matrix(complex_.differential(j), order)
        if 0 not in matrix_shape(mat):
            diagonals[j] = _checked_diagonal(mat)[0]
    for j in complex_.degrees():
        if complex_.rank(j) != _rank(diagonals.get(j, ())) + _rank(diagonals.get(j - 1, ())):
            raise NonTorsionError(j)
    return {
        j + 1: tuple(entry for entry in diagonal if len(entry.rows) > 1)
        for j, diagonal in diagonals.items()
    }


def cohomology_presentation(complex_: FreeComplex, i: int) -> Matrix:
    """Presentation matrix of H^i of a one-variable complex with torsion cohomology.

    The diagonal matrix of the invariant factors of H^i (`_torsion_invariants`)
    presents H^i over Q(zeta)[t] and, after inverting t, over the Laurent ring.
    """
    torsion = _torsion_invariants(complex_).get(i, ())
    zero = UPoly(complex_.ring.cyclotomic_order, 1, ())
    size = len(torsion)
    return _laurent_matrix(
        [[torsion[j] if j == k else zero for k in range(size)] for j in range(size)]
    )


def principal_generator(ideal: IdealGens) -> LaurentPoly:
    """Monic generator of a one-variable ideal given by its generator list.

    Over the univariate (Laurent) principal ideal domain this is the gcd of
    the generators, with monomial units stripped when the ring is Laurent.
    """
    if ideal.ring.nvars != 1:
        raise ValueError("principal generators only exist in one variable")
    order = ideal.ring.cyclotomic_order
    if ideal.is_zero():
        return LaurentPoly.zero(1, order)
    current = u_dense(ideal.gens[0].clear_units(), order)
    for g in ideal.gens[1:]:
        if len(current.rows) == 1:  # a nonzero constant: the gcd is 1
            break
        current = current.gcd(u_dense(g.clear_units(), order))
    return u_laurent(current).normalized(True)


def annihilator_generator(presentation: Matrix) -> LaurentPoly:
    """Monic generator of the annihilator of coker(presentation): Fitt_0/Fitt_1,
    the n-th invariant factor for n generators (rows), or 1 when n = 0."""
    nrows = len(presentation)
    if not nrows:
        return LaurentPoly.one(1)
    diagonal = _checked_diagonal(presentation)[0]
    if len(diagonal) < nrows or not diagonal[nrows - 1].rows:
        raise ValueError("annihilator of a non-torsion module is zero")
    return u_laurent(diagonal[nrows - 1])


# ---------------------------------------------------------------------------
# Pointwise evaluation: exact vector-space data at a torsion point


def cohomology_dims_at_point(
    complex_: FreeComplex, point: Sequence[TorsionAngle]
) -> dict[int, int]:
    """Dimensions of the cohomology of the complex evaluated at a torsion point.

    The rank of each evaluated differential is the rank of its Smith diagonal,
    its entries read as one-variable constants.
    """
    order = math.lcm(complex_.ring.cyclotomic_order, *(a.den for a in point))
    ranks = {}
    for i in range(complex_.imin - 1, complex_.imax + 1):
        mat = [
            [LaurentPoly.constant(1, e.evaluate(point, order)) for e in row]
            for row in complex_.differential(i)
        ]
        ranks[i] = _rank(_checked_diagonal(mat)[0])
    return {
        i: complex_.rank(i) - ranks[i] - ranks[i - 1]
        for i in complex_.degrees()
    }


def alternating_cohomology_sum(
    complex_: FreeComplex, point: Sequence[TorsionAngle], i: int
) -> int:
    """Alternating sum of cohomology dimensions in degrees >= i at a point."""
    dims = cohomology_dims_at_point(complex_, point)
    total = 0
    for l in range(max(i, complex_.imin), complex_.imax + 1):
        sign = -1 if (l - i) % 2 else 1
        total += sign * dims[l]
    return total
