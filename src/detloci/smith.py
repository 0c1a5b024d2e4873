"""Smith normal form over Q(zeta_N)[t] and the data it extracts.

Covers the diagonalization with tracked unimodular transforms, Fitting-ideal
generators of torsion modules, and presentations of the cohomology of
one-variable complexes with torsion cohomology, each read off one checked
Smith diagonal.  The determinantal factors b_k of a square matrix
phi over the field (with b_0/b_1, the minimal polynomial) and the maximal
Jordan block sizes at unit-root eigenvalues come from a checked Krylov
similarity phi*T = T*H onto k coupled companion blocks and the Smith
diagonal of a k x k relation matrix, not from the n x n t*id - phi.

One pivoting loop (`_pivot`) tracks U and V, and one routine (`_smith`)
checks U*M*V = D and the divisibility chain of the diagonal for every caller:
`smith_normal_form`, which returns U and V, and the callers that read only
the diagonal.  The product checks every column of V, those past the rank
(the kernel of M) included.

The loop, the check, the Krylov vectors (coordinate i as the t^i
coefficient) and the products behind the determinantal factors and Fitting
generators run on `upoly.UPoly`, converted from LaurentPoly once on entry and
back once on exit.  Check products fuse each entry into one
`upoly.sum_of_products`; a unit pivot divides by scaling with its inverse,
and the offender search and the chain check take remainders only.  The
Krylov echelon reduces each vector with the division loop of `upoly`, on
unreduced rows normalized once per vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .arith import CycloElem, TorsionAngle, _phi_tail, root_multiplicity
from .complexes import FreeComplex, Matrix, matrix_make, matrix_shape
from .poly import IdealGens, LaurentPoly, u_dense, u_laurent
from .upoly import UPoly, _accumulate, _eliminate, _make, _reduced, sum_of_products


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


def _dense_mul(a: Sequence[Sequence[UPoly]], b: Sequence[Sequence[UPoly]], order: int) -> list:
    """a*b for dense matrices of one order, each entry one fused `sum_of_products`."""
    cols = list(zip(*b))
    return [[sum_of_products(order, zip(row, col, strict=True)) for col in cols] for row in a]


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


def _quotient(e: UPoly, p: UPoly) -> UPoly:
    """The quotient of e by p: one scaling by the cached inverse of a unit p."""
    if len(p.rows) == 1:
        inv = p.monic_pair()[1]
        return e if inv is None else e.scale(inv)
    return e.divmod(p)[0]


def _pivot(rows: list[list[UPoly]]):
    """Diagonalize with degree-minimal deterministic pivoting.

    Takes the dense entries of `_dense_matrix`, all of one order, and returns
    (d, u, v, order) with U * M * V = d; U and V are products of elementary
    matrices.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    order = rows[0][0].order if nrows and ncols else 1
    d = [list(row) for row in rows]
    u = _identity(nrows, order)
    v = _identity(ncols, order)

    def row_op(i_target: int, i_source: int, q: UPoly):
        _sub_rows(d, i_target, i_source, q)
        _sub_rows(u, i_target, i_source, q)

    def col_op(j_target: int, j_source: int, q: UPoly):
        _sub_cols(d, j_target, j_source, q)
        _sub_cols(v, j_target, j_source, q)

    def swap_rows(a: int, b: int):
        if a != b:
            d[a], d[b] = d[b], d[a]
            u[a], u[b] = u[b], u[a]

    def swap_cols(a: int, b: int):
        if a != b:
            for row in d + v:
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
                    row_op(i, idx, _quotient(d[i][idx], p))
                    if d[i][idx].rows:
                        dirty = True
            for j in range(ncols):
                if j != idx and d[idx][j].rows:
                    col_op(j, idx, _quotient(d[idx][j], p))
                    if d[idx][j].rows:
                        dirty = True
            if dirty:
                continue
            if len(p.rows) == 1:  # a unit divides every entry: no offender to look for
                break
            offender = None
            for i in range(idx + 1, nrows):
                for j in range(idx + 1, ncols):
                    if d[i][j].rows and d[i][j].remainder(p).rows:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(idx, offender, -UPoly.one(order))  # add offending row to the pivot row
        entry = d[idx][idx]
        if entry.rows:
            monic, inv = entry.monic_pair()
            if inv is not None:  # the rest of row idx of d is zero by now
                d[idx][idx] = monic
                u[idx] = [e.scale(inv) if e.rows else e for e in u[idx]]
    return d, u, v, order


def _smith(rows: list[list[UPoly]]) -> tuple[tuple[UPoly, ...], list, list]:
    """(diagonal, U, V) of dense entries of one order, checked as U*M*V = D
    with D = diag(diagonal), and the diagonal checked to be chained."""
    d, u, v, order = _pivot(rows)
    diagonal = tuple(d[i][i] for i in range(min(len(d), len(v))))
    zero = UPoly(order, 1, ())
    want = [[diagonal[i] if i == j else zero for j in range(len(v))] for i in range(len(d))]
    if _dense_mul(_dense_mul(u, rows, order), v, order) != want:
        raise ArithmeticError("Smith verification failed: U*M*V != D")
    _check_chain(diagonal)
    return diagonal, u, v


def smith_normal_form(mat: Matrix | Sequence[Sequence[LaurentPoly]]) -> SmithForm:
    """Smith normal form over Q(zeta)[t] with tracked U and V, checked as U*M*V = D.

    Entries must be one-variable polynomials without negative exponents
    (Laurent matrices are unit-cleared by the callers first).
    """
    diagonal, u, v = _smith(_dense_matrix(mat))
    return SmithForm(
        u=_laurent_matrix(u),
        v=_laurent_matrix(v),
        diagonal=tuple(u_laurent(e) for e in diagonal),
    )


def smith_diagonal(mat: Matrix | Sequence[Sequence[LaurentPoly]]) -> SmithDiagonal:
    """The Smith diagonal of a matrix, checked as `smith_normal_form` checks it."""
    return SmithDiagonal(tuple(u_laurent(e) for e in _smith(_dense_matrix(mat))[0]))


def _check_chain(diagonal: Sequence[UPoly]):
    for a, b in zip(diagonal, diagonal[1:]):
        if not a.rows and b.rows:
            raise ArithmeticError("Smith diagonal has a zero before a nonzero entry")
        if a.rows and b.rows and b.remainder(a).rows:
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
        for entry in _smith(_dense_matrix(presentation))[0][:size]:
            result = result * entry
    return u_laurent(result)


@dataclass(frozen=True)
class DeterminantalFactors:
    """Monic generators b_0, b_1, ... of the minor-gcd chain of t*id - phi."""

    b: tuple[LaurentPoly, ...]
    minimal: LaurentPoly  # b_0/b_1, the last invariant factor (1 for the 0x0 matrix)


def _mat_vec(columns: Sequence[UPoly], v: UPoly, order: int) -> UPoly:
    """sum_j v_j * columns[j]: phi*v for the columns of phi, T*c for those of T.
    The sparse row of each v_j accumulates against those of its column over one
    common denominator, then one reduction."""
    pairs = [(ys, columns[j]) for j, ys in v.sparse() if columns[j].rows]
    den = math.lcm(*(col.den for _, col in pairs))
    length = max((len(col.rows) for _, col in pairs), default=0)
    out = [[0] * (2 * _phi_tail(order)[0] - 1) for _ in range(length)]
    for ys, col in pairs:
        _accumulate(out, [(0, ys)], col.sparse(), den // col.den)
    return _reduced(order, out, v.den * den)


def _echelon_pivot(w: UPoly, c: UPoly, deg: int) -> tuple:
    """The pivot of `upoly._eliminate` for the echelon pair w = T*c, w monic of
    degree deg: the tail of w and the rows of c over one denominator."""
    e = math.lcm(w.den, c.den)

    def over_e(rows: list, den: int) -> list:
        f = e // den
        return rows if f == 1 else [(k, [(q, f * y) for q, y in ys]) for k, ys in rows]

    return deg, e, over_e(w.sparse()[:-1], w.den), over_e(c.sparse(), c.den)


def _krylov(columns: Sequence[UPoly], order: int):
    """Krylov blocks v, phi v, phi^2 v, ... against an incremental echelon basis.

    The start vectors are (1, 2, ..., n), (1, -1, 2, -2, ...), e_1, ..., e_n.
    Each candidate v is reduced by the division loop `upoly._eliminate`
    against the echelon pivots, into a remainder r and a combination acc with
    v = r - T*acc, both unreduced integer rows over one denominator and
    normalized once per vector.  A nonzero r makes v the next column of T and
    its monic form the echelon vector w = T*c of the new top index; a zero r
    ends the block with phi mapping its last column to v = T*(-acc).

    Returns (t, blocks, echelon): t holds the columns of T; block i ends at
    column blocks[i][0] - 1, phi maps that column to T*blocks[i][1], and each
    (w, c) of echelon is a monic w = T*c, the top indices of the w distinct.
    """
    n = len(columns)
    d = _phi_tail(order)[0]
    dense = [[i + 1 for i in range(n)], [(i // 2 + 1) * (-1) ** i for i in range(n)]]
    t, blocks, echelon, pivots, pad = [], [], {}, {}, [0] * (d - 1)
    for ints in dense + [[0] * i + [1] for i in range(n)]:
        # integer rows over 1, each list ending in a nonzero entry: canonical
        v, start = UPoly(order, 1, tuple((x, *pad) for x in ints)), len(t)
        while True:
            rem = [list(row) + pad for row in v.rows]
            acc = [[0] * (2 * d - 1) for _ in t]
            den = _eliminate(order, rem, v.den, pivots, acc)[0]
            r = _reduced(order, rem, den)
            if r.is_zero():
                break
            acc.append([den] + [0] * (2 * d - 2))  # acc + t^len(t): r = T*(acc + e_len(t))
            w, inv = r.monic_pair()
            c = _reduced(order, acc, den)
            c = c if inv is None else c.scale(inv)
            k = len(w.rows) - 1
            echelon[k], pivots[k] = (w, c), _echelon_pivot(w, c, k)
            t.append(v)
            v = _mat_vec(columns, v, order)
        if len(t) > start:
            blocks.append((len(t), -_reduced(order, acc, den)))
        if len(t) == n:
            break
    return t, blocks, list(echelon.values())


def determinantal_factors(phi: Sequence[Sequence[CycloElem]]) -> DeterminantalFactors:
    """The b_k chain for a square matrix over the coefficient field.

    Given phi*T = T*H from `_krylov`, checked, K^n with t acting as phi is
    the cokernel of the k x k upper-triangular P over Q(zeta)[t] whose column
    i is g_i(t) v_i minus the couplings to earlier start vectors, g_i monic of
    the degree d_i of block i: the t^m v_i (m < d_i) span it, sum d_i = n of
    them.  So t*id - phi has the Smith diagonal 1^(n-k), then that of P.
    """
    n = len(phi)
    if any(len(row) != n for row in phi):
        raise ValueError("determinantal factors need a square matrix")
    order = math.lcm(*(entry.order for row in phi for entry in row))
    columns = []
    for column in zip(*phi):  # column j as sum_i phi[i][j] t^i over one denominator
        lifted = [entry.lift(order) for entry in column]
        den = math.lcm(*(entry.den for entry in lifted))
        columns.append(_make(order, [[x * (den // e.den) for x in e.nums] for e in lifted], den))
    t, blocks, echelon = _krylov(columns, order)
    # the n distinct top indices make W, and so T, invertible
    if len(t) != n or sorted(len(w.rows) - 1 for w, _ in echelon) != list(range(n)):
        raise ArithmeticError("Krylov verification failed: T is not invertible")
    if any(_mat_vec(t, c, order) != w for w, c in echelon):
        raise ArithmeticError("Krylov verification failed: W != T*C")
    one, start, bounds = UPoly.one(order), 0, []
    p = [[UPoly(order, 1, ())] * len(blocks) for _ in blocks]
    for i, (end, h) in enumerate(blocks):
        if not start < end or len(h.rows) > end:
            raise ArithmeticError("Krylov verification failed: H is not block triangular")
        bounds.append((start, end))
        for j in range(start, end):
            image = t[j + 1] if j + 1 < end else _mat_vec(t, h, order)
            if _mat_vec(columns, t[j], order) != image:
                raise ArithmeticError("Krylov verification failed: phi*T != T*H")
        for i2, (s, e) in enumerate(bounds):
            rows = [[-x for x in row] for row in h.rows[s:e]]
            if i2 == i:  # g_i = t^(end - start) minus block i's own part of h
                zero = [0] * len(one.rows[0])
                rows += [zero] * (e - s - len(rows)) + [[h.den] + zero[1:]]
            p[i2][i] = _make(order, rows, h.den)
        start = end
    if start != n:
        raise ArithmeticError("Krylov verification failed: the blocks do not cover T")
    # the Smith diagonal of t*id - phi is n - k ones, then that of P, so b_j
    # is 1 for j >= k and the product of the first k - j entries of P's below
    diagonal = _smith(p)[0]
    products = [u_laurent(prefix) for prefix in itertools.accumulate(diagonal, UPoly.__mul__)]
    b = tuple(reversed(products)) + (u_laurent(one),) * (n - len(p) + 1)
    return DeterminantalFactors(b, u_laurent(diagonal[-1]) if diagonal else b[0])


def max_jordan_size(phi: Sequence[Sequence[CycloElem]], xi: TorsionAngle) -> int:
    """Multiplicity of e^{2*pi*i*xi} in b_0/b_1, the largest invariant factor."""
    if not phi:
        return 0
    minimal = determinantal_factors(phi).minimal
    return root_multiplicity(minimal.order, {k: row for (k,), row in minimal.rows.items()}, xi)


# ---------------------------------------------------------------------------
# Cohomology of one-variable complexes


class NonTorsionError(ValueError):
    """A complex has non-torsion cohomology in some degree."""

    def __init__(self, degree: int):
        super().__init__(f"cohomology in degree {degree} is not torsion")
        self.degree = degree


def _cleared_polynomial_matrix(mat: Matrix, order: int) -> Matrix:
    """Scale the whole matrix by a t-power so all entries are polynomial."""
    low = min((e.min_exponents()[0] for row in mat for e in row if not e.is_zero()), default=0)
    shift = (max(0, -low),)
    return matrix_make([[e.shift(shift).lift(order) for e in row] for row in mat])


def cohomology_presentation(complex_: FreeComplex, i: int) -> Matrix:
    """Presentation matrix of H^i of a one-variable complex with torsion cohomology.

    Over the PID Q(zeta)[t] the image of d^i is free, so coker d^{i-1} is H^i
    plus a free module, and the invariant factors of H^i are the Smith
    invariants of d^{i-1} of positive degree, chained, so the last one
    generates the annihilator.  Their diagonal matrix presents H^i over
    Q(zeta)[t] and, after inverting t, over the Laurent ring.  The ranks of
    the diagonals of every nonempty cleared differential decide that every
    H^j is torsion, and NonTorsionError names the lowest degree that is not.
    """
    if complex_.ring.nvars != 1:
        raise ValueError("cohomology presentations need a one-variable complex")
    order = complex_.ring.cyclotomic_order
    diagonals = {}
    for j in range(complex_.imin - 1, complex_.imax + 1):
        mat = _cleared_polynomial_matrix(complex_.differential(j), order)
        if 0 not in matrix_shape(mat):
            diagonals[j] = _smith(_dense_matrix(mat))[0]
    for j in complex_.degrees():
        if complex_.rank(j) != _rank(diagonals.get(j, ())) + _rank(diagonals.get(j - 1, ())):
            raise NonTorsionError(j)
    torsion = tuple(entry for entry in diagonals.get(i - 1, ()) if len(entry.rows) > 1)
    zero = UPoly(order, 1, ())
    size = len(torsion)
    return _laurent_matrix(
        [[torsion[j] if j == k else zero for k in range(size)] for j in range(size)]
    )


def principal_generator(ideal: IdealGens) -> LaurentPoly:
    """Monic generator of a one-variable ideal given by its generator list.

    Over the univariate (Laurent) principal ideal domain this is the gcd of
    the generators, the first entry of the checked Smith diagonal of their
    one-row matrix, which is monic.  In the Laurent case `IdealGens.make`
    has cleared the monomial content of every generator, so t does not
    divide the gcd either.
    """
    if ideal.ring.nvars != 1:
        raise ValueError("principal generators only exist in one variable")
    if ideal.is_zero():
        return LaurentPoly.zero(1, ideal.ring.cyclotomic_order)
    return u_laurent(_smith(_dense_matrix([ideal.gens]))[0][0])
