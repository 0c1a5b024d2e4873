import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detloci.arith import CycloElem, TorsionAngle, euler_phi
from detloci.complexes import FreeComplex, matrix_make
from detloci.poly import (
    IdealGens,
    LaurentPoly,
    Ring,
    parse_poly,
    u_dense,
)
from detloci.smith import (
    NonTorsionError,
    cohomology_presentation,
    determinantal_factors,
    fitting_generator,
    max_jordan_size,
    principal_generator,
    smith_diagonal,
    smith_normal_form,
)
from detloci.upoly import UPoly, sum_of_products as upoly_sum_of_products

from conftest import (
    characteristic_matrix,
    dense_planted_jordan,
    planted_factors,
    division_multiplicity,
    exact_divide,
    oracle_det,
    random_torsion_complex,
    upoly_divmod_in,
)

R1 = Ring(1, False, 1)
R1L = Ring(1, True, 1)


def P(text: str, ring: Ring = R1) -> LaurentPoly:
    return parse_poly(text, ring)


def angle(num, den):
    return TorsionAngle.make(num, den)


class TestSmithNormalForm:
    def test_identity(self):
        one = LaurentPoly.one(1)
        zero = LaurentPoly.zero(1)
        form = smith_normal_form([[one, zero], [zero, one]])
        assert [str(d.terms) for d in form.diagonal] == [str(one.terms)] * 2

    def test_nilpotent_shape(self):
        # [[t, 1], [0, t]] reduces to diag(1, t^2) by hand row/column moves
        t = P("t1")
        one = LaurentPoly.one(1)
        zero = LaurentPoly.zero(1)
        form = smith_normal_form([[t, one], [zero, t]])
        assert form.diagonal[0].is_one()
        assert form.diagonal[1] == P("t1^2")

    def test_already_chained(self):
        a, b = P("t1-1"), P("t1^2-3*t1+2")
        zero = LaurentPoly.zero(1)
        form = smith_normal_form([[a, zero], [zero, b]])
        assert form.diagonal == (a, b)

    def test_transform_determinants_constant(self, rng):
        for _ in range(10):
            size = rng.randint(1, 3)
            mat = [
                [
                    P("t1") ** rng.randint(0, 2)
                    if rng.random() < 0.7
                    else LaurentPoly.zero(1)
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            form = smith_normal_form(mat)
            for transform in (form.u, form.v):
                det = oracle_det([list(r) for r in transform], R1)
                assert not det.is_zero()
                exps, _ = det.leading()
                assert exps == (0,)

    def test_laurent_entries_rejected(self):
        with pytest.raises(ValueError, match="clear units"):
            smith_normal_form([[parse_poly("t1^-1", R1L)]])


def random_entry(rng, order: int) -> LaurentPoly:
    """A polynomial of degree <= 2 over Q(zeta_order), zero about a third of the time."""
    if rng.random() < 0.3:
        return LaurentPoly.zero(1, order)
    terms = {}
    for k in range(rng.randint(1, 3)):
        nums = [rng.randint(-2, 2) for _ in range(euler_phi(order))]
        terms[(k,)] = CycloElem(order, [Fraction(n) for n in nums])
    return LaurentPoly.make(1, order, terms)


def seeded_matrices(rng, order: int) -> list[list[list[LaurentPoly]]]:
    """Square, rectangular, rank-deficient and zero matrices over Q(zeta_order)[t]."""
    def block(nrows, ncols):
        return [[random_entry(rng, order) for _ in range(ncols)] for _ in range(nrows)]

    square, wide, tall = block(3, 3), block(2, 3), block(3, 2)
    a, b = random_entry(rng, order), random_entry(rng, order)
    top = block(2, 3)
    deficient = top + [[a * x + b * y for x, y in zip(*top)]]
    zero = [[LaurentPoly.zero(1, order)] * 3 for _ in range(2)]
    return [square, wide, tall, deficient, zero]


class TestSmithDiagonal:
    # at 5 and 9 the unreduced product rows run past z^N and fold
    @pytest.mark.parametrize("order", [1, 3, 4, 5, 6, 9, 12])
    def test_matches_the_full_form(self, rng, order):
        for _ in range(2):
            for mat in seeded_matrices(rng, order):
                full = smith_normal_form(mat)
                short = smith_diagonal(mat)
                assert short.diagonal == full.diagonal
                assert short.rank == full.rank

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_coprime_diagonal_is_chained(self, entry):
        # diag(t, t - 1) is diagonal but not chained: the pivot row must take
        # in the offending row to reach diag(1, t^2 - t)
        zero = LaurentPoly.zero(1)
        assert entry([[P("t1"), zero], [zero, P("t1-1")]]).diagonal == (
            LaurentPoly.one(1),
            P("t1^2-t1"),
        )

    def test_rank_deficient_has_trailing_zero(self, rng):
        for order in (1, 6):
            deficient = seeded_matrices(rng, order)[3]
            assert smith_diagonal(deficient).diagonal[-1].is_zero()

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_corrupt_column_update_raises(self, monkeypatch, entry):
        import detloci.smith as smith_module

        phi = [[CycloElem.from_rational(6, x) for x in row] for row in
               [[1, 2, 0], [3, -1, 1], [0, 1, 2]]]
        char = characteristic_matrix(phi)
        entry(char)
        real = smith_module._sub_cols
        pivoted = []

        def negated(mat, j_target, j_source, q):
            # a column operation updates the pivoted matrix first, then V:
            # V alone takes the negated multiplier
            if not pivoted:
                pivoted.append(mat)
            real(mat, j_target, j_source, q if mat is pivoted[0] else -q)

        monkeypatch.setattr(smith_module, "_sub_cols", negated)
        with pytest.raises(ArithmeticError, match="U\\*M\\*V != D"):
            entry(char)

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_corrupt_row_transform_raises(self, monkeypatch, entry):
        import detloci.smith as smith_module

        t = P("t1")
        real = smith_module._pivot

        def corrupt(rows):
            d, u, v, order = real(rows)
            u[0][0] = u[0][0] + u_dense(t, order)
            return d, u, v, order

        monkeypatch.setattr(smith_module, "_pivot", corrupt)
        with pytest.raises(ArithmeticError, match="Smith verification failed"):
            entry([[t, LaurentPoly.one(1)], [LaurentPoly.zero(1), t]])

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_corrupt_column_transform_raises(self, monkeypatch, entry):
        import detloci.smith as smith_module

        t = P("t1")
        real = smith_module._pivot

        def corrupt(rows):
            d, u, v, order = real(rows)
            v[-1][-1] = v[-1][-1] + u_dense(t, order)
            return d, u, v, order

        monkeypatch.setattr(smith_module, "_pivot", corrupt)
        with pytest.raises(ArithmeticError, match="U\\*M\\*V != D"):
            entry([[t, LaurentPoly.one(1)], [LaurentPoly.zero(1), t]])


class TestDivisibilityChainCheck:
    """A transform-consistent but unchained diagonal is refused by both entry points."""

    @staticmethod
    def identity_pivot(monkeypatch):
        # claims the input is already diagonal: U = V = identity, D = M
        import detloci.smith as smith_module

        def identity(rows):
            n, m = len(rows), len(rows[0])
            order = rows[0][0].order
            one, zero = UPoly.one(order), UPoly(order, 1, ())
            u = [[one if i == j else zero for j in range(n)] for i in range(n)]
            v = [[one if i == j else zero for j in range(m)] for i in range(m)]
            return [list(row) for row in rows], u, v, order

        monkeypatch.setattr(smith_module, "_pivot", identity)

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_zero_before_nonzero(self, monkeypatch, entry):
        zero = LaurentPoly.zero(1)
        self.identity_pivot(monkeypatch)
        with pytest.raises(ArithmeticError, match="zero before a nonzero"):
            entry([[zero, zero], [zero, P("t1")]])

    @pytest.mark.parametrize("entry", [smith_normal_form, smith_diagonal])
    def test_not_chained(self, monkeypatch, entry):
        zero = LaurentPoly.zero(1)
        self.identity_pivot(monkeypatch)
        with pytest.raises(ArithmeticError, match="not divisibility-chained"):
            entry([[P("t1"), zero], [zero, P("t1+1")]])


class TestFitting:
    def test_examples(self):
        t = P("t1")
        zero = LaurentPoly.zero(1)
        pres = matrix_make([[t, zero], [zero, t * t]])
        assert fitting_generator(pres, 0) == P("t1^3")
        assert fitting_generator(pres, 1) == P("t1")
        assert fitting_generator(pres, 2).is_one()
        assert fitting_generator(pres, 5).is_one()

    def test_nontorsion_gives_zero(self):
        zero = LaurentPoly.zero(1)
        pres = matrix_make([[zero]])
        assert fitting_generator(pres, 0).is_zero()

    def test_more_generators_than_relations_gives_zero(self):
        # three generators and one relation: Fitt_k vanishes while 3 - k > 1
        pres = matrix_make([[P("t1")], [P("t1+1")], [P("t1^2")]])
        assert fitting_generator(pres, 0).is_zero()
        assert fitting_generator(pres, 1).is_zero()
        assert fitting_generator(pres, 2).is_one()
        assert fitting_generator(pres, 3).is_one()


class TestAnnihilatorGenerator:
    """The annihilator Fitt_0/Fitt_1 of coker(M) for n generators (rows) is the
    n-th entry of the Smith diagonal of M, and 1 when n = 0."""

    def test_last_invariant(self):
        t = P("t1")
        zero = LaurentPoly.zero(1)
        pres = matrix_make([[t * t, zero, t], [zero, t, P("t1-1")]])
        ann = smith_diagonal(pres).diagonal[1]
        b0, b1 = fitting_generator(pres, 0), fitting_generator(pres, 1)
        assert ann == exact_divide(b0, b1, laurent=False)
        assert ann == P("t1^2")

    def test_no_generators_gives_one(self):
        assert smith_diagonal(matrix_make([])).diagonal == ()
        assert fitting_generator(matrix_make([]), 0).is_one()


PRINCIPAL_ORDERS = [1, 3, 4, 6, 12]


def field_elems(order: int):
    d = euler_phi(order)
    return st.builds(
        lambda nums, den: CycloElem(order, [Fraction(n, den) for n in nums]),
        st.lists(st.integers(-3, 3), min_size=d, max_size=d),
        st.integers(1, 4),
    )


@st.composite
def one_variable_polys(draw, order: int, nonzero: bool = False):
    """A polynomial of degree at most 3 over Q(zeta_order), without negative exponents."""
    coeffs = draw(st.lists(field_elems(order), min_size=1 if nonzero else 0, max_size=4))
    f = LaurentPoly.make(1, order, {(k,): c for k, c in enumerate(coeffs)})
    if nonzero and f.is_zero():
        f = LaurentPoly.one(1, order)
    return f


class TestPrincipalGenerator:
    """The gcd of a one-variable ideal, read off the Smith diagonal of its generator row."""

    @given(st.sampled_from(PRINCIPAL_ORDERS).flatmap(
        lambda n: st.tuples(
            st.just(n),
            one_variable_polys(n, nonzero=True),
            st.lists(
                field_elems(n).filter(lambda c: not c.is_zero()),
                min_size=3,
                max_size=3,
                unique_by=lambda c: (c.nums, c.den),
            ),
        )
    ))
    @settings(max_examples=100, deadline=None)
    def test_planted_gcd(self, case):
        # the cofactors y*z, x*z and x*y of distinct non-monomial linear factors
        # have no common root, while any two of them share one
        order, p, roots = case
        t = LaurentPoly.variable(1, 0, 1, order)
        x, y, z = (t - LaurentPoly.constant(1, c) for c in roots)
        gens = [p * y * z, p * x * z, p * x * y]
        for laurent in (False, True):
            got = principal_generator(IdealGens.make(Ring(1, laurent, order), gens))
            assert got == p.normalized(laurent)
            assert got.leading()[1].is_one()

    @given(st.sampled_from(PRINCIPAL_ORDERS).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(one_variable_polys(n), min_size=1, max_size=3))
    ))
    @settings(max_examples=100, deadline=None)
    def test_divides_every_generator(self, case):
        order, gens = case
        ideal = IdealGens.make(Ring(1, False, order), gens)
        got = principal_generator(ideal)
        if ideal.is_zero():
            assert got.is_zero()
            return
        for g in ideal.gens:
            assert exact_divide(g, got, laurent=False) is not None

    def test_zero_ideal_gives_zero(self):
        for order in PRINCIPAL_ORDERS:
            zero = LaurentPoly.zero(1, order)
            assert principal_generator(IdealGens.make(Ring(1, True, order), [zero, zero])).is_zero()

    def test_unit_among_generators_gives_one(self):
        gens = [P("t1^2-1"), P("3"), P("t1+1")]
        assert principal_generator(IdealGens.make(R1, gens)).is_one()
        # a monomial is a unit of the Laurent ring
        gens = [P("t1^2-1", R1L), P("2*t1^3", R1L)]
        assert principal_generator(IdealGens.make(Ring(1, True, 6), gens)).is_one()

    def test_polynomial_ring_keeps_powers_of_t(self):
        # t is a unit only in the Laurent ring
        gens = [P("t1^2"), P("t1^3-t1^2")]
        assert principal_generator(IdealGens.make(R1, gens)) == P("t1^2")
        gens = [P("t1^2", R1L), P("t1^3-t1^2", R1L)]
        assert principal_generator(IdealGens.make(R1L, gens)).is_one()


def oracle_determinantal_factors(phi, order):
    """gcd of all (m-k)-minors of t*id - phi, by direct enumeration."""
    m = len(phi)
    t = LaurentPoly.variable(1, 0, 1, order)
    char = [
        [
            (t if i == j else LaurentPoly.zero(1, order))
            + LaurentPoly.constant(1, -phi[i][j].lift(order))
            for j in range(m)
        ]
        for i in range(m)
    ]
    out = []
    for k in range(m + 1):
        size = m - k
        if size <= 0:
            out.append(LaurentPoly.one(1, order))
            continue
        gcd = LaurentPoly.zero(1, order)
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(m), size):
                sub = [[char[i][j] for j in cols] for i in rows]
                det = oracle_det(sub, Ring(1, False, order))
                # Euclid on term maps, independent of the dense Smith route
                while not det.is_zero():
                    gcd, det = det, upoly_divmod_in(gcd, det, 0)[1]
        out.append(gcd.monic())
    return out


class TestDeterminantalFactors:
    def test_jordan_block_pair(self):
        lam = CycloElem.from_angle(6, angle(1, 6))
        one, zero = CycloElem.one(6), CycloElem.zero(6)
        phi = [[lam, one], [zero, lam]]
        factors = determinantal_factors(phi)
        oracle = oracle_determinantal_factors(phi, 6)
        assert list(factors.b) == oracle
        assert factors.b[1].is_one()
        linear = parse_poly("t1-e(1/6)", Ring(1, False, 6))
        assert factors.b[0] == linear * linear

    def test_scalar_matrix(self):
        lam = CycloElem.from_angle(6, angle(1, 6))
        zero = CycloElem.zero(6)
        factors = determinantal_factors([[lam, zero], [zero, lam]])
        linear = parse_poly("t1-e(1/6)", Ring(1, False, 6))
        assert factors.b[0] == linear * linear
        assert factors.b[1] == linear

    def test_empty_matrix(self):
        factors = determinantal_factors([])
        assert len(factors.b) == 1 and factors.b[0].is_one()
        assert factors.minimal.is_one()

    def test_three_by_three(self):
        lam = CycloElem.from_angle(6, angle(1, 6))
        one, zero = CycloElem.one(6), CycloElem.zero(6)
        phi = [[lam, one, zero], [zero, lam, zero], [zero, zero, lam]]
        factors = determinantal_factors(phi)
        assert list(factors.b) == oracle_determinantal_factors(phi, 6)
        linear = parse_poly("t1-e(1/6)", Ring(1, False, 6))
        assert factors.b[0] == linear**3
        assert factors.b[1] == linear
        assert factors.b[2].is_one()

    def test_divisibility_chain(self):
        lam = CycloElem.from_angle(4, angle(1, 4))
        one, zero = CycloElem.one(4), CycloElem.zero(4)
        phi = [[lam, one], [zero, CycloElem.one(4)]]
        factors = determinantal_factors(phi)
        for upper, lower in zip(factors.b, factors.b[1:]):
            _, rem = u_dense(upper, 4).divmod(u_dense(lower, 4))
            assert rem.is_zero()

    def test_non_square_rejected(self):
        one = CycloElem.one(1)
        with pytest.raises(ValueError, match="square"):
            determinantal_factors([[one, one]])

    @pytest.mark.parametrize("order", [5, 9])
    def test_fold_orders(self, rng, order):
        """Orders whose unreduced product rows (2 phi(N) - 1 entries) run past z^N."""
        lam = CycloElem.from_angle(order, angle(2, order))
        one, zero = CycloElem.one(order), CycloElem.zero(order)
        mats = [[[lam, one, zero], [zero, lam, zero], [zero, zero, lam]]]
        for _ in range(4):
            m = rng.randint(1, 3)
            mats.append([
                [
                    CycloElem.from_angle(order, angle(rng.randrange(order), order))
                    * CycloElem.from_rational(order, rng.choice([0, 1, -1, 2]))
                    for _ in range(m)
                ]
                for _ in range(m)
            ])
        for phi in mats:
            assert list(determinantal_factors(phi).b) == oracle_determinantal_factors(phi, order)

    @pytest.mark.parametrize("order", [1, 6, 12])
    def test_minimal_polynomial_is_b0_over_b1(self, rng, order):
        for _ in range(6):
            m = rng.randint(1, 4)
            phi = [
                [
                    CycloElem.from_angle(order, angle(rng.randrange(order), order))
                    * CycloElem.from_rational(order, rng.choice([0, 1, -1, 2]))
                    for _ in range(m)
                ]
                for _ in range(m)
            ]
            factors = determinantal_factors(phi)
            quotient = exact_divide(factors.b[0], factors.b[1], laurent=False)
            assert factors.minimal == quotient


def smith_route_determinantal_factors(phi):
    """b_0, ..., b_m from the Smith diagonal of the whole characteristic matrix."""
    order = math.lcm(*(entry.order for row in phi for entry in row))
    prefixes = [LaurentPoly.one(1, order)]
    for entry in smith_diagonal(characteristic_matrix(phi)).diagonal:
        prefixes.append(prefixes[-1] * entry)
    return prefixes[::-1]


@st.composite
def planted_jordan(draw, orders=(1, 2, 3, 4, 6, 8, 12), max_size=8):
    """P J P^-1 with J of planted Jordan blocks at a few eigenvalues c*e(a/N)
    and P a product of integer elementary matrices."""
    order = draw(st.sampled_from(orders))
    n = draw(st.integers(0, max_size))
    values = draw(st.lists(
        st.tuples(st.integers(0, order - 1), st.sampled_from([1, -1, 2])), min_size=1, max_size=3
    ))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    zero = CycloElem.zero(order)
    phi = [[zero] * n for _ in range(n)]
    pos = 0
    for size in sizes:
        a, c = draw(st.sampled_from(values))
        lam = CycloElem.from_angle(order, angle(a, order)) * CycloElem.from_rational(order, c)
        for k in range(pos, pos + size):
            phi[k][k] = lam
            if k + 1 < pos + size:
                phi[k][k + 1] = CycloElem.one(order)
        pos += size
    if n > 1:
        pairs = st.lists(st.sampled_from(list(itertools.permutations(range(n), 2))), max_size=2 * n)
        for a, b in draw(pairs):
            q = CycloElem.from_rational(order, draw(st.sampled_from([1, -1, 2])))
            # E J E^-1 for E = id + q*e_ab: row a += q*row b, then column b -= q*column a
            phi[a] = [x + q * y for x, y in zip(phi[a], phi[b])]
            for row in phi:
                row[b] = row[b] - q * row[a]
    return phi


class TestKrylovRoute:
    @given(planted_jordan())
    @settings(max_examples=120, deadline=None)
    def test_against_the_characteristic_matrix_route(self, phi):
        factors = determinantal_factors(phi)
        assert list(factors.b) == smith_route_determinantal_factors(phi)
        if len(phi) <= 4:
            order = math.lcm(*(entry.order for row in phi for entry in row))
            assert list(factors.b) == oracle_determinantal_factors(phi, order)

    @pytest.mark.parametrize("order", [1, 3, 4, 8, 12])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_scaled_planted_jordan(self, order, data):
        # scaling by q moves the eigenvalues off the unit circle: echelon
        # vectors over denominators, with leading coefficients in Q(zeta)
        phi = data.draw(planted_jordan(orders=[order], max_size=7))
        q = data.draw(st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]))
        phi = [[entry.scale(q) for entry in row] for row in phi]
        assert list(determinantal_factors(phi).b) == smith_route_determinantal_factors(phi)

    # two Jordan blocks of size 2 at e(1/6): at least two Krylov blocks
    LAM = CycloElem.from_angle(6, angle(1, 6))
    ONE, ZERO = CycloElem.one(6), CycloElem.zero(6)
    PHI = [[LAM, ONE, ZERO, ZERO], [ZERO, LAM, ZERO, ZERO], [ZERO, ZERO, LAM, ONE],
           [ZERO, ZERO, ZERO, LAM]]

    @given(
        st.one_of(st.just(PHI), planted_jordan()),
        st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_mat_vec_is_the_pair_sum(self, phi, q):
        # every product of the Krylov route and its checks against the old
        # route: one one-row scalar per nonzero coordinate, one sum of products;
        # a fractional q gives columns with denominators
        import detloci.smith as smith_module

        phi = [[entry.scale(q) for entry in row] for row in phi]
        real, calls = smith_module._mat_vec, []

        def checked(columns, v, order):
            got = real(columns, v, order)
            pairs = (
                (UPoly(order, v.den, (row,)), col) for row, col in zip(v.rows, columns) if any(row)
            )
            assert got == upoly_sum_of_products(order, pairs)
            calls.append(v)
            return got

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smith_module, "_mat_vec", checked)
            determinantal_factors(phi)
        assert len(calls) >= len(phi)

    def corrupt(self, monkeypatch, change):
        import detloci.smith as smith_module

        real = smith_module._krylov

        def corrupted(columns, order):
            t, blocks, echelon = real(columns, order)
            assert len(blocks) >= 2
            return change(order, t, blocks, echelon)

        monkeypatch.setattr(smith_module, "_krylov", corrupted)

    def test_unchanged_krylov_passes(self, monkeypatch):
        self.corrupt(monkeypatch, lambda order, *parts: parts)
        linear = parse_poly("t1-e(1/6)", Ring(1, False, 6))
        assert determinantal_factors(self.PHI).b[:3] == (linear**4, linear**2, LaurentPoly.one(1, 6))

    def test_corrupt_coupling_raises(self, monkeypatch):
        def change(order, t, blocks, echelon):
            end, h = blocks[-1]
            return t, blocks[:-1] + [(end, h + UPoly.one(order))], echelon

        self.corrupt(monkeypatch, change)
        with pytest.raises(ArithmeticError, match="phi\\*T != T\\*H"):
            determinantal_factors(self.PHI)

    def test_coupling_to_a_later_block_raises(self, monkeypatch):
        def change(order, t, blocks, echelon):
            end, h = blocks[0]
            later = u_dense(LaurentPoly.variable(1, 0, len(t) - 1, order), order)
            return t, [(end, h + later)] + blocks[1:], echelon

        self.corrupt(monkeypatch, change)
        with pytest.raises(ArithmeticError, match="not block triangular"):
            determinantal_factors(self.PHI)

    def test_corrupt_krylov_column_raises(self, monkeypatch):
        def change(order, t, blocks, echelon):
            t = list(t)
            t[1] = t[1] + UPoly.one(order)
            return t, blocks, echelon

        self.corrupt(monkeypatch, change)
        with pytest.raises(ArithmeticError, match="Krylov verification failed"):
            determinantal_factors(self.PHI)

    def test_singular_t_raises(self, monkeypatch):
        # T = 0 and W = 0 satisfy phi*T = T*H and W = T*C; only the pivots object
        def change(order, t, blocks, echelon):
            zero = UPoly(order, 1, ())
            return [zero] * len(t), blocks, [(zero, c) for _, c in echelon]

        self.corrupt(monkeypatch, change)
        with pytest.raises(ArithmeticError, match="T is not invertible"):
            determinantal_factors(self.PHI)

    def test_singular_t_with_echelon_kept_raises(self, monkeypatch):
        # T = 0 satisfies phi*T = T*H; the echelon vectors are no longer T*C
        def change(order, t, blocks, echelon):
            return [UPoly(order, 1, ())] * len(t), blocks, echelon

        self.corrupt(monkeypatch, change)
        with pytest.raises(ArithmeticError, match="W != T\\*C"):
            determinantal_factors(self.PHI)

    def test_dropped_block_raises(self, monkeypatch):
        self.corrupt(monkeypatch, lambda order, t, blocks, echelon: (t, blocks[:-1], echelon))
        with pytest.raises(ArithmeticError, match="do not cover T"):
            determinantal_factors(self.PHI)


class TestKrylovScale:
    def test_normalized_echelon_keeps_the_planted_factors(self, monkeypatch):
        # the echelon of a dense 12 x 12 matrix at order 12 carries its running
        # denominator past a machine word; the rows are normalized on the way
        import detloci.upoly as upoly_module

        calls = []
        real = upoly_module._normalize
        monkeypatch.setattr(
            upoly_module, "_normalize", lambda *args: calls.append(1) or real(*args)
        )
        phi, sizes = dense_planted_jordan(random.Random(1), 12, 12)
        assert list(determinantal_factors(phi).b) == planted_factors(sizes, 12, 12)
        assert calls

    def test_dense_24_by_24_at_order_12_within_a_cpu_cap(self):
        """determinantal_factors of `dense_planted_jordan(random.Random(1), 24, 12)`
        in a child process, its CPU time under 1.25 s: about 0.55 s on a shared
        2-vCPU host (Python 3.11), where the echelon without the word-size
        normalization of the division loop took 1.5-2.8 s, its largest operand
        growing from about 3,500 to 22,000 bits.  The b_k must be those of the
        planted blocks."""
        tests = Path(__file__).resolve().parent
        child = (
            "import random, sys, time\n"
            f"sys.path.insert(0, {str(tests)!r})\n"
            "from conftest import dense_planted_jordan, planted_factors\n"
            "from detloci.smith import determinantal_factors\n"
            "phi, sizes = dense_planted_jordan(random.Random(1), 24, 12)\n"
            "start = time.process_time()\n"
            "factors = determinantal_factors(phi)\n"
            "seconds = time.process_time() - start\n"
            "print(seconds, list(factors.b) == planted_factors(sizes, 24, 12))\n"
        )
        src = str(tests.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        seconds, planted = proc.stdout.split()
        assert planted == "True"
        assert float(seconds) < 1.25


class TestMaxJordanSize:
    def test_examples(self):
        lam = CycloElem.from_angle(6, angle(1, 6))
        one, zero = CycloElem.one(6), CycloElem.zero(6)
        block_pair = [
            [lam, one, zero],
            [zero, lam, zero],
            [zero, zero, lam],
        ]
        assert max_jordan_size(block_pair, angle(1, 6)) == 2
        identity = [[CycloElem.one(1)]]
        assert max_jordan_size(identity, angle(0, 1)) == 1
        j2 = [[lam, one], [zero, lam]]
        assert max_jordan_size(j2, angle(1, 3)) == 0

    def test_empty_matrix(self):
        assert max_jordan_size([], angle(0, 1)) == 0

    def test_against_linear_division(self, rng):
        # upper-triangular matrices with root-of-unity eigenvalues and random
        # superdiagonal couplings, so Jordan blocks of several sizes occur
        for _ in range(40):
            order = rng.choice([1, 2, 3, 4, 6])
            m = rng.randint(1, 4)
            eigen = [angle(rng.randrange(order), order) for _ in range(2)]
            phi = [[CycloElem.zero(order)] * m for _ in range(m)]
            for i in range(m):
                phi[i][i] = CycloElem.from_angle(order, rng.choice(eigen))
                for j in range(i + 1, m):
                    phi[i][j] = CycloElem.from_rational(order, rng.choice([0, 0, 1, -1, 2]))
            minimal = determinantal_factors(phi).minimal
            for xi in eigen + [angle(1, 5)]:
                value = CycloElem.from_angle(math.lcm(order, xi.den), xi)
                assert max_jordan_size(phi, xi) == division_multiplicity(minimal, value)


class TestCohomologyPresentation:
    def test_two_term_square(self):
        F = FreeComplex.make(R1L, (0, 1), {0: 1, 1: 1}, {0: [[parse_poly("t1^2", R1L)]]})
        pres = cohomology_presentation(F, 1)
        assert len(pres) == 1 and pres[0][0] == parse_poly("t1^2", R1L)

    def test_diag_presentation(self):
        ring = Ring(1, True, 3)
        h = parse_poly("t1^3-e(1/3)", ring)
        zero = LaurentPoly.zero(1, 3)
        F = FreeComplex.make(ring, (0, 1), {0: 2, 1: 2}, {0: [[h * h, zero], [zero, h]]})
        pres = cohomology_presentation(F, 1)
        b0 = fitting_generator(pres, 0).normalized(True)
        assert b0 == (h * h * h).normalized(True)

    @staticmethod
    def koszul():
        f, g = parse_poly("t1-1", R1L), parse_poly("t1^2-1", R1L)
        return FreeComplex.make(
            R1L,
            (0, 2),
            {0: 1, 1: 2, 2: 1},
            {0: [[f], [g]], 1: [[g, parse_poly("-1", R1L) * f]]},
        )

    def test_koszul_kernel_quotient(self):
        # brute-force oracle: the kernel of (g, -f) is spanned by (1, t+1)
        # and the image of (f, g)^T is (t-1) times it, so Fitt_0 = (t-1)
        pres = cohomology_presentation(self.koszul(), 1)
        assert fitting_generator(pres, 0).normalized(True) == parse_poly("t1-1", R1L)

    @pytest.mark.parametrize("entry", ["smith_diagonal", "cohomology_presentation"])
    def test_corrupt_kernel_column_of_v_raises(self, monkeypatch, entry):
        # the columns of V past the rank span the kernel of M, where D is
        # zero; U*M*V = D checks them too.  Both matrices have rank 1 and no
        # zero column: [[t, t^2], [t-1, t^2-t]] and d^1 = (g, -f) of koszul()
        import detloci.smith as smith_module

        t = P("t1")
        real = smith_module._pivot
        corrupted = []

        def corrupt(rows):
            d, u, v, order = real(rows)
            rank = sum(1 for i in range(min(len(d), len(v))) if d[i][i].rows)
            for row in v:
                for j in range(rank, len(row)):
                    row[j] = row[j] + u_dense(t, order)
                    corrupted.append(j)
            return d, u, v, order

        complex_ = self.koszul()
        monkeypatch.setattr(smith_module, "_pivot", corrupt)
        with pytest.raises(ArithmeticError, match="U\\*M\\*V != D"):
            if entry == "smith_diagonal":
                smith_diagonal([[t, t * t], [t - LaurentPoly.one(1), t * t - t]])
            else:
                cohomology_presentation(complex_, 1)
        assert corrupted

    @pytest.mark.parametrize("order", [1, 6, 12])
    def test_diagonal_of_positive_degree_invariants(self, rng, order):
        ring = Ring(1, True, order)
        for _ in range(8):
            F = random_torsion_complex(rng, ring)
            for i in range(F.imin - 1, F.imax + 2):
                pres = cohomology_presentation(F, i)
                size = len(pres)
                assert all(len(row) == size for row in pres)
                assert all(pres[j][k].is_zero() for j in range(size) for k in range(size) if j != k)
                diagonal = [pres[j][j] for j in range(size)]
                for entry in diagonal:
                    assert entry.monic() == entry
                    assert max(k for (k,) in entry.terms) >= 1
                for a, b in zip(diagonal, diagonal[1:]):
                    assert u_dense(b, a.order).divmod(u_dense(a, a.order))[1].is_zero()

    def test_nontorsion_named_degree(self):
        zero = LaurentPoly.zero(1)
        F = FreeComplex.make(R1L, (0, 1), {0: 1, 1: 1}, {0: [[zero]]})
        with pytest.raises(NonTorsionError) as info:
            cohomology_presentation(F, 1)
        assert info.value.degree == 0

    def test_annihilator_law(self, rng):
        for _ in range(15):
            t = LaurentPoly.variable(1, 0, 1, 6)
            eigen = [angle(0, 1), angle(1, 2), angle(1, 6)]
            factors = []
            planted = []
            for _ in range(rng.randint(1, 3)):
                lam_angle = rng.choice(eigen)
                lam = CycloElem.from_angle(6, lam_angle)
                power = rng.randint(1, 2)
                factors.append((t + LaurentPoly.constant(1, -lam)) ** power)
                planted.append(lam_angle)
            zero = LaurentPoly.zero(1, 6)
            size = len(factors)
            pres = matrix_make(
                [
                    [factors[i] if i == j else zero for j in range(size)]
                    for i in range(size)
                ]
            )
            ann = smith_diagonal(pres).diagonal[size - 1]
            # annihilates every cyclic summand: each diagonal entry divides ann
            for i in range(size):
                assert exact_divide(ann, factors[i].monic(), laurent=False) is not None
            # minimality: dropping any planted linear factor stops annihilating
            for lam_angle in set(planted):
                lam = CycloElem.from_angle(6, lam_angle)
                linear = t + LaurentPoly.constant(1, -lam)
                reduced = exact_divide(ann, linear, laurent=False)
                assert reduced is not None
                assert any(
                    exact_divide(reduced, f.monic(), laurent=False) is None
                    for f in factors
                )


class TestPidEquivalenceSample:
    def test_cdf_matches_fitting(self, rng):
        from detloci.complexes import cdf_ideal
        ring = Ring(1, True, 6)
        for _ in range(10):
            F = random_torsion_complex(rng, ring)
            for i in F.degrees():
                pres = cohomology_presentation(F, i)
                for k in range(0, 5):
                    lhs = principal_generator(cdf_ideal(F, i, k))
                    rhs = fitting_generator(pres, k).normalized(True)
                    assert lhs == rhs
                assert cdf_ideal(F, i, -1).is_zero()
                assert not cdf_ideal(F, i, 0).is_zero()


def count_smith_calls(monkeypatch) -> list:
    """Record every run of the shared pivoting core from here on."""
    import detloci.smith as smith_module

    calls = []
    real = smith_module._pivot

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(smith_module, "_pivot", counting)
    return calls


class TestOneSmithFormPerMatrix:
    def test_annihilator_from_one_form(self, monkeypatch):
        t = P("t1")
        zero = LaurentPoly.zero(1)
        pres = matrix_make([[t * t * P("t1-1"), zero], [zero, t]])
        b0, b1 = fitting_generator(pres, 0), fitting_generator(pres, 1)
        calls = count_smith_calls(monkeypatch)
        ann = smith_diagonal(pres).diagonal[1]
        assert len(calls) == 1
        assert ann == exact_divide(b0, b1, laurent=False) == P("t1^3-t1^2")

    def test_presentation_one_form_per_differential(self, monkeypatch, rng):
        ring = Ring(1, True, 6)
        for _ in range(10):
            F = random_torsion_complex(rng, ring)
            for i in F.degrees():
                expected = cohomology_presentation(F, i)
                calls = count_smith_calls(monkeypatch)
                assert cohomology_presentation(F, i) == expected
                nonempty = [
                    j
                    for j in range(F.imin - 1, F.imax + 1)
                    if F.rank(j) and F.rank(j + 1)
                ]
                assert len(calls) == len(nonempty)
                monkeypatch.undo()
