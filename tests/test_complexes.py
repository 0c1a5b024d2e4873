import collections
import itertools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detloci.complexes import (
    FreeComplex,
    MinorEngine,
    _point_on,
    _unit_block,
    base_change,
    cdf_ideal,
    differential_minors,
    direct_sum,
    euler_truncation,
    insert_trivial_summand,
    jump_ideal,
    lists_minors,
    matrix_make,
    matrix_shape,
    minors_ideal,
)
from detloci.arith import CycloElem, TorsionAngle, prime_root_of_unity
from detloci.poly import IdealGens, LaurentPoly, Ring, ideal_valuation, parse_poly, valuation_along
from detloci.torus import PrimeTorusDivisor

from conftest import (
    SMALL_ANGLES,
    alternating_cohomology_sum,
    canon_gens,
    cohomology_dims_at_point,
    conjugate_complex,
    matrix_mul,
    oracle_det,
    oracle_minor_gens,
    oracle_vanishes_at,
    random_binomial,
    random_binomial_product,
    random_divisor,
    random_torsion_complex,
    random_torsion_point,
    random_two_term,
    random_unimodular_ops,
    record_results,
    two_term_complex,
)

R2 = Ring(2, True, 3)


def P(text: str, ring: Ring = R2) -> LaurentPoly:
    return parse_poly(text, ring)


def h_poly() -> LaurentPoly:
    return P("t1*t2-e(1/3)")


def koszul_complex() -> FreeComplex:
    f, g = P("t1-1"), P("t2-1")
    return FreeComplex.make(
        R2,
        (0, 2),
        {0: 1, 1: 2, 2: 1},
        {0: [[f], [g]], 1: [[g, P("-1") * f]]},
    )


class TestConstruction:
    def test_composition_zero_rejected(self):
        f, g = P("t1-1"), P("t2-1")
        with pytest.raises(ValueError, match="compose"):
            FreeComplex.make(
                R2,
                (0, 2),
                {0: 1, 1: 2, 2: 1},
                {0: [[f], [g]], 1: [[f, g]]},
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            FreeComplex.make(R2, (0, 1), {0: 2, 1: 1}, {0: [[P("t1")]]})

    @pytest.mark.parametrize(
        "rows, shape", [([["t1", "0"], ["0"]], (2, 1)), ([["t1", "0"], ["0", "1", "t1"]], (2, 3))]
    )
    def test_ragged_rows_rejected(self, rows, shape):
        # the first row has the right width, a later one does not
        ring = Ring(1, True)
        diff = [[parse_poly(entry, ring) for entry in row] for row in rows]
        message = f"differential at degree 0 has shape {shape}, expected (2, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            FreeComplex.make(ring, (0, 1), {0: 2, 1: 2}, {0: diff})

    def test_minor_cache_outside_equality_and_repr(self):
        F, G = koszul_complex(), koszul_complex()
        jump_ideal(F, 1, 1)
        assert F.minor_cache and not G.minor_cache
        assert F == G
        assert repr(F) == repr(G) and "minor_cache" not in repr(F)


def product_is_zero(left, right, ring: Ring) -> bool:
    """left*right == 0 by the schoolbook product of the oracle."""
    prod = matrix_mul(left, right, LaurentPoly.zero(ring.nvars))
    return all(e.is_zero() for row in prod for e in row)


COMPOSE_MESSAGE = "differentials at degrees 0 and 1 do not compose to zero"


class TestCompositionCheck:
    """The fused check of d^(i+1) d^i = 0 against the schoolbook product."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conjugated_complexes_accepted(self, seed):
        F = random_torsion_complex(random.Random(seed), R2, max_pieces=3)
        for i in range(F.imin, F.imax - 1):
            assert product_is_zero(F.differential(i + 1), F.differential(i), R2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_one_perturbed_entry_refused(self, seed):
        rng = random.Random(seed)
        F = conjugate_complex(rng, koszul_complex())
        d0 = [list(row) for row in F.differential(0)]
        d1 = F.differential(1)
        # a row of d^0 whose column of d^1 is nonzero carries the change into the product
        r = rng.choice([k for k in range(2) if not d1[0][k].is_zero()])
        d0[r][0] = d0[r][0] + random_binomial(rng, R2)
        assert not product_is_zero(d1, d0, R2)
        with pytest.raises(ValueError, match=COMPOSE_MESSAGE):
            FreeComplex.make(R2, (0, 2), dict(F.ranks), {0: d0, 1: d1})

    def test_products_cancel_only_in_their_sum(self):
        # 1 + e(1/3) + e(2/3) = 0, and no one of the three products is zero
        ring = Ring(1, True, 3)
        d1 = [[parse_poly("1", ring)] * 3]
        d0 = [[parse_poly(x, ring)] for x in ("t1", "e(1/3)*t1", "e(2/3)*t1")]
        FreeComplex.make(ring, (0, 2), {0: 1, 1: 3, 2: 1}, {0: d0, 1: d1})
        assert product_is_zero(d1, d0, ring)
        d0[2] = [parse_poly("e(1/3)*t1", ring)]
        with pytest.raises(ValueError, match=COMPOSE_MESSAGE):
            FreeComplex.make(ring, (0, 2), {0: 1, 1: 3, 2: 1}, {0: d0, 1: d1})


class TestEulerTruncation:
    def test_examples(self):
        F = two_term_complex(R2, [[P("t1")]])
        assert euler_truncation(F, 1) == 1
        G = koszul_complex()
        assert euler_truncation(G, 1) == 2 - 1
        assert euler_truncation(G, 0) == 1 - 2 + 1


class TestMinorsIdeal:
    def test_diag_example(self):
        h = h_poly()
        zero = LaurentPoly.zero(2, 3)
        mat = ((h * h, zero), (zero, h))
        ideal = minors_ideal(mat, 1, R2)
        assert canon_gens(R2, ideal.gens) == canon_gens(R2, [h, h * h])
        det = minors_ideal(mat, 2, R2)
        assert canon_gens(R2, det.gens) == canon_gens(R2, [h * h * h])
        assert minors_ideal(mat, 0, R2).contains_one()
        assert minors_ideal(mat, 3, R2).is_zero()

    def test_against_permutation_oracle(self, rng):
        for _ in range(15):
            F = random_two_term(rng, R2, max_rank=3)
            mat = F.differential(F.imin)
            rows = len(mat)
            cols = len(mat[0]) if mat else 0
            for m in range(1, min(rows, cols) + 1):
                expected = oracle_minor_gens([list(r) for r in mat], m, R2)
                got = minors_ideal(mat, m, R2)
                assert canon_gens(R2, got.gens) == canon_gens(R2, expected)

    def test_engine_minors_of_sparse_order_12_matrices(self, rng):
        """Every minor of a sparse 4x4 matrix over Q(zeta_12), zero rows,
        columns and proportional rows included, against the permutation sum."""
        ring = Ring(2, True, 12)

        def entry():
            terms = {
                (rng.randint(-1, 2), rng.randint(-1, 2)): CycloElem(
                    12, [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)]
                )
                for _ in range(rng.randint(1, 3))
            }
            return LaurentPoly.make(2, 12, terms)

        zero = LaurentPoly.zero(2, 12)
        shared = cancelled = 0
        for _ in range(12):
            mat = [[entry() if rng.random() < 0.45 else zero for _ in range(4)] for _ in range(4)]
            if rng.random() < 0.5:
                a, b = rng.sample(range(4), 2)
                c = entry()
                mat[b] = [c * x for x in mat[a]]
            engine = MinorEngine(matrix_make(mat), 2, 12)
            for m in range(1, 5):
                for rows in itertools.combinations(range(4), m):
                    for cols in itertools.combinations(range(4), m):
                        got = engine.det(rows, cols)
                        want = oracle_det([[mat[i][j] for j in cols] for i in rows], ring)
                        assert got == want
                        assert got.order == want.order
                        assert got.is_zero() == want.is_zero()
                        shared += m > 1 and got is engine.zero
                        cancelled += got.is_zero() and got is not engine.zero and m > 1
        # both kinds of zero minor occurred: no nonzero cofactor pair, and cancellation
        assert shared and cancelled

    def test_size_guard(self):
        zero = LaurentPoly.zero(2, 3)
        big = tuple(tuple(zero for _ in range(13)) for _ in range(13))
        with pytest.raises(ValueError, match="12x12"):
            minors_ideal(big, 1, R2)


class TestCdfIdeal:
    def test_shifted_module_case(self):
        h = h_poly()
        F = two_term_complex(R2, [[h]])
        assert canon_gens(R2, cdf_ideal(F, 1, 0).gens) == canon_gens(R2, [h])
        assert cdf_ideal(F, 1, 1).contains_one()
        assert cdf_ideal(F, 1, -1).is_zero()

    def test_koszul(self):
        F = koszul_complex()
        fg = [P("t1-1"), P("t2-1")]
        assert canon_gens(R2, cdf_ideal(F, 1, 0).gens) == canon_gens(R2, fg)
        assert canon_gens(R2, cdf_ideal(F, 2, 0).gens) == canon_gens(R2, fg)


class TestJumpIdeal:
    def test_koszul_square(self):
        F = koszul_complex()
        f, g = P("t1-1"), P("t2-1")
        expected = [f * f, f * g, g * g]
        assert canon_gens(R2, jump_ideal(F, 1, 1).gens) == canon_gens(R2, expected)

    def test_two_term(self):
        h = h_poly()
        F = two_term_complex(R2, [[h]])
        assert canon_gens(R2, jump_ideal(F, 1, 1).gens) == canon_gens(R2, [h])

    def test_unit_convention(self):
        F = koszul_complex()
        assert jump_ideal(F, 1, 4).contains_one()


def block_sum(F: FreeComplex, i: int):
    """diag(d^{i-1}, d^i) written out entry by entry, zero blocks included."""
    zero = LaurentPoly.zero(F.ring.nvars, F.ring.cyclotomic_order)
    left, right = F.rank(i - 1), F.rank(i)
    rows = [list(row) + [zero] * right for row in F.differential(i - 1)]
    rows += [[zero] * left + list(row) for row in F.differential(i)]
    return matrix_make(rows)


def random_koszul(rng) -> FreeComplex:
    f, g = (random_binomial(rng, R2) * random_binomial(rng, R2) for _ in range(2))
    return FreeComplex.make(
        R2, (0, 2), {0: 1, 1: 2, 2: 1}, {0: [[f], [g]], 1: [[g, P("-1") * f]]}
    )


def random_adjacent_sum(rng) -> FreeComplex:
    """Two random two-term complexes in degrees (0, 1) and (1, 2), summed."""
    pieces = []
    for low in (0, 1):
        piece = random_two_term(rng, R2, max_rank=2)
        mat = piece.differential(piece.imin)
        pieces.append(two_term_complex(R2, [list(row) for row in mat], low=low))
    return direct_sum(*pieces)


def block_test_complexes(rng) -> list[FreeComplex]:
    out = [random_koszul(rng) for _ in range(4)]
    out += [random_adjacent_sum(rng) for _ in range(5)]
    out += [conjugate_complex(rng, random_adjacent_sum(rng)) for _ in range(3)]
    f = random_binomial(rng, R2)
    # rank 0 after a nonzero degree, and in the middle of the range
    out.append(FreeComplex.make(R2, (0, 2), {0: 1, 1: 2, 2: 0}, {0: [[f], [P("-1") * f]]}))
    out.append(FreeComplex.make(R2, (0, 2), {0: 2, 1: 0, 2: 2}, {}))
    return out


class TestJumpAgainstBlockSum:
    def test_every_degree_and_size(self, rng):
        for F in block_test_complexes(rng):
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, F.rank(i) + 3):
                    expected = minors_ideal(block_sum(F, i), F.rank(i) - k + 1, F.ring)
                    assert jump_ideal(F, i, k) == expected

    def test_size_guard_per_differential(self):
        # each block is 7x7, within the limit, so the 14x14 block sum is not
        # refused; the one nonzero block-minor product is det(d^0) = h^7
        h = h_poly()
        zero = LaurentPoly.zero(2, 3)

        def diag(n):
            return [[h if r == c else zero for c in range(n)] for r in range(n)]

        det = IdealGens.make(R2, [h**7])
        F = FreeComplex.make(R2, (0, 2), {0: 7, 1: 7, 2: 7}, {0: diag(7)})
        assert jump_ideal(F, 1, 1) == det
        assert jump_ideal(F, 1, 8).contains_one()
        assert jump_ideal(F, 1, -7).is_zero()
        # a block without rows still brings its columns: 7 x 14, same product
        top = FreeComplex.make(R2, (0, 1), {0: 7, 1: 7}, {0: diag(7)})
        assert jump_ideal(top, 1, 1) == det
        # a differential beyond the limit is still refused once enumerated
        big = FreeComplex.make(R2, (0, 1), {0: 13, 1: 13}, {0: diag(13)})
        with pytest.raises(ValueError, match="exceeds the 12x12 minor enumeration limit"):
            jump_ideal(big, 1, 1)
        assert jump_ideal(big, 1, 14).contains_one()
        assert jump_ideal(big, 1, -13).is_zero()


class TestJumpFromBlockMinors:
    @staticmethod
    def fixed_complex() -> FreeComplex:
        h = h_poly()
        upper = two_term_complex(R2, [[h, P("t1")], [P("0"), h * h]], low=1)
        return direct_sum(koszul_complex(), upper)

    def test_det_calls_and_engines(self, monkeypatch):
        built, calls = [], []
        init, det = MinorEngine.__init__, MinorEngine.det

        def counting_init(self, mat, nvars, order):
            built.append(mat)
            init(self, mat, nvars, order)

        def counting_det(self, rows, cols):
            calls.append(len(rows))
            return det(self, rows, cols)

        monkeypatch.setattr(MinorEngine, "__init__", counting_init)
        monkeypatch.setattr(MinorEngine, "det", counting_det)

        F = self.fixed_complex()
        degrees = range(F.imin - 1, F.imax + 2)
        divisors = TestJumpValuationByParts.divisors()

        def value_jumps(complex_):
            for i in degrees:
                for k in range(-1, complex_.rank(i) + 3):
                    for C in divisors:
                        ideal_valuation(jump_ideal(complex_, i, k), C)

        value_jumps(F)
        assert calls
        diffs = [F.differential(j) for j in range(F.imin - 2, F.imax + 2)]
        assert all(any(mat == d for d in diffs) for mat in built)

        # valuing expands no more minors than enumerating every minor of
        # every differential does
        G = self.fixed_complex()
        for j in range(G.imin - 2, G.imax + 2):
            for size in range(1, max(G.rank(j), G.rank(j + 1)) + 1):
                differential_minors(G, j, size).gens
        assert 0 < expanded_minors(F) <= expanded_minors(G)
        # and once valued, building and valuing again expands none
        calls.clear()
        value_jumps(F)
        assert not calls


def expanded_minors(F: FreeComplex) -> int:
    """Minors expanded (or read off as entries) by the engines of F so far."""
    return sum(len(engine._memo) for key, engine in F.minor_cache.items() if key[0] == "engine")


def multiplied_out_jump(F: FreeComplex, i: int, k: int) -> IdealGens:
    """The jump ideal as every product of block minors, canonicalised at once."""
    ra, ca = matrix_shape(F.differential(i - 1), F.rank(i - 1))
    rb, cb = matrix_shape(F.differential(i), F.rank(i))
    size = F.rank(i) - k + 1
    if size <= 0:
        return IdealGens.unit_ideal(F.ring)
    if size > min(ra + rb, ca + cb):
        return IdealGens.zero_ideal(F.ring)
    products = [
        f * g
        for a in range(size + 1)
        for f in minors_ideal(F.differential(i - 1), a, F.ring).gens
        for g in minors_ideal(F.differential(i), size - a, F.ring).gens
    ]
    return IdealGens.make(F.ring, products)


def value_all(F: FreeComplex, divisors) -> None:
    """Value every cdf and jump ideal of F along every divisor, twice over."""
    for _ in range(2):
        for C in divisors:
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, F.rank(i) + 3):
                    ideal_valuation(cdf_ideal(F, i, k), C)
                    ideal_valuation(jump_ideal(F, i, k), C)


# every divisor that random_divisor(rng, 2) can draw, so every planted one
SMALL_DIVISORS = [
    PrimeTorusDivisor(u, xi)
    for u in [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)]
    for xi in SMALL_ANGLES
]


class TestJumpValuationByParts:
    @pytest.mark.parametrize("order", [1, 6, 12])
    def test_min_plus_matches_multiplied_out_ideal(self, rng, order):
        ring = Ring(2, True, order)
        positive = 0
        for _ in range(8):
            F = random_torsion_complex(rng, ring)
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, F.rank(i) + 3):
                    ideal = jump_ideal(F, i, k)
                    expected = multiplied_out_jump(F, i, k)
                    for C in SMALL_DIVISORS:
                        want = min(
                            (valuation_along(g, C) for g in expected.gens), default=math.inf
                        )
                        assert ideal_valuation(ideal, C) == want
                        positive += 0 < want < math.inf
                    # read after valuing, so the valuation ran on the parts
                    assert ideal == expected
                    assert ideal.ring == expected.ring
        assert positive >= 10

    @staticmethod
    def divisors() -> list[PrimeTorusDivisor]:
        return [
            PrimeTorusDivisor((1, 1), TorsionAngle.make(1, 3)),
            PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1)),
            PrimeTorusDivisor((0, 1), TorsionAngle.make(0, 1)),
            PrimeTorusDivisor((1, 0), TorsionAngle.make(1, 2)),
        ]

    def test_valuing_jump_ideals_forms_no_products(self, monkeypatch):
        import detloci.complexes as complexes_module
        import detloci.poly as poly_module

        products = []
        real = poly_module.sum_of_products

        def counting(nvars, order, signed_pairs):
            products.append(1)
            return real(nvars, order, signed_pairs)

        # the kernel as a minor expansion calls it and as LaurentPoly.__mul__ does
        monkeypatch.setattr(complexes_module, "sum_of_products", counting)
        monkeypatch.setattr(poly_module, "sum_of_products", counting)
        # every product is one minor expansion with a nonzero cofactor pair,
        # none of a block product
        F = TestJumpFromBlockMinors.fixed_complex()
        products.clear()
        value_all(F, self.divisors())
        engines = [e for key, e in F.minor_cache.items() if key[0] == "engine"]
        expansions = sum(
            len(rows) > 1 and minor is not e.zero for e in engines for (rows, _), minor in e._memo.items()
        )
        assert len(products) == expansions > 0
        # so valuing, once every minor is enumerated, forms no product at all
        G = TestJumpFromBlockMinors.fixed_complex()
        for j in range(G.imin - 2, G.imax + 2):
            for size in range(1, max(G.rank(j), G.rank(j + 1)) + 1):
                differential_minors(G, j, size).gens
        products.clear()
        value_all(G, self.divisors())
        assert not products

    def test_only_entries_and_minors_are_valued(self, monkeypatch):
        import detloci.complexes as complexes_module
        import detloci.poly as poly_module

        calls = []
        real = poly_module.valuation_along

        def recording(f, divisor, cap=None):
            calls.append((f, divisor))
            return real(f, divisor, cap=cap)

        monkeypatch.setattr(poly_module, "valuation_along", recording)
        monkeypatch.setattr(complexes_module, "valuation_along", recording)
        F = TestJumpFromBlockMinors.fixed_complex()
        value_all(F, self.divisors())
        engines = [e for key, e in F.minor_cache.items() if key[0] == "engine"]
        held = {id(minor) for e in engines for minor in e._memo.values()}
        held |= {id(entry) for e in engines for row in e.mat for entry in row}
        assert calls
        # only entries and minors are valued, never a formed generator or a
        # block product; the 1 of a unit ideal (size <= 0) is the empty minor,
        # held by no engine
        assert all(id(f) in held or f.is_one() for f, _ in calls)
        # and a second valuation values nothing
        calls.clear()
        value_all(F, self.divisors())
        assert not calls

    def test_divisor_of_another_torus_rejected(self):
        # a jump ideal held as its parts, zero since d^0 is the zero map
        F = FreeComplex.make(R2, (0, 1), {0: 1, 1: 1}, {})
        ideal = jump_ideal(F, 1, 1)
        C = PrimeTorusDivisor((1, 0, 0), TorsionAngle.make(0, 1))
        with pytest.raises(ValueError, match="different torus"):
            ideal_valuation(ideal, C)
        assert ideal_valuation(ideal, PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))) == math.inf
        assert ideal.is_zero()


class TestValuingBeforeForming:
    @pytest.mark.parametrize("laurent", [True, False])
    @pytest.mark.parametrize("order", [1, 3, 12])
    def test_same_valuations_and_generators(self, rng, monkeypatch, order, laurent):
        ring = Ring(2, laurent, order)
        made = []
        make = IdealGens.make

        def counting(ring, gens):
            made.append(1)
            return make(ring, gens)

        monkeypatch.setattr(IdealGens, "make", staticmethod(counting))
        positive = 0
        for _ in range(6):
            made.clear()
            F = random_torsion_complex(rng, ring)
            ideals = {
                (j, size): differential_minors(F, j, size)
                for j in range(F.imin - 1, F.imax + 1)
                for size in range(0, 5)
            }
            valued = {
                (key, C): ideal_valuation(ideal, C)
                for key, ideal in ideals.items()
                for C in SMALL_DIVISORS
            }
            # valuing canonicalises nothing, not even the unit ideals
            assert not made
            for (j, size), ideal in ideals.items():
                mat = [list(row) for row in F.differential(j)]
                expected = make(F.ring, oracle_minor_gens(mat, size, F.ring))
                for C in SMALL_DIVISORS:
                    want = min((valuation_along(g, C) for g in expected.gens), default=math.inf)
                    assert valued[(j, size), C] == want
                    positive += 0 < want < math.inf
                assert ideal == expected
                assert ideal.ring == expected.ring
        assert positive >= 10


# every direction and root that random_binomial can draw, some of them twice
VALUATION_DIVISORS = [
    PrimeTorusDivisor(u, TorsionAngle.make(*a))
    for u, a in [
        ((1, 0), (0, 1)),
        ((1, 0), (1, 2)),
        ((0, 1), (1, 3)),
        ((1, 1), (0, 1)),
        ((1, 1), (2, 3)),
        ((1, 2), (1, 2)),
        ((2, 1), (1, 3)),
    ]
]
MINOR_KINDS = ["random", "cancellation", "deficient", "zero block", "conjugated", "dense conjugated"]
# the engine values the sizes with at least as many minors as entries: size 2
# from 3 x 3 on and size 3 of 4 x 4; the others are listed
MINOR_SHAPES = [(1, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)]


@st.composite
def planted_minor_matrices(draw):
    """(ring, matrix): a matrix of at most 4 x 4 products of binomials over
    Q(zeta_N), N in 1, 4, 6, 12, with a planted structure: two rows p and
    p + (t^u - xi) q (minors cancel down to a multiple of t^u - xi), a row
    proportional to another, a zero block, or U diag((t^u - xi)^a) V with
    unimodular U and V (entries of weight 0, minors of positive valuation),
    from 4 elementary operations a side or, densely, from 2 * size."""
    order = draw(st.sampled_from([1, 4, 6, 12]))
    ring = Ring(2, True, order)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(MINOR_KINDS))
    nrows, ncols = draw(st.sampled_from(MINOR_SHAPES))
    zero = LaurentPoly.zero(2, order)

    def entry():
        root = CycloElem.from_angle(order, TorsionAngle.make(rng.randrange(order), order))
        return random_binomial_product(rng, ring) * LaurentPoly.constant(2, root)

    mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    h = LaurentPoly.binomial_divisor(2, rng.choice(VALUATION_DIVISORS), order)
    if kind == "cancellation" and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        mat[j] = [p + h * entry() for p in mat[i]]
    elif kind == "deficient" and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        c = entry()
        mat[j] = [c * p for p in mat[i]]
    elif kind == "zero block":
        for i in rng.sample(range(nrows), rng.randint(1, nrows)):
            for j in rng.sample(range(ncols), rng.randint(1, ncols)):
                mat[i][j] = zero
    elif kind.endswith("conjugated"):
        dense = kind == "dense conjugated"
        diag = [[h ** rng.randint(0, 2) if i == j else zero for j in range(ncols)] for i in range(nrows)]
        left, _ = random_unimodular_ops(rng, nrows, ring, n_ops=2 * nrows if dense else 4)
        _, right = random_unimodular_ops(rng, ncols, ring, n_ops=2 * ncols if dense else 4)
        mat = matrix_mul(matrix_mul(left, diag, zero), right, zero)
    return ring, [list(row) for row in mat]


def check_against_enumeration(
    ring: Ring, mat, sizes, divisors=VALUATION_DIVISORS
) -> list[list[int | float]]:
    """Every minor ideal of mat, built and valued in the order of sizes along
    each of the divisors, against the valuations of all its minors; returns
    the values by size, then divisor.  Along each divisor, a listed size values one polynomial
    that is not an entry without a cap, and an engine size m adds the levels
    1..m-1 of its elimination, each of which values one such polynomial
    without a cap; so every other valuation is capped."""
    import detloci.complexes as complexes_module
    import detloci.poly as poly_module

    real = poly_module.valuation_along
    calls = []

    def recording(f, divisor, cap=None):
        calls.append((f, cap))
        return real(f, divisor, cap=cap)

    F = two_term_complex(ring, mat)
    mat = [list(row) for row in F.differential(0)]
    entries = {id(e) for row in mat for e in row}
    uncapped = collections.Counter()
    listed = collections.Counter()
    levels = collections.Counter()
    values = []
    try:
        complexes_module.valuation_along = poly_module.valuation_along = recording
        for m in sizes:
            ideal = differential_minors(F, 0, m)
            gens = oracle_minor_gens(mat, m, F.ring) if m > 0 else [LaurentPoly.one(ring.nvars, ring.cyclotomic_order)]
            nonzero = [g for g in gens if not g.is_zero()]
            assert ideal.is_zero() == (not nonzero)
            values.append([])
            for C in divisors:
                calls.clear()
                got = ideal_valuation(ideal, C)
                uncapped[C] += sum(cap is None and id(f) not in entries for f, cap in calls)
                if ideal.minors and not lists_minors(*matrix_shape(mat), m):
                    levels[C] = max(levels[C], m - 1)
                else:
                    listed[C] += 1
                assert uncapped[C] <= listed[C] + levels[C], (m, str(C))
                calls.clear()
                want = min((real(g, C) for g in nonzero), default=math.inf)
                assert got == want, (m, str(C))
                values[-1].append(got)
            assert ideal == IdealGens.make(F.ring, gens)
            assert ideal.ring == IdealGens.make(F.ring, gens).ring
    finally:
        complexes_module.valuation_along = poly_module.valuation_along = real
    return values


class TestTropicalValuation:
    """Minor ideals valued by one local elimination per divisor, against the
    valuations of every minor."""

    @given(planted_minor_matrices(), st.sampled_from(["descending", "ascending", "shuffled"]))
    @settings(max_examples=60, deadline=None)
    def test_against_enumeration(self, case, visit):
        ring, mat = case
        sizes = list(range(0, min(len(mat), len(mat[0])) + 2))
        if visit == "descending":
            sizes.reverse()
        elif visit == "shuffled":
            random.Random(len(mat) * 7 + len(mat[0])).shuffle(sizes)
        check_against_enumeration(ring, mat, sizes)

    @pytest.mark.parametrize("order", [1, 4, 6, 12])
    def test_planted_cancellation_falls_back(self, order):
        """M = a b^T + (t1 + 1) N is of rank 1 modulo t1 + 1, so every 2 x 2
        minor vanishes along it although no entry does: its local Smith
        exponents are 0, 1, 1, and I_2, I_3, I_1 have valuations 1, 2, 0."""
        ring = Ring(2, True, order)
        h = parse_poly("t1+1", ring)
        a = [parse_poly(t, ring) for t in ("t2-2", "3", "t1*t2+1")]
        b = [parse_poly(t, ring) for t in ("1", "t2+3", "2*t1-5")]
        n = [[parse_poly(t, ring) for t in row] for row in
             (("1", "t2", "-2"), ("t1", "3", "t2-1"), ("2", "-t1", "1"))]
        mat = [[a[i] * b[j] + h * n[i][j] for j in range(3)] for i in range(3)]
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(1, 2))
        assert {valuation_along(e, C) for row in mat for e in row} == {0}
        values = check_against_enumeration(ring, mat, [2, 3, 1])
        assert [row[VALUATION_DIVISORS.index(C)] for row in values] == [1, 2, 0]

    def test_level_ends_at_the_last_exponent_above_the_block(self):
        """M = h N, h = t1 + 1, with N[{0,1,2}, {0,1,2}] = h: the local Smith
        exponents are 1, 1, 1, 2.  The pivots (0, 0) and (1, 1) come first, and
        the first minor that borders them, on rows and columns 0-2, has
        valuation 4 = 2 (s_1 + s_2), while the one on columns 0, 1, 3 has 3 =
        s_1 + s_2 + s_2, so only the latter may end the level."""
        ring = Ring(2, True, 1)
        h = parse_poly("t1+1", ring)
        n = [[parse_poly(t, ring) for t in row] for row in
             (("1", "0", "0", "0"), ("0", "1", "0", "0"), ("0", "0", "t1+1", "1"), ("0", "0", "0", "1"))]
        mat = [[h * e for e in row] for row in n]
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(1, 2))
        values = check_against_enumeration(ring, mat, [3, 2, 4, 1])
        assert [row[VALUATION_DIVISORS.index(C)] for row in values] == [3, 2, 5, 1]

    def test_seeded_divisor_weighs_no_entry(self, monkeypatch):
        """Every size of one differential shares its elimination along a divisor,
        seeded with the block that the modular rank certifies: three of four
        rows vanish on {t1 = 1}, so the rank there is 1, the zero level is
        seeded, and no entry is weighed; each bordered minor is weighed at most
        once, and I_2 and I_3 vanish to orders 1 and 2."""
        base = [["t2+2", "3", "t1+t2", "t2-5"], ["1", "t1*t2+1", "t2", "-2"],
                ["t1+2", "t2^2", "5", "t1-t2"], ["t2+1", "2*t1", "t2-3", "7"]]
        h = P("t1-1")
        mat = [[P(t) * h if i < 3 else P(t) for t in row] for i, row in enumerate(base)]
        F = two_term_complex(R2, mat)
        calls = []
        record_results(monkeypatch, "valuation_along", calls)
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))
        values = [ideal_valuation(differential_minors(F, 0, m), C) for m in (2, 3)]
        engine = F.minor_cache[("engine", 0)]
        rows, cols, sums = engine._eliminations[C]
        assert (rows[:1], sums[:2]) == ([3], [0, 0])
        entries = {id(e) for row in F.differential(0) for e in row}
        weighed = collections.Counter(id(f) for f, _ in calls)
        assert values == [1, 2]
        assert weighed and not entries & set(weighed)
        assert set(weighed.values()) == {1}


# per torus dimension, divisors with angle denominators that divide the field
# order and ones that do not, and supports with no entry 1 (Euclid's steps)
CERTIFICATE_DIVISORS = {
    r: [PrimeTorusDivisor(u, TorsionAngle.make(*a)) for u, a in divisors]
    for r, divisors in {
        1: [((1,), (0, 1)), ((1,), (1, 2)), ((1,), (1, 3)), ((1,), (1, 4)), ((1,), (5, 6))],
        2: [((1, 0), (0, 1)), ((0, 1), (1, 3)), ((1, 1), (1, 2)), ((1, 2), (1, 4)), ((2, 3), (1, 6))],
        3: [((1, 0, 0), (0, 1)), ((0, 1, 1), (1, 2)), ((1, 1, 1), (1, 3)), ((2, 1, 0), (1, 4)),
            ((2, 3, 5), (5, 6))],
    }.items()
}
CERTIFICATE_KINDS = ["planted", "dense conjugated", "rank deficient"]


@st.composite
def certificate_matrices(draw):
    """(ring, matrix, divisors): over r = 1, 2 or 3 variables and Q(zeta_N), N
    in 1..12, U diag(d_1, ...) V with unimodular U and V (3 elementary
    operations a side, or densely size + 2), each d_i a rational q times a
    root of unity times h_1^a h_2^b, a <= 2 and b <= 1, for the binomials h_1
    and h_2 of two of
    the divisors; rank deficient puts zeros on the diagonal, so that the
    largest minors all vanish.  The denominators of q, 1 to 4, give the
    entries of the product different denominators.  The divisors are those two and a third, not
    planted.  Three variables take at most 12 entries: the oracle's
    permutation sums over term-by-term products grow quickly there."""
    r = draw(st.sampled_from([1, 2, 3]))
    order = draw(st.integers(1, 12))
    ring = Ring(r, True, order)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(CERTIFICATE_KINDS))
    nrows, ncols = draw(st.sampled_from([s for s in MINOR_SHAPES if r < 3 or s[0] * s[1] <= 12]))
    divisors = rng.sample(CERTIFICATE_DIVISORS[r], 3)
    zero = LaurentPoly.zero(r, order)
    planted = [LaurentPoly.binomial_divisor(r, d, order) for d in divisors[:2]]

    def diagonal_entry(i):
        if kind == "rank deficient" and i >= min(nrows, ncols) - rng.randint(1, 2):
            return zero
        root = CycloElem.from_angle(order, TorsionAngle.make(rng.randrange(order), order))
        out = LaurentPoly.constant(r, root.scale(Fraction(rng.randint(1, 4), rng.randint(1, 4))))
        for h, top in zip(planted, (2, 1)):
            out = out * h ** rng.randint(0, top)
        return out

    diag = [[diagonal_entry(i) if i == j else zero for j in range(ncols)] for i in range(nrows)]
    n_ops = max(nrows, ncols) + 2 if kind == "dense conjugated" else 3
    left, _ = random_unimodular_ops(rng, nrows, ring, n_ops=n_ops)
    _, right = random_unimodular_ops(rng, ncols, ring, n_ops=n_ops)
    mat = matrix_mul(matrix_mul(left, diag, zero), right, zero)
    return ring, [list(row) for row in mat], divisors


class TestModularCertificate:
    """The block that one modular rank at a point of a divisor certifies to be
    a unit there, and the eliminations it seeds."""

    @given(certificate_matrices())
    @settings(max_examples=50, deadline=None)
    def test_against_enumeration(self, case):
        ring, mat, divisors = case
        sizes = list(range(0, min(len(mat), len(mat[0])) + 2))
        random.Random(len(mat) * 7 + len(mat[0])).shuffle(sizes)
        values = check_against_enumeration(ring, mat, sizes, divisors)
        F = two_term_complex(ring, mat)
        order = F.ring.cyclotomic_order
        mat = [list(row) for row in F.differential(0)]
        for k, C in enumerate(divisors):
            # the block is a unit along C, so no larger than the zero levels
            rows, cols = _unit_block(matrix_make(mat), order, C)
            zeros = max(m for m, row in zip(sizes, values) if row[k] == 0)
            assert len(rows) == len(cols) <= zeros
            if rows:
                block = [[mat[i][j] for j in cols] for i in rows]
                assert valuation_along(oracle_det(block, F.ring), C) == 0

    def test_degenerate_point_falls_back(self):
        """Rows 0 and 1 of M carry h = t1 - 1, and row 3 is row 2 plus
        (t2 - y) e_2, so M has rank 2 along {t1 = 1}; but the certificate's
        point of that divisor is (1, y), where M has rank 1.  The block is
        smaller, the elimination computes the second zero level, and the
        values equal those of every minor."""
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))
        p, _ = prime_root_of_unity(R2.cyclotomic_order)
        y = _point_on(C.u, 1, p)[1]
        h = P("t1-1")
        rows = [["t2+2", "3", "t1+t2", "1"], ["1", "t1*t2+1", "t2", "-2"],
                ["1", "t2", "0", "2"], ["1", "t2", f"t2-{y}", "2"]]
        mat = [[P(t) * h if i < 2 else P(t) for t in row] for i, row in enumerate(rows)]
        assert len(_unit_block(matrix_make(mat), 3, C)[0]) == 1
        values = check_against_enumeration(R2, mat, [2, 3, 4, 1], [C])
        assert values == [[0], [1], [2], [0]]
        F = two_term_complex(R2, mat)
        assert ideal_valuation(differential_minors(F, 0, 2), C) == 0
        block_rows, _, sums = F.minor_cache[("engine", 0)]._eliminations[C]
        assert (len(block_rows), sums) == (2, [0, 0, 0])

    @pytest.mark.parametrize(
        "h, divisor",
        [
            # a rational binomial with the root e(1/4): L = 12, and each zeta_3
            # of the entries maps to w^4
            ("t1^2+1", ((1, 0), (1, 4))),
            # xi = e(1/3) and the zeta_3 of the entries map to the same power of w
            ("t1*t2-e(1/3)", ((1, 1), (1, 3))),
        ],
    )
    def test_images_of_the_roots_of_unity(self, h, divisor):
        """M = a b^T + h N over Q(zeta_3) is of rank 1 along D: its block is
        one row and one column, and I_2, I_3 and I_1 have valuations 1, 2, 0."""
        C = PrimeTorusDivisor(divisor[0], TorsionAngle.make(*divisor[1]))
        h = P(h)
        a = [P(t) for t in ("t2-2*e(1/3)", "3", "e(2/3)*t1*t2+1")]
        b = [P(t) for t in ("1", "t2+3*e(1/3)", "2*t1-5")]
        n = [[P(t) for t in row] for row in
             (("1", "e(1/3)*t2", "-2"), ("t1", "3", "t2-1"), ("2", "-t1", "e(2/3)"))]
        mat = [[a[i] * b[j] + h * n[i][j] for j in range(3)] for i in range(3)]
        assert len(_unit_block(matrix_make(mat), 3, C)[0]) == 1
        assert check_against_enumeration(R2, mat, [2, 3, 1], [C]) == [[1], [2], [0]]

    def test_entry_denominators_enter_the_point_values(self):
        """det M[{0, 1}, {0, 1}] = (t1 + t2 + 2) - 2 (t2/2 + 3/2) = t1 - 1 and the
        other 2 x 2 minors are 0, so I_2 has valuation 1 along {t1 = 1}.  Read
        without its denominator, t2/2 + 3/2 would be t2 + 3 and that minor
        t1 - t2 - 4, nonzero at the point, so a 2 x 2 block would be
        certified and I_2 valued 0."""
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(0, 1))
        mat = [[P(t) for t in row] for row in
               (("1", "1/2*t2+3/2", "0"), ("2", "t1+t2+2", "0"), ("0", "0", "0"))]
        assert len(_unit_block(matrix_make(mat), 3, C)[0]) == 1
        assert MinorEngine(matrix_make(mat), 2, 3).valuation(2, C) == 1
        assert check_against_enumeration(R2, mat, [2, 1], [C]) == [[1], [0]]

    def test_denominator_of_the_prime_gives_no_block(self):
        """M = a b^T + h N is of rank 1 along h = t1 + 1, with one entry of N
        over the certificate's prime p: reduced modulo p, that entry would
        vanish along h where M's does not, so no block is certified, and the
        values are the elimination's, equal to those of every minor."""
        C = PrimeTorusDivisor((1, 0), TorsionAngle.make(1, 2))
        p, _ = prime_root_of_unity(6)
        h = P("t1+1")
        a = [P(t) for t in ("t2-2", "3", "t1*t2+1")]
        b = [P(t) for t in ("1", "t2+3", "2*t1-5")]
        n = [[P(t) for t in row] for row in
             ((f"1/{p}", "t2", "-2"), ("t1", "3", "t2-1"), ("2", "-t1", "1"))]
        mat = [[a[i] * b[j] + h * n[i][j] for j in range(3)] for i in range(3)]
        assert mat[0][0].den % p == 0
        assert _unit_block(matrix_make(mat), 3, C) == ([], [])
        values = check_against_enumeration(R2, mat, [2, 3, 1], [C])
        assert values == [[1], [2], [0]]

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(1, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_point_lies_on_the_divisor(self, u, order, data):
        g = math.gcd(*u)
        assume(g)
        u = tuple(x // g for x in u)
        p, w = prime_root_of_unity(order)
        eta = pow(w, data.draw(st.integers(0, order - 1)), p)
        x = _point_on(u, eta, p)
        assert all(0 < xj < p for xj in x)
        assert math.prod(pow(xj, uj, p) for xj, uj in zip(x, u)) % p == eta


class TestMinorValuationCliff:
    def test_dense_ten_by_ten_within_ten_seconds(self):
        """I_1..I_10 of a dense 10 x 10 matrix of linear entries along 5
        divisors, in a child process under a 10 s wall-clock cap; enumerating
        the 63,504 minors of size 5 alone took 28.8 s.  Three rows carry
        t1 - 1 and two t2 + 1, so I_m vanishes to orders m - 7 and m - 8."""
        child = (
            "import random\n"
            "from detloci.arith import TorsionAngle\n"
            "from detloci.complexes import FreeComplex, differential_minors\n"
            "from detloci.poly import Ring, ideal_valuation, parse_poly\n"
            "from detloci.torus import PrimeTorusDivisor\n"
            "rng = random.Random(1)\n"
            "ring = Ring(2, True, 1)\n"
            "def entry():\n"
            "    a, b, c = (rng.randint(-3, 3) for _ in range(3))\n"
            "    return parse_poly(f'{a}+{b}*t1+{c}*t2', ring)\n"
            "rows = [parse_poly('t1-1', ring)] * 3 + [parse_poly('t2+1', ring)] * 2 + [None] * 5\n"
            "mat = [[entry() if p is None else entry() * p for _ in range(10)] for p in rows]\n"
            "F = FreeComplex.make(ring, (0, 1), {0: 10, 1: 10}, {0: mat})\n"
            "divisors = [PrimeTorusDivisor(u, TorsionAngle.make(*a)) for u, a in\n"
            "            [((1, 0), (0, 1)), ((0, 1), (1, 2)), ((1, 1), (0, 1)), ((1, 1), (1, 3)), ((1, 2), (1, 2))]]\n"
            "for m in range(1, 11):\n"
            "    print(*[ideal_valuation(differential_minors(F, 0, m), d) for d in divisors])\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=10
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        want = [f"{max(0, m - 7)} {max(0, m - 8)} 0 0 0" for m in range(1, 11)]
        assert proc.stdout.splitlines() == want


# blocks without rows or columns beside each other and beside nonzero blocks
def degenerate_complexes(rng) -> list[FreeComplex]:
    f, g = random_binomial(rng, R2), random_binomial(rng, R2)
    return [
        FreeComplex.make(R2, (0, 2), {0: 0, 1: 2, 2: 0}, {}),
        FreeComplex.make(R2, (0, 2), {0: 3, 1: 0, 2: 2}, {}),
        FreeComplex.make(R2, (0, 2), {0: 2, 1: 2, 2: 0}, {0: [[f, g], [g * g, f * g]]}),
        FreeComplex.make(R2, (0, 2), {0: 0, 1: 2, 2: 2}, {1: [[f, P("0")], [g, f * f]]}),
        FreeComplex.make(R2, (0, 1), {0: 2, 1: 0}, {}),
    ]


class TestJumpPruning:
    def test_degenerate_shapes_match_multiplied_out(self, rng):
        for F in degenerate_complexes(rng):
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, F.rank(i) + 3):
                    ideal = jump_ideal(F, i, k)
                    expected = multiplied_out_jump(F, i, k)
                    for C in SMALL_DIVISORS:
                        want = min((valuation_along(g, C) for g in expected.gens), default=math.inf)
                        assert ideal_valuation(ideal, C) == want
                    assert ideal == expected
                    assert ideal.ring == expected.ring

    def test_empty_pair_range_gives_zero_ideal(self):
        # a 2x0 block beside a 0x2 block: the 2x2 block sum is not too small
        # for size 2, but no split of 2 fits both blocks
        F = FreeComplex.make(R2, (0, 2), {0: 0, 1: 2, 2: 0}, {})
        ideal = jump_ideal(F, 1, 1)
        assert ideal.parts == ()
        for C in SMALL_DIVISORS:
            assert ideal_valuation(ideal, C) == math.inf
        assert ideal.is_zero()
        # no minor ideal of either block was asked for
        assert not any(key[0] == "ideal" for key in F.minor_cache)
        # so a 13x1 block beside a 0x13 block is not refused at size 2
        h = h_poly()
        tall = FreeComplex.make(R2, (0, 2), {0: 1, 1: 13, 2: 0}, {0: [[h]] * 13})
        assert jump_ideal(tall, 1, 12).is_zero()
        with pytest.raises(ValueError, match="exceeds the 12x12 minor enumeration limit"):
            jump_ideal(tall, 1, 13)

    def test_only_sizes_that_fit_their_block(self, rng):
        for F in block_test_complexes(rng) + degenerate_complexes(rng):
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, F.rank(i) + 3):
                    jump_ideal(F, i, k)
            for key in F.minor_cache:
                if key[0] == "ideal":
                    _, j, size = key
                    assert size <= min(matrix_shape(F.differential(j), F.rank(j)))


class TestBaseChange:
    def test_entry_substitution(self):
        h = h_poly()
        F = two_term_complex(R2, [[h]])
        G = base_change(F, (1, 2))
        assert G.differential(0)[0][0] == parse_poly("t1^3-e(1/3)", Ring(1, True, 3))
        G2 = base_change(F, (1, 1))
        assert G2.differential(0)[0][0] == parse_poly("t1^2-e(1/3)", Ring(1, True, 3))

    def test_diag_substitution(self):
        h = h_poly()
        zero = LaurentPoly.zero(2, 3)
        F = FreeComplex.make(R2, (0, 1), {0: 2, 1: 2}, {0: [[h * h, zero], [zero, h]]})
        G = base_change(F, (1, 2))
        hb = parse_poly("t1^3-e(1/3)", Ring(1, True, 3))
        assert G.differential(0)[0][0] == hb * hb
        assert G.differential(0)[1][1] == hb

    def test_degenerate_rejected(self):
        F = two_term_complex(R2, [[h_poly()]])
        with pytest.raises(ValueError, match="degenerate"):
            base_change(F, (1, 0))

    def test_commutes_with_cdf(self, rng):
        ring1 = Ring(1, True, 3)
        for _ in range(10):
            F = random_two_term(rng, R2, max_rank=3)
            b = tuple(rng.randint(1, 3) for _ in range(2))
            G = base_change(F, b)
            for i in range(F.imin, F.imax + 2):
                for k in (-1, 0, 1, 2):
                    direct = cdf_ideal(G, i, k)
                    mapped = [g.substitute_powers(b) for g in cdf_ideal(F, i, k).gens]
                    assert canon_gens(ring1, direct.gens) == canon_gens(ring1, mapped)


def padded_cdf_expectation(F: FreeComplex, position: int, i: int, k: int) -> list:
    """Nested-minors identity: the padded ideal is spanned by the two
    adjacent minor sizes of the original differential."""
    if i != position:
        return canon_gens(F.ring, cdf_ideal(F, i, k).gens)
    size = euler_truncation(F, i) - k
    lower = minors_ideal(F.differential(i - 1), size, F.ring).gens
    upper = minors_ideal(F.differential(i - 1), size + 1, F.ring).gens
    return canon_gens(F.ring, list(lower) + list(upper))


class TestPaddingInvariance:
    def test_structural_identity_sample(self, rng):
        for _ in range(10):
            F = random_two_term(rng, R2, max_rank=3)
            for position in range(F.imin, F.imax + 2):
                G = insert_trivial_summand(F, position)
                for i in range(F.imin - 1, F.imax + 2):
                    for k in range(-1, 4):
                        got = canon_gens(F.ring, cdf_ideal(G, i, k).gens)
                        assert got == padded_cdf_expectation(F, position, i, k)

    def test_valuation_and_points_sample(self, rng):
        for _ in range(5):
            F = random_two_term(rng, R2, max_rank=3)
            G = insert_trivial_summand(F, F.imin + 1)
            divisors = [random_divisor(rng, 2) for _ in range(5)]
            points = [random_torsion_point(rng, 2) for _ in range(5)]
            for i in range(F.imin, F.imax + 1):
                for k in range(0, 3):
                    a = cdf_ideal(F, i, k)
                    b = cdf_ideal(G, i, k)
                    for C in divisors:
                        assert ideal_valuation(a, C) == ideal_valuation(b, C)
                    for pt in points:
                        assert oracle_vanishes_at(a, pt) == oracle_vanishes_at(b, pt)
                    ja, jb = jump_ideal(F, i, k), jump_ideal(G, i, k)
                    for C in divisors:
                        assert ideal_valuation(ja, C) == ideal_valuation(jb, C)
                    for pt in points:
                        assert oracle_vanishes_at(ja, pt) == oracle_vanishes_at(jb, pt)


class TestPointwiseCriterion:
    def test_koszul_dims_at_points(self):
        # the Koszul complex of (t1-1, t2-1) is exact off the point (1, 1)
        F = koszul_complex()
        zero, third, half = TorsionAngle.make(0, 1), TorsionAngle.make(1, 3), TorsionAngle.make(1, 2)
        assert cohomology_dims_at_point(F, (zero, zero)) == {0: 1, 1: 2, 2: 1}
        assert cohomology_dims_at_point(F, (third, half)) == {0: 0, 1: 0, 2: 0}
        assert cohomology_dims_at_point(F, (zero, half)) == {0: 0, 1: 0, 2: 0}

    def test_vanishing_iff_alternating_sum(self, rng):
        for _ in range(12):
            F = random_two_term(rng, R2, max_rank=3)
            for _ in range(6):
                pt = random_torsion_point(rng, 2)
                for i in range(F.imin, F.imax + 1):
                    for k in (-1, 0, 1, 2):
                        ideal = cdf_ideal(F, i, k)
                        vanishes = (not ideal.contains_one()) and oracle_vanishes_at(ideal, pt)
                        jumped = alternating_cohomology_sum(F, pt, i) >= k + 1
                        assert vanishes == jumped


class TestRefinementIdentity:
    def test_generator_sets_and_valuations(self, rng):
        # block minors of size M split as an a x (M-a) product, which matches
        # the k + l = j - 1 convolution through a = r_i - k
        for _ in range(10):
            F = random_two_term(rng, R2, max_rank=3)
            divisors = [random_divisor(rng, 2) for _ in range(4)]
            for i in range(F.imin, F.imax + 1):
                rank = F.rank(i)
                r_i = euler_truncation(F, i)
                for j in range(0, rank + 2):
                    size = rank - j + 1
                    left = jump_ideal(F, i, j)
                    products = []
                    pair_vals: dict = {}
                    for a in range(0, max(size, 0) + 1):
                        k = r_i - a
                        l = j - 1 - k
                        ideal_a = cdf_ideal(F, i, k)
                        ideal_b = cdf_ideal(F, i + 1, l)
                        products.extend(x * y for x in ideal_a.gens for y in ideal_b.gens)
                        if divisors:
                            pair_vals[(k, l)] = (ideal_a, ideal_b)
                    assert canon_gens(F.ring, left.gens) == canon_gens(F.ring, products)
                    for C in divisors:
                        vals = [
                            ideal_valuation(a, C) + ideal_valuation(b, C)
                            for a, b in pair_vals.values()
                        ]
                        assert ideal_valuation(left, C) == min(vals)
