import collections
import itertools
import math
from fractions import Fraction

import pytest

from detloci.complexes import (
    FreeComplex,
    MinorEngine,
    base_change,
    cdf_ideal,
    differential_minors,
    direct_sum,
    euler_truncation,
    insert_trivial_summand,
    jump_ideal,
    matrix_make,
    matrix_shape,
    minors_ideal,
)
from detloci.arith import CycloElem, TorsionAngle
from detloci.poly import IdealGens, LaurentPoly, Ring, ideal_valuation, parse_poly, valuation_along
from detloci.smith import alternating_cohomology_sum, cohomology_dims_at_point
from detloci.torus import PrimeTorusDivisor

from conftest import (
    SMALL_ANGLES,
    canon_gens,
    conjugate_complex,
    oracle_det,
    oracle_minor_gens,
    oracle_vanishes_at,
    random_binomial,
    random_divisor,
    random_torsion_complex,
    random_torsion_point,
    random_two_term,
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

    def test_minor_cache_outside_equality_and_repr(self):
        F, G = koszul_complex(), koszul_complex()
        jump_ideal(F, 1, 1)
        assert F.minor_cache and not G.minor_cache
        assert F == G
        assert repr(F) == repr(G) and "minor_cache" not in repr(F)


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
        for i in degrees:
            for k in range(-1, F.rank(i) + 3):
                jump_ideal(F, i, k)
        jump_calls = len(calls)
        diffs = [F.differential(j) for j in range(F.imin - 2, F.imax + 2)]
        assert all(any(mat == d for d in diffs) for mat in built)

        # the same count as enumerating every minor of every differential once,
        # and no more once those minors are cached
        G = self.fixed_complex()
        calls.clear()
        for j in range(G.imin - 2, G.imax + 2):
            for size in range(1, max(G.rank(j), G.rank(j + 1)) + 1):
                differential_minors(G, j, size)
        assert len(calls) == jump_calls > 0
        calls.clear()
        for i in degrees:
            for k in range(-1, G.rank(i) + 3):
                jump_ideal(G, i, k)
        assert not calls


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
        # every product is one of the minor expansions, none of a block product
        G = TestJumpFromBlockMinors.fixed_complex()
        products.clear()
        for j in range(G.imin - 2, G.imax + 2):
            for size in range(1, max(G.rank(j), G.rank(j + 1)) + 1):
                differential_minors(G, j, size)
        expansions = len(products)
        F = TestJumpFromBlockMinors.fixed_complex()
        products.clear()
        value_all(F, self.divisors())
        assert len(products) == expansions > 0
        products.clear()
        value_all(G, self.divisors())
        assert not products

    def test_valuation_along_once_per_minor_generator(self, monkeypatch):
        import detloci.poly as poly_module

        calls = []
        real = poly_module.valuation_along

        def recording(f, divisor):
            calls.append((f, divisor))
            return real(f, divisor)

        monkeypatch.setattr(poly_module, "valuation_along", recording)
        F = TestJumpFromBlockMinors.fixed_complex()
        value_all(F, self.divisors())
        # every minor as an engine expanded it; an entry shared by d^0 and d^1
        # is one polynomial held as two 1x1 minors
        held = collections.Counter(
            id(minor)
            for key, engine in F.minor_cache.items()
            if key[0] == "engine"
            for minor in engine._memo.values()
        )
        valued = collections.Counter((id(f), divisor) for f, divisor in calls)
        assert calls
        # only minors are valued, never a formed generator or a block product;
        # the 1 of a unit ideal (size <= 0) is the empty minor, held by no engine
        assert all(id(f) in held or f.is_one() for f, _ in calls)
        # and each minor at most once per divisor
        assert all(n <= max(held[f], 1) for (f, _), n in valued.items())

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
