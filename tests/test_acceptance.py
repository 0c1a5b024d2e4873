"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a published fixture value or is
recomputed by an independent oracle inside the test.
"""

import itertools
import math
import random
from fractions import Fraction

from detloci.arith import CycloElem, TorsionAngle
from detloci.bsloci import (
    combine_bm,
    exp_divisors,
    exp_oblique_equal,
    oblique_part,
    polar_candidate_filter,
    slope_set,
    specialize_slice,
)
from detloci.complexes import (
    FreeComplex,
    cdf_ideal,
    euler_truncation,
    insert_trivial_summand,
    jump_ideal,
)
from detloci.fixtures import ex71_loci, ex72_loci
from detloci.poly import LaurentPoly, Ring, ideal_valuation, parse_poly
from detloci.smith import (
    cohomology_presentation,
    determinantal_factors,
    fitting_generator,
    principal_generator,
)
from detloci.support import specialization_multiplicity
from detloci.torus import AffineHyperplane, PrimeTorusDivisor

from conftest import (
    canon_gens,
    random_divisor,
    random_torsion_complex,
    random_torsion_point,
    random_two_term,
    shifted_piece,
)

R2 = Ring(2, True, 3)


def P(text: str, ring: Ring = R2) -> LaurentPoly:
    return parse_poly(text, ring)


def angle(num, den):
    return TorsionAngle.make(num, den)


def report(number: int, description: str):
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def test_criterion_01_first_example_exp_and_slopes():
    bf = ex71_loci()["bf"]
    expected = {
        PrimeTorusDivisor((1, 0), angle(1, 6)),
        PrimeTorusDivisor((1, 0), angle(5, 6)),
        PrimeTorusDivisor((1, 0), angle(0, 1)),
        PrimeTorusDivisor((0, 1), angle(0, 1)),
        PrimeTorusDivisor((1, 1), angle(1, 3)),
        PrimeTorusDivisor((1, 1), angle(2, 3)),
    }
    assert exp_divisors(bf) == expected
    assert slope_set(bf) == {(1, 0), (0, 1), (1, 1)}
    assert slope_set(oblique_part(bf)) == {(1, 1)}
    report(1, "first example Exp image, slopes, unique oblique slope")


def test_criterion_02_first_example_oblique_equalities():
    loci = ex71_loci()
    names = ["bf", "bfi", "be1", "be2"]
    for a, b in itertools.combinations(names, 2):
        assert exp_oblique_equal(loci[a], loci[b]), (a, b)
    report(2, "first example pairwise oblique Exp equalities")


def test_criterion_03_second_example_combine():
    loci = ex72_loci()
    expected_members = {AffineHyperplane((1, 0), 1), AffineHyperplane((0, 1), 1)}
    expected_members |= {AffineHyperplane((8, 0), k) for k in (5, 7, 9, 11)}
    expected_members |= {AffineHyperplane((4, 1), k) for k in range(3, 10)}
    for pi in ((1, 2), (2, 1)):
        combined = combine_bm({1: loci["be1"], 2: loci["be2"]}, (1, 1), pi)
        assert set(combined.members()) == expected_members
        assert exp_divisors(combined) == {
            PrimeTorusDivisor((1, 0), angle(0, 1)),
            PrimeTorusDivisor((0, 1), angle(0, 1)),
            PrimeTorusDivisor((1, 0), angle(1, 8)),
            PrimeTorusDivisor((1, 0), angle(3, 8)),
            PrimeTorusDivisor((1, 0), angle(5, 8)),
            PrimeTorusDivisor((1, 0), angle(7, 8)),
            PrimeTorusDivisor((4, 1), angle(0, 1)),
        }
        assert slope_set(oblique_part(combined)) == {(4, 1)}
    assert exp_divisors(oblique_part(loci["bfi"])) == {
        PrimeTorusDivisor((4, 1), angle(0, 1))
    }
    report(3, "second example combine under both permutations, Exp, oblique slope")


def _canonical(g) -> tuple:
    """The canonical form of a generator: its order, denominator and numerator rows."""
    return (g.order, g.den, frozenset(g.rows.items()))


def _keys(ideal) -> set:
    return {_canonical(g) for g in ideal.gens}


def _padded_cdf_expectation(F: FreeComplex, position: int, i: int, k: int) -> set:
    if i != position:
        return _keys(cdf_ideal(F, i, k))
    # inserting the identity summand pads the differential by a unit block,
    # whose minors expand into the two adjacent minor sizes of the original
    return _keys(cdf_ideal(F, i, k)) | _keys(cdf_ideal(F, i, k - 1))


def _padded_jump_expectation(F: FreeComplex, position: int, i: int, k: int) -> set:
    if i in (position - 1, position):
        return _keys(jump_ideal(F, i, k)) | _keys(jump_ideal(F, i, k - 1))
    return _keys(jump_ideal(F, i, k))


class _SemanticCache:
    """Memoized per-generator valuations and point values.

    The padded and original ideals share most generators, so valuation and
    evaluation work is keyed by the generator's canonical form; the library
    routines still do all the computing.
    """

    def __init__(self, ring: Ring):
        self.ring = ring
        self.valuations: dict = {}
        self.values: dict = {}

    def ideal_valuation(self, ideal, divisor, divisor_index):
        import math

        from detloci.poly import valuation_along

        if ideal.is_zero():
            return math.inf
        best = None
        for g in ideal.gens:
            key = (_canonical(g), divisor_index)
            v = self.valuations.get(key)
            if v is None:
                v = valuation_along(g, divisor)
                self.valuations[key] = v
            if best is None or v < best:
                best = v
            if best == 0:
                return 0
        return best

    def vanishes(self, ideal, point, point_index, order):
        for g in ideal.gens:
            key = (_canonical(g), point_index)
            v = self.values.get(key)
            if v is None:
                v = g.evaluate(point, order).is_zero()
                self.values[key] = v
            if not v:
                return False
        return True


def test_criterion_04_padding_invariance_200():
    rng = random.Random(41)
    for trial in range(200):
        F = random_two_term(rng, R2, max_rank=4)
        divisors = [random_divisor(rng, 2) for _ in range(20)]
        points = [random_torsion_point(rng, 2) for _ in range(50)]
        orders = [math.lcm(F.ring.cyclotomic_order, *(a.den for a in pt)) for pt in points]
        cache = _SemanticCache(F.ring)
        for position in range(F.imin, F.imax + 2):
            G = insert_trivial_summand(F, position)
            for i in range(F.imin - 1, F.imax + 2):
                for k in range(-1, 4):
                    padded = cdf_ideal(G, i, k)
                    base = cdf_ideal(F, i, k)
                    # (a) Laplace reduction: nested-minor generator identity
                    assert _keys(padded) == _padded_cdf_expectation(F, position, i, k)
                    jump_padded = jump_ideal(G, i, k)
                    jump_base = jump_ideal(F, i, k)
                    assert _keys(jump_padded) == _padded_jump_expectation(
                        F, position, i, k
                    )
                    # (b) valuations along 20 random binomial divisors
                    for index, C in enumerate(divisors):
                        assert cache.ideal_valuation(
                            base, C, index
                        ) == cache.ideal_valuation(padded, C, index)
                        assert cache.ideal_valuation(
                            jump_base, C, index
                        ) == cache.ideal_valuation(jump_padded, C, index)
                    # (c) vanishing at 50 random torsion points
                    for index, (pt, order) in enumerate(zip(points, orders)):
                        assert cache.vanishes(base, pt, index, order) == cache.vanishes(
                            padded, pt, index, order
                        )
                        assert cache.vanishes(
                            jump_base, pt, index, order
                        ) == cache.vanishes(jump_padded, pt, index, order)
    report(4, "padding invariance over 200 random complexes (all three checks)")


def test_criterion_05_pid_equivalence_100():
    rng = random.Random(52)
    ring = Ring(1, True, 6)
    for trial in range(100):
        F = random_torsion_complex(rng, ring)
        for i in F.degrees():
            presentation = cohomology_presentation(F, i)
            for k in range(0, 5):
                lhs = principal_generator(cdf_ideal(F, i, k))
                rhs = fitting_generator(presentation, k).normalized(True)
                assert lhs == rhs, (trial, i, k)
            assert cdf_ideal(F, i, -1).is_zero()
            assert not cdf_ideal(F, i, 0).is_zero()
    report(5, "PID equivalence of minors and Fitting data on 100 complexes")


def _integer_unimodular(rng: random.Random, size: int, order: int):
    one = CycloElem.one(order)
    zero = CycloElem.zero(order)
    p = [[one if i == j else zero for j in range(size)] for i in range(size)]
    p_inv = [[one if i == j else zero for j in range(size)] for i in range(size)]
    for _ in range(size + 2):
        a, b = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if a == b:
            continue
        q = CycloElem.from_rational(order, rng.choice([-2, -1, 1, 2]))
        for j in range(size):
            p[a][j] = p[a][j] + q * p[b][j]
        for i in range(size):
            p_inv[i][b] = p_inv[i][b] - q * p_inv[i][a]
    return p, p_inv


def _mat_mul_field(a, b, order):
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = CycloElem.zero(order)
            for k in range(mid):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def test_criterion_06_jordan_oracle_100():
    rng = random.Random(63)
    orders = [1, 2, 3, 4, 6, 8, 12]
    for trial in range(100):
        order = rng.choice(orders)
        n_eigen = min(rng.randint(1, 2), order)
        available = [angle(num, order) for num in range(order)]
        eigenvalues = rng.sample(available, n_eigen)
        size = 0
        blocks = []
        max_block = {}
        while size < 5:
            lam = rng.choice(eigenvalues)
            block = rng.randint(1, min(3, 5 - size))
            blocks.append((lam, block))
            max_block[lam] = max(max_block.get(lam, 0), block)
            size += block
            if rng.random() < 0.4:
                break
        one, zero = CycloElem.one(order), CycloElem.zero(order)
        jordan = [[zero for _ in range(size)] for _ in range(size)]
        pos = 0
        for lam, block in blocks:
            value = CycloElem.from_angle(order, lam)
            for offset in range(block):
                jordan[pos + offset][pos + offset] = value
                if offset + 1 < block:
                    jordan[pos + offset][pos + offset + 1] = one
            pos += block
        p, p_inv = _integer_unimodular(rng, size, order)
        phi = _mat_mul_field(_mat_mul_field(p, jordan, order), p_inv, order)
        factors = determinantal_factors(phi)
        minimal = factors.minimal
        expected = LaurentPoly.one(1, order)
        t = LaurentPoly.variable(1, 0, 1, order)
        for lam, m in sorted(max_block.items(), key=lambda kv: kv[0].as_fraction()):
            value = CycloElem.from_angle(order, lam)
            expected = expected * (t + LaurentPoly.constant(1, -value)) ** m
        assert minimal == expected, trial
    report(6, "determinantal-factor quotient matches planted Jordan data, 100 matrices")


def test_criterion_07_specialization_multiplicity_50():
    rng = random.Random(74)
    ring = Ring(2, True, 6)
    pool = [
        PrimeTorusDivisor((1, 1), angle(1, 3)),
        PrimeTorusDivisor((1, 0), angle(1, 2)),
        PrimeTorusDivisor((0, 1), angle(0, 1)),
        PrimeTorusDivisor((1, 2), angle(1, 2)),
    ]
    from detloci.complexes import direct_sum

    from conftest import conjugate_complex

    for trial in range(50):
        chosen = rng.sample(pool, rng.randint(1, 3))
        planted: dict[tuple[int, PrimeTorusDivisor], int] = {}
        pieces = []
        for divisor in chosen:
            degree = rng.choice([1, 2])
            power = rng.randint(1, 2)
            binom = LaurentPoly.binomial_divisor(2, divisor, 6)
            pieces.append(shifted_piece(ring, binom**power, degree))
            key = (degree, divisor)
            planted[key] = max(planted.get(key, 0), power)
        E = pieces[0]
        for piece in pieces[1:]:
            E = direct_sum(E, piece)
        E = conjugate_complex(rng, E)
        for (degree, divisor), power in planted.items():
            record = specialization_multiplicity(
                E, divisor, degree, candidates=chosen
            )
            assert record.generic
            assert record.ord == planted[(degree, divisor)]
            assert record.ord == record.jordan, (trial, degree, str(divisor))
    # constructed collision: a point on two candidate divisors at once
    ring2 = Ring(2, True, 2)
    shared = parse_poly("t1+1", ring2) * parse_poly("t2+1", ring2)
    E = FreeComplex.make(ring2, (0, 1), {0: 1, 1: 1}, {0: [[shared]]})
    c1 = PrimeTorusDivisor((1, 0), angle(1, 2))
    record = specialization_multiplicity(E, c1, 1, point=(angle(1, 2), (1, 1)))
    assert not record.generic
    assert record.ord == 1 and record.jordan == 2
    report(7, "divisor order equals Jordan size at generic points, 50 complexes")


def test_criterion_08_refinement_identity_koszul():
    f, g = P("t1-1"), P("t2-1")
    F = FreeComplex.make(
        R2,
        (0, 2),
        {0: 1, 1: 2, 2: 1},
        {0: [[f], [g]], 1: [[g, P("-1") * f]]},
    )
    expected = [f * f, f * g, g * g]
    assert canon_gens(R2, jump_ideal(F, 1, 1).gens) == canon_gens(R2, expected)
    planted = [
        PrimeTorusDivisor((1, 0), angle(0, 1)),
        PrimeTorusDivisor((0, 1), angle(0, 1)),
    ]
    for C in planted:
        for i in (1, 2):
            rank = F.rank(i)
            r_i = euler_truncation(F, i)
            for j in range(0, rank + 2):
                size = rank - j + 1
                vals = []
                for a in range(0, max(size, 0) + 1):
                    k = r_i - a
                    l = j - 1 - k
                    vals.append(
                        ideal_valuation(cdf_ideal(F, i, k), C)
                        + ideal_valuation(cdf_ideal(F, i + 1, l), C)
                    )
                assert ideal_valuation(jump_ideal(F, i, j), C) == min(vals)
    report(8, "jump generators and valuation min-convolution on the Koszul fixture")


def test_criterion_09_slice_arithmetic():
    bf = ex71_loci()["bf"]
    collided = specialize_slice(bf, (1, 1))
    at_minus_one = [e for e in collided if e["pole"] == Fraction(-1)]
    assert len(at_minus_one) == 1
    assert at_minus_one[0]["order_sum"] == 2
    assert not at_minus_one[0]["generic"]
    spread = specialize_slice(bf, (1, 2))
    assert {e["pole"] for e in spread} == {
        Fraction(-5, 6),
        Fraction(-1),
        Fraction(-7, 6),
        Fraction(-1, 2),
        Fraction(-4, 9),
        Fraction(-5, 9),
        Fraction(-7, 9),
        Fraction(-8, 9),
    }
    assert len(spread) == 8
    assert all(e["generic"] and e["order_sum"] == 1 for e in spread)
    report(9, "slice arithmetic: collision at -1 for b=(1,1), eight generic poles for b=(1,2)")


def test_criterion_10_box_filter():
    bf = ex71_loci()["bf"]
    assert polar_candidate_filter(AffineHyperplane((3, 3), 10), bf) == {"m": 1, "k": 1}
    assert polar_candidate_filter(AffineHyperplane((3, 3), 4), bf) == {"m": 0, "k": 0}
    assert polar_candidate_filter(AffineHyperplane((3, 3), 1), bf) == {
        "m": 0,
        "k": None,
    }
    report(10, "box filter accepts the shifted and member hyperplanes, rejects the stray")
