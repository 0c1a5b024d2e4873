import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detloci.arith import TorsionAngle
from detloci import complexes
from detloci.complexes import (
    FreeComplex,
    NonTorsionError,
    base_change,
    cdf_ideal,
    direct_sum,
    jump_ideal,
    matrix_shape,
)
from detloci.arith import root_multiplicity
from detloci.poly import LaurentPoly, Ring, fibres, ideal_valuation, parse_poly
from detloci.smith import cohomology_presentation, smith_normal_form
from detloci.support import (
    _generic_points,
    _minimal_order,
    candidate_divisors,
    point_on_divisor,
    specialization_multiplicity,
    support_report,
)
from detloci.torus import PrimeTorusDivisor, tau_preimage

from conftest import (
    conjugate_complex,
    exact_divide,
    oracle_minor_gens,
    oracle_valuation,
    random_divisor,
    random_torsion_complex,
    record_results,
    shifted_piece,
    torsion_sum,
)

R2 = Ring(2, True, 3)


def P(text: str, ring: Ring = R2) -> LaurentPoly:
    return parse_poly(text, ring)


def angle(num, den):
    return TorsionAngle.make(num, den)


def divisors_in(r: int):
    """Prime torus divisors with u in [0, 3]^r and xi of order at most 8."""
    u = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    xi = st.integers(1, 8).flatmap(
        lambda den: st.integers(0, den - 1).map(lambda n: angle(n, den))
    )
    return st.builds(
        lambda u, xi: PrimeTorusDivisor(tuple(x // math.gcd(*u) for x in u), xi), u, xi
    )


T1_ONE = PrimeTorusDivisor((1, 0), angle(0, 1))
BLOCKED_T2 = [
    PrimeTorusDivisor((0, 1), angle(n, den))
    for den in range(1, 9)
    for n in range(den)
    if math.gcd(n, den) == 1
]


def diag_complex(entries, ring=R2) -> FreeComplex:
    n = len(entries)
    zero = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    mat = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
    return FreeComplex.make(ring, (0, 1), {0: n, 1: n}, {0: mat})


H_DIVISOR = PrimeTorusDivisor((1, 1), angle(1, 3))


class TestCandidateDivisors:
    def test_single_binomial(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        assert candidate_divisors(E) == [H_DIVISOR]

    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        assert candidate_divisors(E) == [H_DIVISOR]

    def test_unit_differential(self):
        E = diag_complex([LaurentPoly.one(2, 3)])
        assert candidate_divisors(E) == []

    def test_non_torsion_named(self):
        E = diag_complex([LaurentPoly.zero(2, 3)])
        with pytest.raises(NonTorsionError) as info:
            candidate_divisors(E)
        # H^0 = H^1 = R: the lowest is named
        assert info.value.degree == 0

    def test_multiple_planted(self):
        E = diag_complex([P("t1-1") * P("t2-1"), P("t1*t2-e(1/3)")])
        got = candidate_divisors(E)
        assert set(got) == {
            PrimeTorusDivisor((1, 0), angle(0, 1)),
            PrimeTorusDivisor((0, 1), angle(0, 1)),
            H_DIVISOR,
        }


def _primitive_vectors(r: int, bound: int) -> list[tuple[int, ...]]:
    return [u for u in itertools.product(range(bound + 1), repeat=r) if math.gcd(*u) == 1]


def _angles_up_to(max_den: int) -> list[TorsionAngle]:
    return [
        TorsionAngle(num, den)
        for den in range(1, max_den + 1)
        for num in range(den)
        if math.gcd(num, den) == 1
    ]


def oracle_candidates(E: FreeComplex, bound: int) -> list[PrimeTorusDivisor]:
    """Every (u, xi) of the search grid whose binomial divides every top minor
    of some degree.

    Decided by trial division of each generator by t^u - xi, pair by pair; a
    zero top ideal is refused, since every binomial would divide it.
    """
    tops = []
    for i in E.degrees():
        ideal = cdf_ideal(E, i, 0)
        if ideal.is_zero():
            raise NonTorsionError(i)
        if not ideal.contains_one():
            tops.append(ideal.gens)
    # the largest term degree of an entry once its monomial unit is cleared
    max_degree = max(
        [1]
        + [
            max(sum(x) for x in e.clear_units().terms)
            for mat in E.diffs.values()
            for row in mat
            for e in row
            if not e.is_zero()
        ]
    )
    found = [
        PrimeTorusDivisor(u, xi)
        for u in _primitive_vectors(E.ring.nvars, bound)
        for xi in _angles_up_to(bound * max_degree)
        if any(
            all(oracle_valuation(g, PrimeTorusDivisor(u, xi)) > 0 for g in gens)
            for gens in tops
        )
    ]
    return sorted(found, key=lambda d: d.sort_key())


class TestCandidatesAgainstTrialDivision:
    @pytest.mark.parametrize("r,bound,seed", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 4)])
    def test_random_planted(self, r, bound, seed):
        rng = random.Random(seed)
        ring = Ring(r, True, 6)
        for _ in range(3):
            E = random_torsion_complex(rng, ring, max_pieces=2, degrees=(0, 1))
            assert candidate_divisors(E) == oracle_candidates(E, bound)

    def test_cyclotomic_factor_gives_two_angles(self):
        E = diag_complex([P("t1^2+t1+1") * P("t2-1")])
        got = candidate_divisors(E)
        assert got == oracle_candidates(E, 2)
        assert [(d.u, str(d.xi)) for d in got] == [
            ((0, 1), "0/1"),
            ((1, 0), "1/3"),
            ((1, 0), "2/3"),
        ]

    def test_single_term_fibre_skips_direction(self):
        # along (0, 1) the t1^2 part of (t1-1)(t1+t2) is a lone monomial
        g = P("t1-1") * P("t1+t2")
        assert min(len(f) for f in fibres(g, (0, 1))) == 1
        E = diag_complex([g])
        got = candidate_divisors(E)
        assert got == oracle_candidates(E, 3)
        assert got == [PrimeTorusDivisor((1, 0), angle(0, 1))]

    def test_every_fibre_must_vanish(self):
        # along (1, 0) the fibre t1-1 vanishes at 1, the fibre t1^2+t1+1 does not
        g = P("t1-1+t1^2*t2+t1*t2+t2")
        smallest = fibres(g, (1, 0))[0]
        assert root_multiplicity(g.order, smallest, angle(0, 1), 1) == 1
        E = diag_complex([g])
        got = candidate_divisors(E)
        assert got == oracle_candidates(E, 2)
        assert PrimeTorusDivisor((1, 0), angle(0, 1)) not in got

    def test_angle_at_denominator_edge(self):
        # t1^2+1 has degree 2, so the bound-2 grid reaches denominator 4; the
        # bound-1 grid stops at 2, the search with no grid does not
        E = diag_complex([P("t1^2+1", Ring(2, True, 1))], Ring(2, True, 1))
        edge = [
            PrimeTorusDivisor((1, 0), angle(1, 4)),
            PrimeTorusDivisor((1, 0), angle(3, 4)),
        ]
        assert candidate_divisors(E) == oracle_candidates(E, 2) == edge
        assert oracle_candidates(E, 1) == [] and candidate_divisors(E) == edge


def koszul_complex(ring: Ring, gens: list[LaurentPoly]) -> FreeComplex:
    """The Koszul complex of two or three elements; its top minors include them."""
    zero = LaurentPoly.zero(ring.nvars, ring.cyclotomic_order)
    if len(gens) == 2:
        a, b = gens
        return FreeComplex.make(
            ring, (0, 2), {0: 1, 1: 2, 2: 1}, {0: [[a], [b]], 1: [[b, -a]]}
        )
    a, b, c = gens
    cross = [[zero, -c, b], [c, zero, -a], [-b, a, zero]]
    return FreeComplex.make(
        ring,
        (0, 3),
        {0: 1, 1: 3, 2: 3, 3: 1},
        {0: [[a], [b], [c]], 1: cross, 2: [[a, b, c]]},
    )


class TestSeveralTopGenerators:
    def test_shared_binomial_factor(self):
        h = P("t1*t2-e(1/3)")
        E = koszul_complex(R2, [h * P("t1-1"), h * P("t2")])
        assert len(cdf_ideal(E, 1, 0).gens) == 2
        assert candidate_divisors(E) == oracle_candidates(E, 3) == [H_DIVISOR]

    def test_planted_binomial_against_trial_division(self, rng):
        from conftest import random_binomial_product, random_divisor

        ring = Ring(2, True, 3)
        for _ in range(25):
            divisor = random_divisor(rng, 2)
            planted = LaurentPoly.binomial_divisor(2, divisor, 3)
            gens = []
            for _ in range(rng.randint(2, 3)):
                extra = random_binomial_product(rng, ring)
                if extra.is_zero():
                    extra = LaurentPoly.one(2, 3)
                gens.append(planted * extra)
            E = koszul_complex(ring, gens)
            got = candidate_divisors(E)
            assert got == oracle_candidates(E, 2)
            assert divisor in got

    def test_zero_top_ideal_refused_by_both(self):
        E = diag_complex([LaurentPoly.zero(2, 3)])
        with pytest.raises(NonTorsionError):
            oracle_candidates(E, 2)
        with pytest.raises(NonTorsionError):
            candidate_divisors(E)


class TestNonTorsionRefusal:
    def test_lowest_zero_top_degree_named_by_all(self):
        # ranks 1, 1, 1, 1 and d = (0, h, 0): the top-minor ideals of degrees
        # 1 and 3 are I_1(0) = 0, those of degrees 0 and 2 are the unit ideal;
        # but H^0 = ker 0 = R is the lowest cohomology that is not torsion,
        # and H^1 = R/(h) is torsion
        h = P("t1*t2-e(1/3)")
        zero = LaurentPoly.zero(2, 3)
        E = FreeComplex.make(
            R2, (0, 3), {i: 1 for i in range(4)}, {0: [[zero]], 1: [[h]], 2: [[zero]]}
        )
        assert [cdf_ideal(E, i, 0).is_zero() for i in E.degrees()] == [False, True, False, True]
        calls = [
            lambda: candidate_divisors(E),
            lambda: support_report(E, [H_DIVISOR]),
            lambda: _minimal_order(E, H_DIVISOR, 3),
            lambda: specialization_multiplicity(E, H_DIVISOR, 3),
            lambda: specialization_multiplicity(E, H_DIVISOR, 3, candidates=[H_DIVISOR]),
        ]
        for call in calls:
            with pytest.raises(NonTorsionError) as info:
                call()
            assert info.value.degree == 0


def smith_rank(mat) -> int:
    """The rank of a one-variable Laurent matrix, from its Smith form once a
    power of t has made every entry a polynomial."""
    entries = [e for row in mat for e in row if not e.is_zero()]
    if not entries:
        return 0
    low = min(e.min_exponents()[0] for e in entries)
    return smith_normal_form([[e.shift((-low,)) for e in row] for row in mat]).rank


def lowest_non_torsion(F: FreeComplex) -> int | None:
    """The lowest j with rank d^j + rank d^(j-1) < r_j, by Smith forms."""
    for j in F.degrees():
        if smith_rank(F.differential(j)) + smith_rank(F.differential(j - 1)) < F.rank(j):
            return j
    return None


R1 = Ring(1, True, 1)
T1 = LaurentPoly.variable(1, 0, 1)
ONE1, ZERO1 = LaurentPoly.one(1), LaurentPoly.zero(1)


@st.composite
def one_variable_complexes(draw):
    """Over Q(zeta_N)[t, 1/t], N in 1, 2, 3, 6: a torsion sum of one or two
    pieces in degrees 0-2, plus up to two free summands R in degrees 0-2, each
    adding a rank to some H^j, conjugated."""
    ring = Ring(1, True, draw(st.sampled_from([1, 2, 3, 6])))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    F = torsion_sum(rng, ring, draw(st.integers(1, 2)))
    for degree in draw(st.lists(st.integers(0, 2), max_size=2)):
        F = direct_sum(F, FreeComplex.make(ring, (degree, degree), {degree: 1}, {}))
    return conjugate_complex(rng, F)


class TestOneTorsionCheck:
    """Every entry point that needs torsion cohomology refuses a complex at the
    lowest degree whose H^j is not torsion, by the ranks of Smith forms."""

    @given(one_variable_complexes())
    @settings(max_examples=25, deadline=None)
    # 0 -> R --1--> R --0--> R -> 0: H^0 = H^1 = 0 and H^2 = R
    @example(FreeComplex.make(R1, (0, 2), {0: 1, 1: 1, 2: 1}, {0: [[ONE1]], 1: [[ZERO1]]}))
    # R --0--> R --(t-1)--> R --0--> R: H^0 = R, H^1 = 0
    @example(
        FreeComplex.make(
            R1, (0, 3), {i: 1 for i in range(4)}, {0: [[ZERO1]], 1: [[T1 - ONE1]], 2: [[ZERO1]]}
        )
    )
    def test_every_entry_point_names_the_lowest_degree(self, F):
        degree = lowest_non_torsion(F)
        D = PrimeTorusDivisor((1,), angle(0, 1))
        calls = [
            candidate_divisors,
            lambda E: support_report(E, [D]),
            lambda E: specialization_multiplicity(E, D, E.imin, candidates=[D]),
            lambda E: cohomology_presentation(E, E.imin + 1),
        ]
        for call in calls:
            # a copy with an empty cache, so that no call reads another's verdict
            E = FreeComplex(F.ring, F.imin, F.imax, F.ranks, F.diffs)
            if degree is None:
                call(E)
                continue
            with pytest.raises(NonTorsionError) as info:
                call(E)
            assert info.value.degree == degree


def swap_variables(F: FreeComplex) -> FreeComplex:
    """F with t1 and t2 exchanged in every entry."""
    diffs = {
        i: [[LaurentPoly(2, e.order, e.den, {x[::-1]: row for x, row in e.rows.items()})
             for e in row] for row in mat]
        for i, mat in F.diffs.items()
    }
    return FreeComplex.make(F.ring, (F.imin, F.imax), dict(F.ranks), diffs)


def support_table(F: FreeComplex, swap: bool = False):
    """The candidates, the delta0, delta1 and minimal rows, and (ord, jordan,
    generic) of each ord/jordan row of `detloci support`, each divisor's u
    reversed when swap is set."""

    def key(d):
        return (d.u[::-1] if swap else d.u), d.xi

    candidates = candidate_divisors(F)
    report = support_report(F, candidates)
    rows = {
        (name, i, key(d)): m
        for name in ("delta0", "delta1", "minimal")
        for i, divisor in getattr(report, name).items()
        for d, m in divisor.coeffs.items()
    }
    table = {}
    for i, minimal in report.minimal.items():
        for d in minimal.coeffs:
            record = specialization_multiplicity(F, d, i, candidates=report.candidates)
            table[i, key(d)] = record.ord, record.jordan, record.generic
    return {key(d) for d in candidates}, rows, table


class TestCoordinatePermutation:
    """Exchanging t1 and t2 exchanges the coordinates of every u and changes
    nothing else that `detloci support` reports; lambda and b may differ, since
    the generic-point search is lexicographic in b."""

    @given(st.sampled_from([1, 2, 3, 6]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_swap_reverses_every_u(self, order, pieces, seed):
        F = torsion_sum(random.Random(seed), Ring(2, True, order), pieces)
        assert support_table(swap_variables(F)) == support_table(F, swap=True)


@st.composite
def planted_products(draw):
    """A field order up to 60 and a product of one to three binomials in two
    variables, each with u up to 8 per coordinate and power 1 or 2, times a
    monomial."""
    order = draw(st.integers(1, 60))
    u = st.sampled_from([u for u in itertools.product(range(9), repeat=2) if any(u)])
    divisor = st.builds(
        lambda u, k: PrimeTorusDivisor(tuple(x // math.gcd(*u) for x in u), angle(k, order)),
        u,
        st.integers(0, order - 1),
    )
    factors = draw(st.lists(st.tuples(divisor, st.integers(1, 2)), min_size=1, max_size=3))
    shift = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    return order, factors, shift


class TestCompleteSearch:
    def test_direction_beyond_a_small_box(self):
        ring = Ring(2, True, 1)
        E = diag_complex([P("t1^5*t2-1", ring)], ring)
        assert candidate_divisors(E) == [PrimeTorusDivisor((5, 1), angle(0, 1))]

    def test_every_root_of_a_high_order_binomial(self):
        ring = Ring(2, True, 7)
        E = diag_complex([P("t1^12*t2^5-e(1/7)", ring), P("t1^30-1", ring)], ring)
        assert candidate_divisors(E) == [
            PrimeTorusDivisor((1, 0), angle(k, 30)) for k in range(30)
        ] + [PrimeTorusDivisor((12, 5), angle(1, 7))]

    def test_sixty_roots_of_unity(self):
        ring = Ring(1, True, 1)
        E = diag_complex([P("t1^60-1", ring)], ring)
        assert candidate_divisors(E) == [PrimeTorusDivisor((1,), angle(k, 60)) for k in range(60)]

    @given(planted_products())
    @settings(max_examples=100, deadline=None)
    def test_planted_products(self, case):
        order, factors, shift = case
        ring = Ring(2, True, order)
        g = LaurentPoly.one(2, order)
        for divisor, power in factors:
            g = g * LaurentPoly.binomial_divisor(2, divisor, order) ** power
        E = diag_complex([g.shift(shift)], ring)
        got = candidate_divisors(E)
        assert got == sorted({d for d, _ in factors}, key=lambda d: d.sort_key())
        tops = [cdf_ideal(E, i, 0).gens for i in E.degrees()]
        for d in got:
            binom = LaurentPoly.binomial_divisor(2, d, order)
            assert any(all(exact_divide(f, binom) is not None for f in gens) for gens in tops)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux-specific")
    def test_rootless_fibre_fits_in_200_mb(self):
        """Scanning every order up to 2*300^2 keeps no per-order table beyond Phi_m."""
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))\n"
            "from detloci.complexes import FreeComplex\n"
            "from detloci.poly import Ring, parse_poly\n"
            "from detloci.support import candidate_divisors\n"
            "ring = Ring(1, True, 1)\n"
            "E = FreeComplex.make(ring, (0, 1), {0: 1, 1: 1}, {0: [[parse_poly('t1^300-2', ring)]]})\n"
            "print(candidate_divisors(E))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr[-2000:]


class TestCandidatesThroughTheMemo:
    def test_support_report_values_no_pair_twice(self, monkeypatch, rng):
        remembered = 0
        for _ in range(8):
            E = random_torsion_complex(rng, R2)
            candidates = candidate_divisors(E)
            tops = [cdf_ideal(E, i, 0) for i in E.degrees()]
            seen = [set(ideal.valuations) for ideal in tops]
            # each candidate was kept for a positive valuation of a top-minor ideal
            assert all(any(C in s for s in seen) for C in candidates)
            calls = []
            record_results(monkeypatch, "valuation_along", calls)
            support_report(E, candidates)
            monkeypatch.undo()
            for ideal, known in zip(tops, seen):
                # whichever list ideal_valuation reads: kept minors or formed generators
                kept = ideal.minors[0].nonzero(ideal.minors[1]) if ideal.minors else ()
                gens = {id(g) for g in kept + ideal.gens}
                assert not [C for f, C in calls if id(f) in gens and C in known]
                remembered += len(known & set(candidates))
        assert remembered >= 8


class TestListingRule:
    """Listing the minors of a size or eliminating them is a speed choice only."""

    @staticmethod
    def run(E: FreeComplex, divisors) -> tuple:
        """On a copy of E with an empty cache: candidates, support report, and
        every cdf and jump ideal's ring and valuations along the candidates
        and divisors; and the copy's minor engines."""
        E = FreeComplex.make(E.ring, (E.imin, E.imax), E.ranks, E.diffs)
        candidates = candidate_divisors(E)
        report = support_report(E, candidates)
        values = [
            [ideal.ring] + [ideal_valuation(ideal, C) for C in candidates + divisors]
            for i in E.degrees()
            for k in range(-1, 4)
            for ideal in (cdf_ideal(E, i, k), jump_ideal(E, i, k))
        ]
        engines = [e for key, e in E.minor_cache.items() if key[0] == "engine"]
        return (candidates, report, values), engines

    def test_every_size_listed_or_eliminated_gives_the_same_results(self, monkeypatch, rng):
        rule = complexes.lists_minors
        moved = {True: 0, False: 0}  # sizes that the patch takes off the rule's side
        for _ in range(12):
            E = torsion_sum(rng, R2, rng.randint(3, 5))
            divisors = [random_divisor(rng, 2) for _ in range(3)]
            want, _ = self.run(E, divisors)
            for lists in (True, False):
                monkeypatch.setattr(complexes, "lists_minors", lambda nrows, ncols, m: lists)
                got, engines = self.run(E, divisors)
                monkeypatch.undo()
                assert got == want, lists
                for e in engines:
                    assert all(len(kept) <= 1 for kept in e._nonzero.values())
                    assert not (lists and e._eliminations)
                    moved[lists] += sum(rule(*matrix_shape(e.mat), m) != lists for m in e._nonzero)
        assert min(moved.values()) >= 10, moved


class TestSupportReport:
    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        report = support_report(E, [H_DIVISOR])
        assert report.delta0[1].multiplicity(H_DIVISOR) == 3
        assert report.delta1[1].multiplicity(H_DIVISOR) == 1
        assert report.minimal[1].multiplicity(H_DIVISOR) == 2

    def test_single(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        report = support_report(E, [H_DIVISOR])
        assert report.minimal[1].multiplicity(H_DIVISOR) == 1

    def test_direct_sum_against_minor_oracle(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h, h])
        report = support_report(E, [H_DIVISOR])
        mat = [list(row) for row in E.differential(0)]
        # oracle: enumerate the minors directly and take min valuations
        oracle0 = min(
            oracle_valuation(g, H_DIVISOR)
            for g in oracle_minor_gens(mat, 3, R2)
            if not g.is_zero()
        )
        oracle1 = min(
            oracle_valuation(g, H_DIVISOR)
            for g in oracle_minor_gens(mat, 2, R2)
            if not g.is_zero()
        )
        assert report.delta0[1].multiplicity(H_DIVISOR) == oracle0 == 4
        assert report.delta1[1].multiplicity(H_DIVISOR) == oracle1 == 2
        assert report.minimal[1].multiplicity(H_DIVISOR) == 2

    def test_effectivity_and_annihilator_agreement(self, rng):
        # sums of shifted cyclic pieces: the minimal divisor coefficient is
        # the largest planted exponent per degree
        ring = Ring(2, True, 6)
        divisors = [
            PrimeTorusDivisor((1, 1), angle(1, 3)),
            PrimeTorusDivisor((1, 0), angle(1, 2)),
        ]
        for _ in range(10):
            planted: dict[tuple[int, PrimeTorusDivisor], int] = {}
            pieces = []
            for _ in range(rng.randint(1, 3)):
                degree = rng.choice([1, 2])
                divisor = rng.choice(divisors)
                power = rng.randint(1, 3)
                binom = LaurentPoly.binomial_divisor(2, divisor, 6)
                pieces.append(shifted_piece(ring, binom**power, degree))
                key = (degree, divisor)
                planted[key] = max(planted.get(key, 0), power)
            E = pieces[0]
            for piece in pieces[1:]:
                E = direct_sum(E, piece)
            report = support_report(E, divisors)
            for i in E.degrees():
                assert report.minimal[i].is_effective()
                for divisor in divisors:
                    assert report.minimal[i].multiplicity(divisor) == planted.get(
                        (i, divisor), 0
                    )

    def test_duplicate_candidates_rejected(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        with pytest.raises(ValueError, match="distinct"):
            support_report(E, [H_DIVISOR, H_DIVISOR])


class TestGenericPoint:
    def test_examples(self):
        lam, b = next(_generic_points(H_DIVISOR, [PrimeTorusDivisor((1, 0), angle(0, 1))]))
        assert (str(lam), b) == ("1/6", (1, 1))
        lam, b = next(_generic_points(PrimeTorusDivisor((1, 0), angle(1, 6)), []))
        assert (str(lam), b) == ("1/6", (1, 1))
        lam, b = next(
            _generic_points(
                PrimeTorusDivisor((1, 1), angle(0, 1)), [PrimeTorusDivisor((1, 1), angle(1, 2))]
            )
        )
        assert (str(lam), b) == ("1/2", (1, 1))

    def test_point_lies_on_divisor_only(self, rng):
        from conftest import random_divisor

        for _ in range(25):
            target = random_divisor(rng, 2)
            avoid = [d for d in (random_divisor(rng, 2) for _ in range(2)) if d != target]
            lam, b = next(_generic_points(target, avoid))
            assert point_on_divisor(target, lam, b)
            assert not any(point_on_divisor(d, lam, b) for d in avoid)

    def test_divisor_in_avoid_rejected(self):
        with pytest.raises(ValueError):
            next(_generic_points(H_DIVISOR, [H_DIVISOR]))

    def test_search_passes_every_small_total(self):
        # for b1 <= 8, lambda and so lambda^b2 have order <= 8 and lie on a t2 = zeta,
        # so the first point leaves [1, 8]^2
        assert len(BLOCKED_T2) == 22
        lam, b = next(_generic_points(T1_ONE, BLOCKED_T2))
        assert (str(lam), b) == ("1/9", (9, 1))

    @given(
        st.sampled_from([2, 3]).flatmap(
            lambda r: st.tuples(divisors_in(r), st.lists(divisors_in(r), max_size=25))
        )
    )
    @example((T1_ONE, BLOCKED_T2))
    @settings(max_examples=80, deadline=None)
    def test_point_on_target_only(self, case):
        target, avoid = case
        avoid = sorted(set(avoid) - {target}, key=lambda d: d.sort_key())
        lam, b = next(_generic_points(target, avoid))
        assert not lam.is_one() and min(b) >= 1
        assert point_on_divisor(target, lam, b)
        assert not any(point_on_divisor(d, lam, b) for d in avoid)


class TestSpecializationMultiplicity:
    def test_diag_powers(self):
        h = P("t1*t2-e(1/3)")
        E = diag_complex([h * h, h])
        record = specialization_multiplicity(E, H_DIVISOR, 1)
        assert record.ord == 2 and record.jordan == 2 and record.generic

    def test_single(self):
        E = diag_complex([P("t1*t2-e(1/3)")])
        record = specialization_multiplicity(E, H_DIVISOR, 1)
        assert record.ord == 1 and record.jordan == 1

    def test_absent_divisor(self):
        E = diag_complex([P("t1-1")])
        record = specialization_multiplicity(E, H_DIVISOR, 1)
        assert record.ord == 0 and record.jordan == 0

    def test_forced_collision_reports_nongeneric(self):
        # one map vanishing on two divisors; the point (-1, -1) sits on both
        ring = Ring(2, True, 2)
        E = diag_complex([parse_poly("t1+1", ring) * parse_poly("t2+1", ring)], ring)
        c1 = PrimeTorusDivisor((1, 0), angle(1, 2))
        record = specialization_multiplicity(
            E, c1, 1, point=(angle(1, 2), (1, 1))
        )
        assert not record.generic
        assert record.ord == 1 and record.jordan == 2

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @example(0, True)
    @settings(max_examples=20, deadline=None)
    def test_returned_point_gives_a_torsion_base_change(self, seed, collapsing):
        rng = random.Random(seed)
        ring = Ring(2, True, 6)
        F = random_torsion_complex(rng, ring, max_pieces=2)
        if collapsing:
            # b = (1, 1) sends t1 - t2 to 0: the search must pass over it
            F = conjugate_complex(rng, direct_sum(F, shifted_piece(ring, P("t1-t2", ring), 1)))
        candidates = candidate_divisors(F)
        for divisor in candidates:
            record = specialization_multiplicity(F, divisor, 1, candidates=candidates)
            E = base_change(F, record.b)
            # refuses a base change with non-torsion cohomology in any degree
            cohomology_presentation(E, 1)
            # and, independently of the top-minor ideals, by Smith ranks
            assert lowest_non_torsion(E) is None

    def test_base_change_tau_compatibility(self, rng):
        from conftest import random_binomial

        ring = Ring(2, True, 6)
        for _ in range(10):
            h1 = random_binomial(rng, ring)
            h2 = random_binomial(rng, ring)
            E = diag_complex([h1 * h2], ring)
            b = (rng.randint(1, 3), rng.randint(1, 3))
            cands = candidate_divisors(E)
            expected = set()
            for c in cands:
                expected.update(tau_preimage([list(b)], c))
            specialized = candidate_divisors(base_change(E, b))
            assert set(specialized) == expected


def smith_jordan(F: FreeComplex, lam: TorsionAngle, b: tuple[int, ...], i: int) -> int:
    """Multiplicity of lambda in the last invariant factor of H^i of the base
    change along b, from its Smith diagonal, by repeated trial division."""
    presentation = cohomology_presentation(base_change(F, b), i)
    if not presentation:
        return 0
    return oracle_valuation(presentation[-1][-1], PrimeTorusDivisor((1,), lam))


COLLISION = (angle(1, 2), (1, 1))


class TestJordanAgainstSmithInvariants:
    """The Jordan size read off Fitting ideals against the Smith diagonal of H^i."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 6, 12]),
        st.booleans(),
        st.booleans(),
    )
    # in both, two pieces of degree 2 vanish on {t1 = 1}: the order of Fitt_0
    # there is 2 and the largest Jordan block 1
    @example(5, 6, True, False)
    @example(5, 1, False, False)
    @example(3, 6, True, True)
    @settings(max_examples=20, deadline=None)
    def test_jordan_is_the_multiplicity_in_the_last_invariant_factor(
        self, seed, order, laurent, collapsing
    ):
        rng = random.Random(seed)
        ring = Ring(2, laurent, order)
        F = torsion_sum(rng, ring, rng.randint(1, 3))
        if collapsing:
            # t1 - t2 is no binomial divisor, and b = (1, 1) sends it to 0
            F = conjugate_complex(rng, direct_sum(F, shifted_piece(ring, P("t1-t2", ring), 1)))
        candidates = candidate_divisors(F)
        for divisor in candidates or [PrimeTorusDivisor((1, 0), angle(1, 2))]:
            for i in F.degrees():
                record = specialization_multiplicity(F, divisor, i, candidates=candidates)
                assert record.jordan == smith_jordan(F, record.lam, record.b, i)
                assert record.b != (1, 1) or not collapsing
                if collapsing:
                    with pytest.raises(NonTorsionError):
                        specialization_multiplicity(
                            F, divisor, i, candidates=candidates, point=COLLISION
                        )
                    with pytest.raises(NonTorsionError):
                        smith_jordan(F, *COLLISION, i)
                else:
                    record = specialization_multiplicity(
                        F, divisor, i, candidates=candidates, point=COLLISION
                    )
                    assert record.jordan == smith_jordan(F, *COLLISION, i)


class TestNonGenericLogging:
    """A non-generic specialization is reported by one INFO record, a generic one by none."""

    def test_collision_point_logs_once(self, caplog):
        ring = Ring(2, True, 1)
        F = diag_complex([P("t1+1", ring), P("t2+1", ring)], ring)
        candidates = candidate_divisors(F)
        divisor = PrimeTorusDivisor((1, 0), angle(1, 2))
        assert divisor in candidates
        with caplog.at_level("INFO", logger="detloci.support"):
            generic = specialization_multiplicity(F, divisor, 1, candidates=candidates)
            assert generic.generic and caplog.records == []
            # {t1 = -1} and {t2 = -1} both pass through (-1, -1)
            record = specialization_multiplicity(
                F, divisor, 1, candidates=candidates, point=COLLISION
            )
        assert not record.generic
        assert [(r.name, r.levelname) for r in caplog.records] == [("detloci.support", "INFO")]
        assert caplog.records[0].getMessage() == (
            "non-generic specialization at lambda=1/2 b=(1, 1): ord=1 jordan=1"
        )


def run_capped(child: str, seconds: float) -> list[str]:
    """The words that a child process running child prints, under a wall-clock cap."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=seconds
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


# every table row of a support report, each checked against its specialization
SUPPORT_ROWS = (
    "report = support_report(F, candidate_divisors(F))\n"
    "rows = 0\n"
    "for i, minimal in sorted(report.minimal.items()):\n"
    "    for d, m in minimal.items():\n"
    "        r = specialization_multiplicity(F, d, i, candidates=report.candidates)\n"
    "        assert (r.ord, r.jordan, r.generic) == (m, m, True), (i, str(d), r)\n"
    "        rows += 1\n"
    "print(len(report.candidates), rows)\n"
)


class TestSpecializationCliff:
    def test_eight_piece_sum_within_ten_seconds(self):
        """Every specialization of an eight-piece sum whose Smith diagonals
        took over 15 s, in a child process under a 10 s wall-clock cap."""
        child = (
            "import random\n"
            "from conftest import torsion_sum\n"
            "from detloci.poly import Ring\n"
            "from detloci.support import candidate_divisors, specialization_multiplicity, support_report\n"
            "F = torsion_sum(random.Random(3), Ring(2, True, 6), 8)\n"
        )
        assert run_capped(child + SUPPORT_ROWS, 10) == ["9", "9"]

    def test_dense_ten_piece_sum_within_twelve_seconds(self):
        """The support report and every specialization of a ten-piece sum
        conjugated by 20 elementary operations per degree (d^0 10 x 4, d^1
        6 x 10), in a child process under a 12 s wall-clock cap; valuing its
        minor ideals by ranking every minor took over 14 s of CPU time."""
        child = (
            "import random\n"
            "from conftest import torsion_sum\n"
            "from detloci.poly import Ring\n"
            "from detloci.support import candidate_divisors, specialization_multiplicity, support_report\n"
            "F = torsion_sum(random.Random(1), Ring(2, True, 6), 10, n_ops=20)\n"
        )
        assert run_capped(child + SUPPORT_ROWS, 12) == ["10", "13"]
