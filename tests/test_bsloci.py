import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detloci import bsloci
from detloci.arith import TorsionAngle
from detloci.bsloci import (
    HyperplaneLocus,
    combine_bm,
    containment_check,
    exp_divisors,
    exp_oblique_equal,
    oblique_part,
    ord_sum_check,
    polar_candidate_filter,
    propagate_polar,
    slope_set,
    specialize_slice,
)
from detloci.fixtures import ex71_loci, ex72_loci
from detloci.io import locus_from_json, locus_to_json
from detloci.torus import AffineHyperplane, PrimeTorusDivisor, exp_hyperplane, rref

from conftest import (
    loop_containment_check,
    oracle_combine_bm,
    oracle_locus_to_json,
    oracle_member_canonicals,
    oracle_point_avoiding,
    oracle_polar_candidate_filter,
    oracle_specialize_slice,
    translate_locus,
)


def H(c, c0):
    return AffineHyperplane(tuple(c), c0)


def angle(num, den):
    return TorsionAngle.make(num, den)


class TestTranslate:
    def test_examples(self):
        L = HyperplaneLocus.make(2, [H((3, 3), 4)])
        assert translate_locus(L, (1, 0)).members() == [H((3, 3), 7)]
        assert translate_locus(L, (0, 0)) == L
        L2 = HyperplaneLocus.make(2, [H((0, 1), 1)])
        assert translate_locus(L2, (1, 0)).members() == [H((0, 1), 1)]

    def test_pieces_translated_memberwise(self):
        L = HyperplaneLocus.make(2, [], [[H((1, 0), 1), H((0, 1), 1)]])
        T = translate_locus(L, (1, 2))
        assert T.pieces == ((H((0, 1), 3), H((1, 0), 2)),)


class TestCombine:
    def test_second_example_both_permutations(self):
        loci = ex72_loci()
        expected = loci["zbf"].without_multiplicities()
        got_id = combine_bm({1: loci["be1"], 2: loci["be2"]}, (1, 1), (1, 2))
        got_swap = combine_bm({1: loci["be1"], 2: loci["be2"]}, (1, 1), (2, 1))
        assert got_id == expected
        assert got_swap == expected

    def test_single_coordinate(self):
        loci = ex72_loci()
        got = combine_bm({1: loci["be1"]}, (1, 0))
        assert got == loci["be1"].without_multiplicities()

    def test_permutation_invariance_random(self, rng):
        # components shaped like the printed ideals: axis hyperplanes in the
        # own coordinate plus an oblique family with equal coordinates shared
        # by every component; the accumulated diagonal shifts then sweep the
        # same translate set for every permutation
        for r in (2, 3):
            for _ in range(8):
                d = rng.randint(1, 3)
                shared = [
                    H((d,) * r, rng.randint(1, 5)) for _ in range(rng.randint(1, 2))
                ]
                components = {}
                for j in range(1, r + 1):
                    members = list(shared)
                    for _ in range(rng.randint(1, 2)):
                        c = [0] * r
                        c[j - 1] = rng.randint(1, 3)
                        members.append(H(tuple(c), rng.randint(1, 5)))
                    components[j] = HyperplaneLocus.make(r, members)
                m = tuple(rng.randint(0, 2) for _ in range(r))
                if all(x == 0 for x in m):
                    m = (1,) * r
                results = [
                    combine_bm(components, m, pi)
                    for pi in itertools.permutations(range(1, r + 1))
                ]
                assert all(res == results[0] for res in results)

    def test_negative_exponent_rejected(self):
        loci = ex72_loci()
        components = {1: loci["be1"], 2: loci["be2"]}
        for m in ((-1, 1), (1, -1), (0, -2)):
            with pytest.raises(ValueError, match="^the exponent vector must be natural$"):
                combine_bm(components, m)

    def test_component_outside_the_coordinates_rejected(self):
        loci = ex72_loci()
        for j in (5, 3, 0, -3):
            with pytest.raises(ValueError, match=f"^component {j} is not a coordinate 1..2$"):
                combine_bm({1: loci["be1"], j: loci["be1"]}, (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            combine_bm(
                {1: HyperplaneLocus.make(2, [H((1, 0), 1)]),
                 2: HyperplaneLocus.make(3, [H((1, 0, 0), 1)])},
                (1, 1),
            )


class TestDimension:
    @pytest.mark.parametrize("r", [0, -2])
    def test_make_rejects_nonpositive_r(self, r):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            HyperplaneLocus.make(r, [])

    def test_translate_rejects_r_zero(self):
        # a locus built without make still meets the check in translate_locus
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            translate_locus(HyperplaneLocus(0, (), ()), [])

    @pytest.mark.parametrize("r", [0, -2])
    def test_containment_of_nonpositive_r_loci_unreachable(self, r):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            containment_check(HyperplaneLocus.make(r, []), HyperplaneLocus.make(r, []))

    def test_r_one_accepted(self):
        assert containment_check(HyperplaneLocus.make(1, []), HyperplaneLocus.make(1, [])) == (
            True,
            None,
        )


class TestContainment:
    def test_trivial_cases(self):
        inner = HyperplaneLocus.make(2, [H((1, 0), 1)])
        outer = HyperplaneLocus.make(2, [H((1, 0), 1), H((0, 1), 1)])
        ok, witness = containment_check(inner, outer)
        assert ok and witness is None

    def test_false_with_witness(self):
        inner = HyperplaneLocus.make(2, [H((1, 0), 2)])
        outer = HyperplaneLocus.make(2, [H((1, 0), 1)])
        ok, witness = containment_check(inner, outer)
        assert not ok
        assert witness == [Fraction(-2), Fraction(0)]
        assert inner.contains_rational_point(witness)
        assert not outer.contains_rational_point(witness)

    def test_first_example_piece_logic(self):
        loci = ex71_loci()
        ok, _ = containment_check(loci["bfi"], loci["bf"])
        assert ok
        # the piece at (-1,-1) sits inside the member with canonical form s1+1
        piece = HyperplaneLocus.make(2, [], loci["bfi"].pieces[:1])
        assert containment_check(piece, HyperplaneLocus.make(2, [H((6, 0), 6)]))[0]
        assert not containment_check(piece, HyperplaneLocus.make(2, [H((3, 3), 7)]))[0]

    def test_scaled_members_match(self):
        inner = HyperplaneLocus.make(2, [H((1, 0), 1)])
        outer = HyperplaneLocus.make(2, [H((6, 0), 6)])
        ok, _ = containment_check(inner, outer)
        assert ok

    def test_second_example_intersections(self):
        loci = ex72_loci()
        for name in ("zbf", "be1", "be2"):
            ok, witness = containment_check(loci["bfi"], loci[name])
            assert ok, (name, witness)


GRID = [0] + [v for k in range(1, 65) for v in (k, -k)]


def _rref(rows, ncols):
    """Gauss-Jordan elimination over Fraction, pivoting in the first ncols
    columns: pivot columns, reduced rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots, mat[: len(pivots)]


def grid_walk_containment(inner, outer):
    """Containment by the point-by-point grid walk: the first point, in
    lexicographic grid order over the free coordinates of the first member
    not inside an outer member, that the outer locus misses.  Returns None
    where the grid (+-64 per free coordinate) holds no such point."""
    canonicals = {h.set_canonical() for h in outer.members()}

    def rows(piece):
        return [list(h.c) + [-h.c0] for h in piece]

    def inside(piece, h):
        return len(_rref(rows(piece) + rows((h,)), inner.r + 1)[0]) == len(piece)

    members = [(h,) for h in inner.members()] + list(inner.pieces)
    for member in members:
        if len(member) == 1 and member[0].set_canonical() in canonicals:
            continue
        if len(member) > 1 and (
            any(inside(member, h) for h in outer.members())
            or any(all(inside(member, h) for h in p) for p in outer.pieces)
        ):
            continue
        pivots, reduced = _rref(rows(member), inner.r)
        n = inner.r
        free = [i for i in range(n) if i not in pivots]
        for assignment in itertools.product(GRID, repeat=len(free)):
            point = [Fraction(0)] * n
            for i, v in zip(free, assignment):
                point[i] = Fraction(v)
            for row, col in zip(reduced, pivots):
                point[col] = row[n] - sum(row[i] * point[i] for i in free)
            if not outer.contains_rational_point(point):
                return False, point
        return None
    return True, None


def random_hyperplane(rng, r):
    c = [0] * r
    while not any(c):
        c = [rng.randint(0, 3) for _ in range(r)]
    return H(c, rng.randint(-6, 6))


def random_locus(rng, r, n_hyperplanes, n_pieces):
    pieces = []
    while len(pieces) < n_pieces:
        piece = [random_hyperplane(rng, r) for _ in range(rng.randint(2, r))]
        try:
            HyperplaneLocus.make(r, [], [piece])
        except ValueError:
            continue
        pieces.append(piece)
    hyperplanes = [random_hyperplane(rng, r) for _ in range(n_hyperplanes)]
    return HyperplaneLocus.make(r, hyperplanes, pieces)


def contained_case(rng, r):
    """Rescaled outer members, a piece inside an outer hyperplane and, where
    the normals allow it, a piece inside the outer piece."""
    outer = random_locus(rng, r, 3, 1)
    h = outer.members()[0]
    other = random_hyperplane(rng, r)
    while len(_rref([h.c, other.c], r)[0]) < 2:
        other = random_hyperplane(rng, r)
    pieces = [[h, other]]
    deeper = list(outer.pieces[0]) + [other]
    if len(_rref([g.c for g in deeper], r)[0]) == len(deeper):
        pieces.append(deeper)
    rescaled = [H(tuple(3 * x for x in g.c), 3 * g.c0) for g in outer.members()[1:]]
    return HyperplaneLocus.make(r, rescaled, pieces), outer


@st.composite
def integer_matrices(draw):
    """Integer rows with ncols pivot columns and at most one column beyond,
    with rows that combine others and all-zero rows shuffled in."""
    ncols = draw(st.integers(1, 5))
    width = ncols + draw(st.integers(0, 1))
    row = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
        x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append([a * p + b * q for p, q in zip(x, y)])
    if draw(st.booleans()):
        rows.append([0] * width)
    return draw(st.permutations(rows)), ncols


@st.composite
def member_cases(draw):
    """A piece or a one-hyperplane member with independent normals."""
    r = draw(st.integers(1, 4))
    k = draw(st.integers(1, r))
    cs = draw(st.lists(normals(r, 6), min_size=k, max_size=k))
    assume(len(_rref(cs, r)[0]) == k)
    return tuple(H(c, draw(st.integers(-20, 20))) for c in cs)


class TestIntegerRref:
    @given(integer_matrices())
    @settings(max_examples=400)
    @example(([[0, 0, 0], [2, 4, 6], [1, 2, 3]], 2))
    @example(([[6, 4, -2], [3, 0, 9]], 3))
    def test_against_fraction_oracle(self, case):
        rows, ncols = case
        pivots, reduced = rref(rows, ncols)
        want_pivots, want_rows = _rref(rows, ncols)
        assert pivots == want_pivots
        for row, col, want in zip(reduced, pivots, want_rows, strict=True):
            assert all(type(x) is int for x in row)
            assert math.gcd(*row) == 1 and row[col] > 0
            assert all(row[other] == 0 for other in pivots if other != col)
            assert [Fraction(x, row[col]) for x in row] == want

    @given(member_cases(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    @settings(max_examples=300)
    def test_parametrized_points_lie_on_the_member(self, member, values):
        n = member[0].nvars
        base, dirs, den = bsloci._parametrize(member)
        assert den > 0 and len(dirs) == n - len(member)
        # den is the least common denominator of the Fraction oracle's rows
        rows = _rref([(*h.c, -h.c0) for h in member], n)[1]
        assert den == math.lcm(*(x.denominator for row in rows for x in row))
        point = [
            Fraction(b + sum(v * d[i] for v, d in zip(values, dirs)), den)
            for i, b in enumerate(base)
        ]
        assert all(on_hyperplane(h, point) for h in member)


class TestContainmentWitness:
    def test_against_grid_walk(self, rng):
        cases = []
        for _ in range(400):
            r = rng.randint(2, 4)
            inner = random_locus(rng, r, rng.randint(0, 2), rng.randint(0, 2))
            outer = random_locus(rng, r, rng.randint(0, 6), rng.randint(0, 3))
            cases.append((inner, outer))
        for _ in range(20):
            cases.append(contained_case(rng, rng.randint(2, 4)))
        # a grid line of the missing member blocked value by value: the first
        # slice x_2 = 0 holds no grid witness and the search moves to x_2 = 1
        cases.append(
            (
                HyperplaneLocus.make(3, [H((1, 0, 0), 0)]),
                HyperplaneLocus.make(
                    3, [], [[H((0, 1, 0), 0), H((0, 0, 1), -v)] for v in range(65)]
                    + [[H((0, 1, 0), 0), H((0, 0, 1), v)] for v in range(1, 65)]
                ),
            )
        )
        seen = set()
        for inner, outer in cases:
            expected = grid_walk_containment(inner, outer)
            assert expected is not None
            assert containment_check(inner, outer) == expected
            seen.add(expected[0])
        assert seen == {True, False}
        assert containment_check(*cases[-1])[1] == [0, 1, 0]

    def test_plane_blocking_member(self, monkeypatch):
        # the outer member meets the missing one in its grid plane x_1 = 0
        inner = HyperplaneLocus.make(4, [H((1, 3, 3, 3), 2)])
        outer = HyperplaneLocus.make(4, [H((1, 1, 3, 3), 2)])
        calls = []
        original = HyperplaneLocus.contains_rational_point

        def counting(self, point):
            calls.append(point)
            return original(self, point)

        monkeypatch.setattr(HyperplaneLocus, "contains_rational_point", counting)
        ok, witness = containment_check(inner, outer)
        assert not ok
        assert witness == [-5, 1, 0, 0]
        assert len(calls) <= 1

    def test_no_witness_inside_the_grid(self):
        inner = HyperplaneLocus.make(2, [H((1, 0), 0)])
        outer = HyperplaneLocus.make(
            2, [H((0, 1), -v) for v in range(65)] + [H((0, 1), v) for v in range(1, 65)]
        )
        ok, witness = containment_check(inner, outer)
        assert not ok
        assert witness == [0, 65]

    def test_deep_level_blocked_for_every_prefix(self, monkeypatch):
        # every outer member s4 + v = 0 leaves s2 and s3 free, so the last
        # level is blocked alike under each of the 129 * 129 grid prefixes
        inner = HyperplaneLocus.make(4, [H((1, 0, 0, 0), 0)])
        outer = HyperplaneLocus.make(4, [H((0, 0, 0, 1), v) for v in range(-64, 65)])
        calls = []
        original = bsloci._blocked_value

        def counting(funcs):
            calls.append(1)
            return original(funcs)

        monkeypatch.setattr(bsloci, "_blocked_value", counting)
        ok, witness = containment_check(inner, outer)
        assert not ok
        assert witness == [0, 0, 0, 65]
        # one blocked test per member and level in each of the two searches,
        # where a search without the memo makes 129 for each of 129 ** 2 prefixes
        assert len(calls) <= 2 * 3 * 129


class TestOblique:
    def test_first_example(self):
        loci = ex71_loci()
        ob = oblique_part(loci["bf"])
        assert set(ob.members()) == {H((3, 3), k) for k in (4, 5, 7, 8)}
        ob_i = oblique_part(loci["bfi"])
        assert set(ob_i.members()) == {H((3, 3), 4), H((3, 3), 5)}
        assert exp_oblique_equal(loci["bf"], loci["bfi"])
        assert exp_divisors(ob) == {
            PrimeTorusDivisor((1, 1), angle(1, 3)),
            PrimeTorusDivisor((1, 1), angle(2, 3)),
        }

    def test_second_example(self):
        loci = ex72_loci()
        ob = oblique_part(loci["bfi"])
        assert set(ob.members()) == {H((4, 1), k) for k in (3, 4, 5)}
        assert exp_divisors(ob) == {PrimeTorusDivisor((4, 1), angle(0, 1))}

    def test_empty(self):
        L = HyperplaneLocus.make(2, [H((1, 0), 1), H((0, 1), 2)])
        assert not oblique_part(L).hyperplanes


class TestPolarFilter:
    def test_three_cases(self):
        bf = ex71_loci()["bf"]
        assert polar_candidate_filter(H((3, 3), 10), bf) == {"m": 1, "k": 1}
        assert polar_candidate_filter(H((3, 3), 4), bf) == {"m": 0, "k": 0}
        assert polar_candidate_filter(H((3, 3), 1), bf) == {"m": 0, "k": None}

    def test_dimension_mismatch(self):
        bf = ex71_loci()["bf"]
        for c in ((1, 1, 1), (3,)):
            with pytest.raises(ValueError, match="dimension"):
                polar_candidate_filter(H(c, 3), bf)

    def test_nonpositive_rejected(self):
        bf = ex71_loci()["bf"]
        with pytest.raises(ValueError):
            polar_candidate_filter(H((3, 3), 0), bf)


class TestPropagate:
    def test_merging_translates(self):
        P = HyperplaneLocus.make(2, [(H((1, 1), 1), 1)])
        out = propagate_polar(P, 1)
        assert dict(out.hyperplanes) == {H((1, 1), 1): 1, H((1, 1), 2): 1}

    def test_steps_zero(self):
        P = HyperplaneLocus.make(2, [(H((1, 1), 1), 2)])
        assert propagate_polar(P, 0) == P

    def test_zero_coordinate_direction(self):
        P = HyperplaneLocus.make(2, [(H((2, 0), 1), 2)])
        out = propagate_polar(P, 1)
        assert dict(out.hyperplanes) == {H((2, 0), 1): 2, H((2, 0), 3): 2}


class TestSlice:
    def test_first_example_b12(self):
        bf = ex71_loci()["bf"]
        entries = specialize_slice(bf, (1, 2))
        poles = {e["pole"] for e in entries}
        assert poles == {
            Fraction(-5, 6),
            Fraction(-1),
            Fraction(-7, 6),
            Fraction(-1, 2),
            Fraction(-4, 9),
            Fraction(-5, 9),
            Fraction(-7, 9),
            Fraction(-8, 9),
        }
        assert all(e["generic"] and e["order_sum"] == 1 for e in entries)

    def test_first_example_b11_collision(self):
        bf = ex71_loci()["bf"]
        entries = specialize_slice(bf, (1, 1))
        by_pole = {e["pole"]: e for e in entries}
        assert by_pole[Fraction(-1)]["order_sum"] == 2
        assert not by_pole[Fraction(-1)]["generic"]

    def test_single_hyperplane(self):
        P = HyperplaneLocus.make(2, [(H((2, 1), 3), 2)])
        entries = specialize_slice(P, (1, 1))
        assert entries == [{"pole": Fraction(-1), "order_sum": 2, "generic": True}]

    def test_validation(self):
        P = HyperplaneLocus.make(2, [H((1, 1), 1)])
        with pytest.raises(ValueError):
            specialize_slice(P, (1, 0))

    def test_exp_consistency(self, rng):
        # the specialized pole angle solves the root equation of the Exp image
        from detloci.arith import angle_roots
        from detloci.torus import exp_hyperplane

        for _ in range(40):
            c = tuple(rng.randint(0, 4) for _ in range(2))
            if all(x == 0 for x in c):
                continue
            h = H(c, rng.randint(1, 9))
            b = tuple(rng.randint(1, 3) for _ in range(2))
            entries = specialize_slice(HyperplaneLocus.make(2, [h]), b)
            alpha = entries[0]["pole"]
            divisor = exp_hyperplane(h)
            w = sum(ui * bi for ui, bi in zip(divisor.u, b))
            assert TorsionAngle.from_fraction(alpha) in angle_roots(divisor.xi, w)


class TestSlopeSet:
    def test_examples(self):
        assert slope_set(ex71_loci()["bf"]) == {(1, 0), (0, 1), (1, 1)}
        bah = HyperplaneLocus.make(2, [H((1, 0), 1), H((0, 1), 1)])
        assert slope_set(bah) == {(1, 0), (0, 1)}
        empty = HyperplaneLocus.make(2, [])
        assert slope_set(empty) == set()


class TestOrdSumCheck:
    def test_first_example_classes(self):
        bf = ex71_loci()["bf"]
        C = PrimeTorusDivisor((1, 1), angle(2, 3))
        assert ord_sum_check(C, bf, 1)
        assert not ord_sum_check(C, bf, 2)
        empty = HyperplaneLocus.make(2, [])
        assert not ord_sum_check(C, empty, 1)

    def test_accumulated_class(self):
        # two hyperplanes in the same diagonal-translation class add up
        L = HyperplaneLocus.make(2, [(H((3, 3), 4), 1), (H((3, 3), 10), 2)])
        C = PrimeTorusDivisor((1, 1), angle(2, 3))
        assert ord_sum_check(C, L, 3)
        assert not ord_sum_check(C, L, 4)


class TestDiagonalTranslateBound:
    def test_unit_vector_trivial(self, rng):
        # with all exponents one the combine output is inside the base locus
        loci = ex71_loci()
        base = combine_bm({1: loci["be1"], 2: loci["be2"]}, (1, 1))
        ok, _ = containment_check(base, loci["bf"])
        assert ok

    def test_axis_components_random_m(self, rng):
        # components supported on their own coordinate: translating by k times
        # the diagonal matches translating by k steps in that coordinate alone
        for _ in range(10):
            r = 2
            components = {}
            for j in range(1, r + 1):
                members = []
                for _ in range(rng.randint(1, 3)):
                    c = [0] * r
                    c[j - 1] = rng.randint(1, 3)
                    members.append(H(tuple(c), rng.randint(1, 4)))
                components[j] = HyperplaneLocus.make(r, members)
            m = (rng.randint(1, 3), rng.randint(1, 3))
            combined_m = combine_bm(components, m)
            base = combine_bm(components, (1, 1))
            union_members = set()
            for k in range(max(m)):
                union_members.update(
                    translate_locus(base, (k, k)).members()
                )
            target = HyperplaneLocus.make(r, [(h, 1) for h in union_members])
            ok, witness = containment_check(combined_m, target)
            assert ok, witness


# ---------------------------------------------------------------------------
# Oracles written over Fraction and translate_locus


def normals(r, hi=4):
    return st.lists(st.integers(0, hi), min_size=r, max_size=r).filter(any).map(tuple)


def on_hyperplane(h, point):
    return sum(Fraction(ci) * p for ci, p in zip(h.c, point)) + h.c0 == 0


def reference_contains(locus, point):
    return any(on_hyperplane(h, point) for h in locus.members()) or any(
        all(on_hyperplane(h, point) for h in piece) for piece in locus.pieces
    )


def reference_slice(model, b):
    groups = {}
    for h, mult in model.hyperplanes:
        pole = Fraction(-h.c0, sum(ci * bi for ci, bi in zip(h.c, b)))
        order_sum, count = groups.get(pole, (0, 0))
        groups[pole] = (order_sum + mult, count + 1)
    return [
        {"pole": pole, "order_sum": order_sum, "generic": count == 1}
        for pole, (order_sum, count) in sorted(groups.items())
    ]


def translate_union(components, m, pi):
    """combine_bm as the union of translate_locus images over its shifts."""
    r = len(m)
    hyperplanes, pieces = set(), set()
    accumulated = [0] * r
    for j in pi:
        for k in range(m[j - 1]):
            v = list(accumulated)
            v[j - 1] += k
            image = translate_locus(components[j], v)
            hyperplanes.update(image.members())
            pieces.update(image.pieces)
        accumulated[j - 1] += m[j - 1]
    return HyperplaneLocus.make(r, hyperplanes, pieces)


@st.composite
def slice_cases(draw):
    r = draw(st.integers(1, 4))
    members = draw(
        st.lists(st.tuples(normals(r), st.integers(-20, 20), st.integers(1, 3)), max_size=8)
    )
    b = tuple(draw(st.lists(st.integers(1, 5), min_size=r, max_size=r)))
    return HyperplaneLocus.make(r, [(H(c, c0), mult) for c, c0, mult in members]), b


@st.composite
def point_cases(draw):
    """A locus and a point, with some members and pieces drawn through it."""
    r = draw(st.integers(1, 4))
    coordinate = st.one_of(
        st.integers(-6, 6),
        st.integers(-6, 6).map(Fraction),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    point = draw(st.lists(coordinate, min_size=r, max_size=r))

    def hyperplane():
        c = draw(normals(r))
        if draw(st.booleans()):
            value = sum(Fraction(ci) * p for ci, p in zip(c, point))
            d = value.denominator
            return H(tuple(x * d for x in c), -value.numerator)
        return H(c, draw(st.integers(-20, 20)))

    members = [hyperplane() for _ in range(draw(st.integers(0, 3)))]
    pieces = []
    for _ in range(draw(st.integers(0, 2))):
        piece = [hyperplane() for _ in range(draw(st.integers(2, max(2, r))))]
        if len(rref([h.c for h in piece], r)[0]) == len(piece):
            pieces.append(piece)
    return HyperplaneLocus.make(r, members, pieces), point


class TestIntegerOracles:
    @given(slice_cases())
    @settings(max_examples=300)
    # equal poles from unreduced pairs: -2/4, -1/2 and -3/6 on one line
    @example((HyperplaneLocus.make(1, [H((4,), 2), H((2,), 1), H((1,), 0)]), (1,)))
    @example((HyperplaneLocus.make(2, [(H((2, 2), 2), 3), H((1, 1), 1), H((3, 0), 3)]), (1, 1)))
    def test_slice_against_fraction_keys(self, case):
        model, b = case
        got = specialize_slice(model, b)
        assert got == reference_slice(model, b)
        assert all(type(e["pole"]) is Fraction for e in got)

    def test_slice_unreduced_collision(self):
        model = HyperplaneLocus.make(1, [H((4,), 2), (H((2,), 1), 2), H((3,), -3)])
        assert specialize_slice(model, (1,)) == [
            {"pole": Fraction(-1, 2), "order_sum": 3, "generic": False},
            {"pole": Fraction(1), "order_sum": 1, "generic": True},
        ]

    @given(point_cases())
    @settings(max_examples=300)
    def test_contains_against_fraction_sums(self, case):
        locus, point = case
        assert locus.contains_rational_point(point) == reference_contains(locus, point)

    def test_contains_on_pieces(self):
        # the line s1 = s2 = -1/2 through a piece only, and points beside it
        locus = HyperplaneLocus.make(
            3, [H((0, 0, 1), 1)], [[H((2, 0, 0), 1), H((0, 2, 0), 1)]]
        )
        assert locus.contains_rational_point([Fraction(-1, 2), Fraction(-1, 2), Fraction(7, 3)])
        assert not locus.contains_rational_point([Fraction(-1, 2), Fraction(1, 2), Fraction(7, 3)])
        assert locus.contains_rational_point([Fraction(5), Fraction(1, 2), Fraction(-1)])
        assert not locus.contains_rational_point([0, 0, 0])

    def test_combine_against_translate_union(self, rng):
        with_pieces = 0
        for _ in range(200):
            r = rng.randint(2, 4)
            components = {
                j: random_locus(rng, r, rng.randint(0, 3), rng.randint(0, 2))
                for j in range(1, r + 1)
            }
            m = tuple(rng.randint(0, 3) for _ in range(r))
            if not any(m):
                m = (1,) * r
            pi = tuple(rng.sample(range(1, r + 1), r))
            got = combine_bm(components, m, pi)
            assert got == translate_union(components, m, pi)
            with_pieces += bool(got.pieces)
        assert with_pieces > 50


# ---------------------------------------------------------------------------
# Trusted builds against the validated ones


@st.composite
def hyperplane_lists(draw, r, max_size=6):
    """(hyperplane, multiplicity) pairs, some normals and members repeated."""
    pairs = draw(
        st.lists(st.tuples(normals(r), st.integers(-12, 12), st.integers(1, 3)), max_size=max_size)
    )
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=2)) if pairs else []
    return [(H(c, c0), mult) for c, c0, mult in pairs]


@st.composite
def piece_lists(draw, r, max_size=2):
    """Pieces of independent normals, listed in any member order."""
    pieces = []
    for _ in range(draw(st.integers(0, max_size if r > 1 else 0))):
        k = draw(st.integers(2, r))
        members = [H(c, draw(st.integers(-12, 12))) for c in draw(st.lists(normals(r), min_size=k, max_size=k))]
        if len(_rref([h.c for h in members], r)[0]) == k:
            pieces.append(members)
    return pieces


@st.composite
def locus_cases(draw, r=None):
    r = r or draw(st.integers(1, 4))
    return HyperplaneLocus.make(r, draw(hyperplane_lists(r)), draw(piece_lists(r)))


def assert_same_locus(got, want):
    """Field by field, down to the type of every member."""
    assert (got.r, got.hyperplanes, got.pieces) == (want.r, want.hyperplanes, want.pieces)
    assert type(got.hyperplanes) is tuple and type(got.pieces) is tuple
    members = [h for h, _ in got.hyperplanes] + [h for piece in got.pieces for h in piece]
    assert all(type(h) is AffineHyperplane and type(h.c) is tuple for h in members)
    assert all(type(piece) is tuple for piece in got.pieces)


def reference_propagate(model, steps):
    """Every translate H - w with w natural and |w| <= steps, at the largest
    order of a member it comes from; built by make."""
    orders = {}
    for h, order in model.hyperplanes:
        for w in itertools.product(range(steps + 1), repeat=model.r):
            if sum(w) <= steps:
                image = h.shifted(w)
                orders[image] = max(orders.get(image, 0), order)
    return HyperplaneLocus.make(model.r, list(orders.items()), model.pieces)


@st.composite
def containment_cases(draw):
    """Inner loci that share members with the outer one, some of them
    rescaled, next to members and pieces of their own."""
    r = draw(st.integers(1, 4))
    outer = draw(locus_cases(r))
    shared = [h for h in outer.members() if draw(st.booleans())]
    scale = draw(st.integers(1, 3))
    shared = [H(tuple(scale * x for x in h.c), scale * h.c0) for h in shared]
    own = draw(hyperplane_lists(r, max_size=2))
    pieces = draw(piece_lists(r))
    if outer.pieces and draw(st.booleans()):
        pieces.append(list(outer.pieces[0]))
    return HyperplaneLocus.make(r, shared + own, pieces), outer


class TestTrustedBuilds:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_combine_equals_validated_translates(self, data):
        r = data.draw(st.integers(1, 3))
        components = {j: data.draw(locus_cases(r)) for j in range(1, r + 1)}
        m = tuple(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any)))
        pi = tuple(data.draw(st.permutations(range(1, r + 1))))
        got = combine_bm(components, m, pi)
        assert_same_locus(got, translate_union(components, m, pi))
        assert_same_locus(got, HyperplaneLocus.make(r, got.hyperplanes, got.pieces))

    @given(locus_cases(), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_propagate_equals_validated(self, model, steps):
        got = propagate_polar(model, steps)
        assert_same_locus(got, reference_propagate(model, steps))

    @given(locus_cases())
    @settings(max_examples=150, deadline=None)
    def test_oblique_equals_validated(self, locus):
        got = oblique_part(locus)
        want = HyperplaneLocus.make(locus.r, [(h, m) for h, m in locus.hyperplanes if all(h.c)])
        assert_same_locus(got, want)

    @given(locus_cases())
    @settings(max_examples=100, deadline=None)
    def test_without_multiplicities_equals_validated(self, locus):
        got = locus.without_multiplicities()
        assert_same_locus(got, HyperplaneLocus.make(locus.r, locus.members(), locus.pieces))

    @given(st.integers(1, 4).flatmap(lambda r: normals(r, 12)), st.integers(-60, 60))
    @settings(max_examples=300)
    @example((6, 0), 4)
    @example((2, 4), 0)
    @example((3,), -7)
    def test_exp_hyperplane_equals_checked_divisor(self, c, c0):
        g = math.gcd(*c)
        xi = TorsionAngle(*TorsionAngle.make(-c0, g))  # make builds unchecked too
        want = PrimeTorusDivisor(tuple(x // g for x in c), xi)
        got = exp_hyperplane(H(c, c0))
        assert type(got) is PrimeTorusDivisor and type(got.xi) is TorsionAngle
        assert type(got.u) is tuple and [type(x) for x in got.u] == [int] * len(c)
        assert (got.u, got.xi.num, got.xi.den) == (want.u, want.xi.num, want.xi.den)
        assert got == want and hash(got) == hash(want)
        assert got.sort_key() == want.sort_key() and str(got) == str(want)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_locus_from_json_equals_make(self, data):
        r = data.draw(st.integers(1, 4))
        pairs = data.draw(hyperplane_lists(r))
        pieces = data.draw(piece_lists(r))
        obj = {
            "r": r,
            "hyperplanes": [
                {"c": list(h.c), "c0": h.c0, **({} if m == 1 and data.draw(st.booleans()) else {"mult": m})}
                for h, m in pairs
            ],
            "pieces": [{"hyperplanes": [{"c": list(h.c), "c0": h.c0} for h in p]} for p in pieces],
        }
        got = locus_from_json(obj)
        assert_same_locus(got, HyperplaneLocus.make(r, pairs, pieces))
        assert_same_locus(locus_from_json(locus_to_json(got)), got)

    @given(containment_cases())
    @settings(max_examples=200, deadline=None)
    def test_containment_equals_the_member_loop(self, case):
        inner, outer = case
        assert containment_check(inner, outer) == loop_containment_check(inner, outer)

    def test_contained_hyperplanes_are_not_parametrized(self, monkeypatch):
        # the first two members are outer ones rescaled; only the third,
        # missing from the outer locus, is searched
        inner = HyperplaneLocus.make(2, [H((1, 0), 1), H((2, 2), 4), H((3, 1), 5)])
        outer = HyperplaneLocus.make(2, [H((3, 0), 3), H((1, 1), 2)])
        searched = []
        original = bsloci._parametrize

        def counting(member):
            searched.append(member)
            return original(member)

        monkeypatch.setattr(bsloci, "_parametrize", counting)
        assert containment_check(inner, outer) == (False, [Fraction(-5, 3), 0])
        assert searched == [(H((3, 1), 5),)]


# ---------------------------------------------------------------------------
# Integer keys against the bodies they replaced (conftest oracles)


@st.composite
def pole_models(draw):
    """A polar model and a direction b: random members (normals not always
    primitive, c0 zero or negative too), pairs of members of different
    normals planted on one pole -k, and translates sharing a normal."""
    r = draw(st.integers(1, 4))
    b = tuple(draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)))
    pairs = draw(hyperplane_lists(r, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        k, mult = draw(st.integers(-6, 6)), draw(st.integers(1, 3))
        for c in draw(st.lists(normals(r), min_size=2, max_size=3, unique=True)):
            pairs.append((H(c, k * sum(x * y for x, y in zip(c, b))), mult))
    model = HyperplaneLocus.make(r, pairs, draw(piece_lists(r)))
    return propagate_polar(model, draw(st.integers(0, 2))), b


@st.composite
def filter_cases(draw):
    """A candidate (its normal not always primitive) and a locus holding
    rescaled translates (c, c0 - k sum(c)) of it, some beyond its box."""
    r = draw(st.integers(1, 4))
    c = draw(normals(r))
    c0 = draw(st.integers(1, 40))
    total = sum(c)
    planted = []
    for k in draw(st.lists(st.integers(0, c0 // total + 1), max_size=2)):
        scale = draw(st.integers(1, 3))
        planted.append(H(tuple(scale * x for x in c), scale * (c0 - k * total)))
    locus = HyperplaneLocus.make(r, planted + [h for h, _ in draw(hyperplane_lists(r))])
    return H(c, c0), locus


class TestIntegerKeys:
    @given(pole_models())
    @settings(max_examples=300, deadline=None)
    # one pole from members of different normals and of equal normals
    @example((HyperplaneLocus.make(2, [(H((1, 2), 6), 2), H((2, 1), 6), H((2, 4), 12), H((1, 1), 4)]), (1, 1)))
    @example((HyperplaneLocus.make(1, [(H((3,), 0), 2), H((6,), -4), H((2,), 0)]), (2,)))
    def test_slice_equals_the_fraction_pairs(self, case):
        model, b = case
        got = specialize_slice(model, b)
        assert got == oracle_specialize_slice(model, b)
        assert all(type(e["pole"]) is Fraction for e in got)

    @given(filter_cases())
    @settings(max_examples=300, deadline=None)
    @example((H((2, 2), 6), HyperplaneLocus.make(2, [H((1, 1), 3)])))
    @example((H((2, 4), 12), HyperplaneLocus.make(2, [H((3, 6), 0), H((1, 2), 3)])))
    def test_filter_equals_the_validated_translates(self, case):
        candidate, locus = case
        assert polar_candidate_filter(candidate, locus) == oracle_polar_candidate_filter(
            candidate, locus
        )

    @given(locus_cases())
    @settings(max_examples=200, deadline=None)
    def test_member_canonicals_equal_the_method(self, locus):
        assert locus.member_canonicals == oracle_member_canonicals(locus)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_combine_equals_the_generator_updates(self, data):
        r = data.draw(st.integers(1, 4))
        components = {j: data.draw(locus_cases(r)) for j in range(1, r + 1)}
        m = tuple(data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any)))
        pi = tuple(data.draw(st.permutations(range(1, r + 1))))
        assert_same_locus(combine_bm(components, m, pi), oracle_combine_bm(components, m, pi))

    @given(containment_cases())
    @settings(max_examples=200, deadline=None)
    def test_point_avoiding_equals_restricting_every_member_first(self, case):
        inner, outer = case
        outer_members = [(h,) for h in outer.members()] + list(outer.pieces)
        for member in [(h,) for h in inner.members()] + list(inner.pieces):
            got = bsloci._point_avoiding(member, outer_members)
            assert got == oracle_point_avoiding(member, outer_members)

    @given(locus_cases())
    @settings(max_examples=150, deadline=None)
    def test_locus_to_json_equals_the_member_helper(self, locus):
        got, want = locus_to_json(locus), oracle_locus_to_json(locus)
        assert json.dumps(got) == json.dumps(want)
