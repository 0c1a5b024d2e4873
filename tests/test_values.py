"""Contract tests of the validated values, the slotted stateful types and the
result records: constructor errors, repr, hashing, equality and order as the
field tuple, refused assignment, and copy and pickle round trips."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detloci import (
    AffineHyperplane,
    CycloElem,
    DeterminantalFactors,
    FreeComplex,
    HyperplaneLocus,
    IdealGens,
    PrimeTorusDivisor,
    Ring,
    SmithForm,
    SupportReport,
    TorsionAngle,
    TorusDivisor,
    TranslatedSubtorus,
    candidate_divisors,
    determinantal_factors,
    ideal_valuation,
    smith_normal_form,
    specialization_multiplicity,
    support_report,
)
from detloci.complexes import MinorEngine, matrix_make
from detloci.poly import fibres, parse_poly
from detloci.support import SpecializationRecord

from conftest import row_ideal

R1 = Ring(1, True)


def round_trips(value) -> list:
    """The value through pickle at every protocol, copy and deepcopy."""
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    return [pickle.loads(pickle.dumps(value, p)) for p in protocols] + [
        copy.copy(value),
        copy.deepcopy(value),
    ]


def assert_round_trips(value):
    for back in round_trips(value):
        assert type(back) is type(value)
        assert back == value and repr(back) == repr(value)


def assert_compares_as_fields(x, y, fx: tuple, fy: tuple):
    """Hash, equality and order of x and y are those of their field tuples."""
    assert hash(x) == hash(fx) and hash(y) == hash(fy)
    assert (x == y, x != y) == (fx == fy, fx != fy)
    assert (x < y, x <= y, x > y, x >= y) == (fx < fy, fx <= fy, fx > fy, fx >= fy)


angles = st.builds(TorsionAngle.make, st.integers(-12, 12), st.integers(1, 12))
supports = st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(
    lambda u: math.gcd(*u) == 1
)
divisors = st.builds(PrimeTorusDivisor, supports.map(tuple), angles)


class TestTorsionAngle:
    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_constructor_accepts_exactly_reduced_angles(self, num, den):
        if den <= 0:
            message = "denominator must be positive"
        elif math.gcd(num, den) != 1:
            message = "angle must be stored reduced"
        elif not 0 <= num < den:
            message = "angle must lie in [0, 1)"
        else:
            assert TorsionAngle(num, den) == TorsionAngle.make(num, den)
            return
        with pytest.raises(ValueError, match=f"^{message}".replace("[", r"\[").replace(")", r"\)")):
            TorsionAngle(num, den)

    @given(st.integers(-30, 30), st.integers(-12, 12).filter(bool))
    def test_make_equals_the_checked_constructor(self, num, den):
        angle = TorsionAngle.make(num, den)
        assert type(angle) is TorsionAngle and TorsionAngle(*angle) == angle
        assert angle.as_fraction() == Fraction(num, den) % 1

    @given(angles, angles)
    def test_compares_as_fields(self, a, b):
        assert_compares_as_fields(a, b, (a.num, a.den), (b.num, b.den))

    @given(angles)
    def test_round_trips(self, a):
        assert_round_trips(a)

    def test_repr_fields_and_assignment(self):
        a = TorsionAngle(1, 6)
        assert repr(a) == "TorsionAngle(num=1, den=6)" and str(a) == "1/6"
        assert (a.num, a.den) == (1, 6)
        with pytest.raises(AttributeError):
            a.num = 5


class TestPrimeTorusDivisor:
    @pytest.mark.parametrize(
        "u, message",
        [
            ((), "divisor support must be nonzero"),
            ((0, 0), "divisor support must be nonzero"),
            ((-1, 2), "divisor support must have natural entries"),
            ((2, 4), "divisor support must be primitive"),
        ],
    )
    def test_constructor_errors(self, u, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PrimeTorusDivisor(u, TorsionAngle(0, 1))

    @given(divisors, divisors)
    def test_compares_as_fields(self, d, e):
        assert_compares_as_fields(d, e, (d.u, (d.xi.num, d.xi.den)), (e.u, (e.xi.num, e.xi.den)))

    @given(divisors)
    def test_round_trips(self, d):
        assert_round_trips(d)

    def test_repr_and_assignment(self):
        d = PrimeTorusDivisor((1, 2), TorsionAngle(1, 6))
        assert repr(d) == "PrimeTorusDivisor(u=(1, 2), xi=TorsionAngle(num=1, den=6))"
        assert str(d) == "{t1*t2^2=e(1/6)}"
        with pytest.raises(AttributeError):
            d.xi = TorsionAngle(0, 1)


class TestTranslatedSubtorus:
    def test_constructor_errors(self):
        with pytest.raises(ValueError, match="^a translated subtorus needs at least one equation$"):
            TranslatedSubtorus(())
        dependent = (((1, 1), TorsionAngle(0, 1)), ((2, 2), TorsionAngle(1, 2)))
        with pytest.raises(ValueError, match="^subtorus equations must be linearly independent$"):
            TranslatedSubtorus(dependent)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), angles), min_size=2, max_size=2))
    @settings(max_examples=60)
    def test_compares_as_sorted_fields(self, rows):
        equations = [((a, b), xi) for a, b, xi in rows]
        if a_dependent_pair(equations):
            return
        s, t = TranslatedSubtorus(equations), TranslatedSubtorus(equations[::-1])
        fields = (tuple(sorted(equations)),)
        assert s.equations == fields[0] and s == t
        assert_compares_as_fields(s, t, fields, fields)
        assert_round_trips(s)

    def test_repr_and_assignment(self):
        s = TranslatedSubtorus((((1, 0), TorsionAngle(1, 6)), ((0, 1), TorsionAngle(0, 1))))
        assert repr(s) == (
            "TranslatedSubtorus(equations=(((0, 1), TorsionAngle(num=0, den=1)), "
            "((1, 0), TorsionAngle(num=1, den=6))))"
        )
        assert s.codimension == 2
        with pytest.raises(AttributeError):
            s.equations = ()


def a_dependent_pair(equations) -> bool:
    (u, _), (v, _) = equations
    return u[0] * v[1] == u[1] * v[0]


class TestRing:
    def test_constructor_errors_and_default(self):
        with pytest.raises(ValueError, match="^ring needs at least one variable$"):
            Ring(0, True)
        with pytest.raises(ValueError, match="^cyclotomic order must be positive$"):
            Ring(1, True, 0)
        assert Ring(2, False) == Ring(2, False, 1)

    @given(
        st.tuples(st.integers(1, 3), st.booleans(), st.integers(1, 6)),
        st.tuples(st.integers(1, 3), st.booleans(), st.integers(1, 6)),
    )
    def test_compares_as_fields(self, f, g):
        assert_compares_as_fields(Ring(*f), Ring(*g), f, g)
        assert_round_trips(Ring(*f))

    def test_repr_and_assignment(self):
        ring = Ring(2, True, 6)
        assert repr(ring) == "Ring(nvars=2, laurent=True, cyclotomic_order=6)"
        assert ring.with_order(4) == Ring(2, True, 12)
        with pytest.raises(AttributeError):
            ring.nvars = 3


class TestAffineHyperplane:
    @given(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), st.integers(-5, 5)),
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), st.integers(-5, 5)),
    )
    def test_compares_as_fields(self, f, g):
        assert_compares_as_fields(AffineHyperplane(*f), AffineHyperplane(*g), f, g)
        assert_round_trips(AffineHyperplane(*f))


def sample_locus() -> HyperplaneLocus:
    pieces = [[AffineHyperplane((1, 0), 1), AffineHyperplane((0, 1), 0)]]
    return HyperplaneLocus.make(2, [(AffineHyperplane((1, 2), -3), 2)], pieces)


class TestHyperplaneLocus:
    def test_make_errors(self):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            HyperplaneLocus.make(0, [])
        with pytest.raises(ValueError, match="^hyperplane multiplicity must be >= 1$"):
            HyperplaneLocus.make(1, [(AffineHyperplane((1,), 0), 0)])

    def test_repr(self):
        assert repr(sample_locus()) == (
            "HyperplaneLocus(r=2, hyperplanes=((AffineHyperplane(c=(1, 2), c0=-3), 2),), "
            "pieces=((AffineHyperplane(c=(0, 1), c0=0), AffineHyperplane(c=(1, 0), c0=1)),))"
        )

    @given(
        st.integers(1, 2),
        st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 2)), max_size=3),
        st.integers(1, 2),
        st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3), st.integers(1, 2)), max_size=3),
    )
    def test_compares_and_hashes_as_fields(self, r, rows, s, others):
        x = HyperplaneLocus.make(r, [(AffineHyperplane((c,) * r, c0), m) for c, c0, m in rows])
        y = HyperplaneLocus.make(s, [(AffineHyperplane((c,) * s, c0), m) for c, c0, m in others])
        fx, fy = (x.r, x.hyperplanes, x.pieces), (y.r, y.hyperplanes, y.pieces)
        assert hash(x) == hash(fx) and (x == y) == (fx == fy) and (x != y) == (fx != fy)
        assert x.__eq__(fx) is NotImplemented and x != fx

    def test_member_canonicals_fill_their_slot_once(self):
        locus = HyperplaneLocus.make(1, [AffineHyperplane((2,), 4), AffineHyperplane((1,), 2)])
        first = locus.member_canonicals
        assert first == {((1,), 2)} and locus.member_canonicals is first
        assert not hasattr(locus, "__dict__")

    def test_assignment_and_round_trips(self):
        locus = sample_locus()
        for name in ("r", "hyperplanes", "pieces", "member_canonicals", "other"):
            with pytest.raises(AttributeError, match="^HyperplaneLocus values are immutable$"):
                setattr(locus, name, None)
        locus.member_canonicals
        assert_round_trips(locus)
        assert round_trips(locus)[-1].member_canonicals == locus.member_canonicals


class TestIdealGens:
    def test_make_error(self):
        with pytest.raises(ValueError, match="^generator has wrong number of variables$"):
            IdealGens.make(R1, [parse_poly("t1+t2", Ring(2, True))])

    def test_repr(self):
        f = parse_poly("t1-1", R1)
        formed = IdealGens.make(R1, [f])
        shown = "IdealGens(ring=Ring(nvars=1, laurent=True, cyclotomic_order=1), parts=(), minors=())"
        assert repr(formed) == shown
        assert repr(IdealGens.sum_of_products(R1, [(formed, formed)])) == (
            "IdealGens(ring=Ring(nvars=1, laurent=True, cyclotomic_order=1), "
            f"parts=(({shown}, {shown}),), minors=())"
        )
        # an engine-held ideal shows its engine by value
        assert repr(row_ideal(R1, [f, f * f])) == (
            "IdealGens(ring=Ring(nvars=1, laurent=True, cyclotomic_order=1), parts=(), "
            "minors=(MinorEngine(mat=((LaurentPoly(t1-1), LaurentPoly(t1^2-2*t1+1)),), "
            "nvars=1, order=1), 1))"
        )

    def test_gens_fill_their_slot_once(self):
        f = parse_poly("t1^2-1", R1)
        ideal = row_ideal(R1, [f, f * f])
        first = ideal.gens
        assert first == IdealGens.make(R1, [f, f * f]).gens and ideal.gens is first
        assert not hasattr(ideal, "__dict__")

    def test_equality_hash_and_assignment(self):
        f, g = parse_poly("t1-1", R1), parse_poly("2*t1-2", R1)
        assert row_ideal(R1, [f]) == IdealGens.make(R1, [g])
        assert IdealGens.make(R1, [f]) != IdealGens.unit_ideal(R1)
        with pytest.raises(TypeError):
            hash(IdealGens.make(R1, [f]))
        ideal = IdealGens.make(R1, [f])
        for name in ("ring", "minors", "valuations", "gens"):
            with pytest.raises(AttributeError, match="^IdealGens values are immutable$"):
                setattr(ideal, name, None)

    def test_round_trips(self):
        f = parse_poly("t1-1", R1)
        one = IdealGens.unit_ideal(R1)
        divisor = PrimeTorusDivisor((1,), TorsionAngle(0, 1))
        formed = IdealGens.make(R1, [f * f])
        assert ideal_valuation(formed, divisor) == 2
        for ideal in (formed, IdealGens.sum_of_products(R1, [(one, formed)])):
            assert_round_trips(ideal)
        assert round_trips(formed)[-1].valuations == {divisor: 2}
        # an engine-held ideal round-trips with its repr, its matrix and size
        # and its valuations; pickled, its engine is rebuilt from (mat, nvars,
        # order), without the minors and eliminations it has computed
        minors = row_ideal(R1, [f, f * f])
        shown = repr(minors)
        assert ideal_valuation(minors, divisor) == 1 and minors.minors[0]._memo
        for back in round_trips(minors):
            assert type(back) is IdealGens and back == minors and repr(back) == shown
            assert (back.minors[0].mat, back.minors[1]) == (minors.minors[0].mat, 1)
            assert back.valuations == {divisor: 1} and ideal_valuation(back, divisor) == 1
        for back in round_trips(minors)[:-2]:
            engine = back.minors[0]
            assert not (engine._memo or engine._nonzero or engine._listed)
            assert not (engine._eliminations or engine._images)

    def test_engine_round_trips_without_its_work(self):
        """A minor engine pickles and copies as (mat, nvars, order), whatever
        it has expanded, listed or eliminated, and without the listed minors
        or the images modulo p that it keeps; its repr is that of those
        three.  Row 0 vanishes along {t1 = 1}, so the elimination of size 2
        starts from a certified block."""
        ring = Ring(2, True, 3)
        mat = matrix_make([[parse_poly(t, ring) for t in row] for row in
                           (("t1-1", "t1*t2-t2", "0"), ("1", "t1*t2-e(1/3)", "t2+2"), ("t1", "3", "t1-1"))])
        engine = MinorEngine(mat, 2, 3)
        fresh = repr(engine)
        divisor = PrimeTorusDivisor((1, 0), TorsionAngle(0, 1))
        values = [engine.valuation(m, divisor) for m in (1, 2, 3)]
        assert engine._memo and engine._listed and repr(engine) == fresh
        assert engine._eliminations and engine._images
        for back in round_trips(engine):
            assert type(back) is MinorEngine and repr(back) == fresh
            assert (back.mat, back.nvars, back.order) == (mat, 2, 3)
            assert not (back._memo or back._nonzero or back._listed)
            assert not (back._eliminations or back._images)
            assert [back.valuation(m, divisor) for m in (1, 2, 3)] == values


def koszul() -> FreeComplex:
    ring = Ring(2, True)
    t1, t2 = parse_poly("t1-1", ring), parse_poly("t2-1", ring)
    return FreeComplex.make(
        ring, (0, 2), {0: 1, 1: 2, 2: 1}, {0: [[t1], [t2]], 1: [[t2, -t1]]}
    )


class TestFreeComplex:
    def test_make_error(self):
        with pytest.raises(ValueError, match="^empty degree range$"):
            FreeComplex.make(R1, (1, 0), {}, {})

    def test_repr_without_minor_cache(self):
        one = parse_poly("t1-1", R1)
        complex_ = FreeComplex.make(R1, (0, 1), {0: 1, 1: 1}, {0: [[one]]})
        candidate_divisors(complex_)
        assert complex_.minor_cache
        assert repr(complex_) == (
            "FreeComplex(ring=Ring(nvars=1, laurent=True, cyclotomic_order=1), imin=0, imax=1, "
            "ranks={0: 1, 1: 1}, diffs={0: ((LaurentPoly(t1-1),),)})"
        )

    def test_equality_hash_and_assignment(self):
        f, g = koszul(), koszul()
        candidate_divisors(f)
        assert f == g and f.minor_cache and not g.minor_cache
        assert f != FreeComplex.make(Ring(2, True), (0, 1), {0: 1, 1: 2}, {})
        assert f.__eq__((f.ring, f.imin, f.imax, f.ranks, f.diffs)) is NotImplemented
        with pytest.raises(TypeError):
            hash(f)
        for name in ("ring", "imin", "diffs", "minor_cache"):
            with pytest.raises(AttributeError, match="^FreeComplex values are immutable$"):
                setattr(f, name, None)
        assert not hasattr(f, "__dict__")

    def test_round_trips(self):
        assert_round_trips(koszul())


class TestRecords:
    """The result records are named tuples: fields by name, repr as the
    dataclasses had it, equality of the field tuple, no assignment."""

    def records(self) -> list:
        f = parse_poly("t1-1", R1)
        complex_ = FreeComplex.make(R1, (0, 1), {0: 1, 1: 1}, {0: [[f]]})
        candidates = candidate_divisors(complex_)
        return [
            smith_normal_form([[f, f], [f * f, f]]),
            determinantal_factors([[parse_poly("2", R1)]]),
            support_report(complex_, candidates),
            specialization_multiplicity(complex_, candidates[0], 0, candidates),
        ]

    def test_reprs(self):
        smith, factors, report, record = self.records()
        assert repr(smith) == (
            "SmithForm(u=((LaurentPoly(1), LaurentPoly(0)), (LaurentPoly(t1-1), LaurentPoly(-1))), "
            "v=((LaurentPoly(1), LaurentPoly(-1)), (LaurentPoly(0), LaurentPoly(1))), "
            "diagonal=(LaurentPoly(t1-1), LaurentPoly(t1^2-3*t1+2)))"
        )
        assert repr(factors) == (
            "DeterminantalFactors(b=(LaurentPoly(t1-2), LaurentPoly(1)), minimal=LaurentPoly(t1-2))"
        )
        assert repr(report) == (
            "SupportReport(candidates=(PrimeTorusDivisor(u=(1,), xi=TorsionAngle(num=0, den=1)),), "
            "delta0={0: TorusDivisor(0), 1: TorusDivisor(1*{t1=e(0/1)})}, "
            "delta1={0: TorusDivisor(0), 1: TorusDivisor(0)}, "
            "minimal={0: TorusDivisor(0), 1: TorusDivisor(1*{t1=e(0/1)})})"
        )
        assert repr(record) == (
            "SpecializationRecord(ord=0, jordan=0, lam=TorsionAngle(num=1, den=2), b=(2,), generic=True)"
        )
        assert smith.rank == 2

    def test_fields_equality_and_assignment(self):
        for record in self.records():
            fields = tuple(getattr(record, name) for name in record._fields)
            assert record == type(record)(*fields) and tuple(record) == fields
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
        record = self.records()[-1]
        assert hash(record) == hash(tuple(record))
        assert type(record) is SpecializationRecord
        assert [type(r) for r in self.records()[:3]] == [
            SmithForm,
            DeterminantalFactors,
            SupportReport,
        ]

    def test_round_trips(self):
        for record in self.records():
            assert_round_trips(record)


class TestFrozenSlots:
    """The other immutable slotted types share the refusal; polynomials,
    formal divisors, which the records hold, and field elements also
    round-trip."""

    def test_assignment_and_round_trips(self):
        f = parse_poly("e(1/3)*t1-1/2", R1)
        fibres(f, (1,))  # fills the fibre memo, which round-trips with the value
        divisor = TorusDivisor({PrimeTorusDivisor((1,), TorsionAngle(1, 3)): 2})
        elem = CycloElem.make(6, [Fraction(1, 2), Fraction(-3)])
        for value, name in ((f, "rows"), (divisor, "coeffs"), (elem, "den")):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} values are immutable$"):
                setattr(value, name, None)
        assert_round_trips(f)
        assert_round_trips(divisor)

    @pytest.mark.parametrize("order", [1, 6, 12])
    def test_field_elements_round_trip(self, order):
        elem = CycloElem.make(order, [Fraction(1, 2), Fraction(-3)])
        assert_round_trips(elem)
        for back in round_trips(elem):
            assert (back.order, back.nums, back.den) == (elem.order, elem.nums, elem.den)
