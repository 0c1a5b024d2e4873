import ast
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detloci.arith import cyclotomic_poly
from detloci.cli import main
from detloci.io import locus_to_json
from detloci.poly import Ring, format_poly, parse_poly
from detloci.fixtures import ex71_loci, ex72_loci


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def ex71_bf_file(tmp_path):
    return write_json(tmp_path / "ex71_bf.json", locus_to_json(ex71_loci()["bf"]))


@pytest.fixture
def complex_file(tmp_path):
    payload = {
        "ring": {"nvars": 2, "laurent": True, "cyclotomic_order": 1},
        "degrees": [0, 1],
        "ranks": {"0": 2, "1": 2},
        "differentials": {
            "0": [
                ["t1^2*t2^2-2*e(1/3)*t1*t2+e(2/3)", "0"],
                ["0", "t1*t2-e(1/3)"],
            ]
        },
    }
    return write_json(tmp_path / "complex.json", payload)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExp:
    def test_first_example_divisors(self, capsys, ex71_bf_file):
        code, out, _ = run_cli(capsys, ["exp", "--locus", ex71_bf_file])
        assert code == 0
        data = json.loads(out)
        got = {(tuple(d["u"]), d["xi"]) for d in data["divisors"]}
        assert got == {
            ((1, 0), "1/6"),
            ((1, 0), "5/6"),
            ((1, 0), "0/1"),
            ((0, 1), "0/1"),
            ((1, 1), "1/3"),
            ((1, 1), "2/3"),
        }

    def test_byte_identical_output(self, capsys, ex71_bf_file):
        _, first, _ = run_cli(capsys, ["exp", "--locus", ex71_bf_file])
        _, second, _ = run_cli(capsys, ["exp", "--locus", ex71_bf_file])
        assert first == second


class TestSlopesOblique:
    def test_slopes(self, capsys, ex71_bf_file):
        code, out, _ = run_cli(capsys, ["slopes", "--locus", ex71_bf_file])
        data = json.loads(out)
        assert code == 0
        assert data["slopes"] == [[0, 1], [1, 0], [1, 1]]
        assert data["oblique_slopes"] == [[1, 1]]

    def test_oblique(self, capsys, ex71_bf_file):
        code, out, _ = run_cli(capsys, ["oblique", "--locus", ex71_bf_file])
        data = json.loads(out)
        assert {(tuple(d["u"]), d["xi"]) for d in data["exp"]} == {
            ((1, 1), "1/3"),
            ((1, 1), "2/3"),
        }


class TestCombine:
    def test_second_example_swapped(self, capsys, tmp_path):
        loci = ex72_loci()
        e1 = write_json(tmp_path / "be1.json", locus_to_json(loci["be1"]))
        e2 = write_json(tmp_path / "be2.json", locus_to_json(loci["be2"]))
        code, out, _ = run_cli(
            capsys,
            ["combine", "--m", "1,1", "--e1", e1, "--e2", e2, "--pi", "2,1"],
        )
        assert code == 0
        data = json.loads(out)
        got = {(tuple(h["c"]), h["c0"]) for h in data["locus"]["hyperplanes"]}
        expected = {((1, 0), 1), ((0, 1), 1)}
        expected |= {((8, 0), k) for k in (5, 7, 9, 11)}
        expected |= {((4, 1), k) for k in range(3, 10)}
        assert got == expected

    def test_negative_exponent_exit_2(self, capsys, tmp_path):
        loci = ex72_loci()
        e1 = write_json(tmp_path / "be1.json", locus_to_json(loci["be1"]))
        e2 = write_json(tmp_path / "be2.json", locus_to_json(loci["be2"]))
        code, out, err = run_cli(capsys, ["combine", "--m=-1,1", "--e1", e1, "--e2", e2])
        assert code == 2 and not out
        assert err == "input error: the exponent vector must be natural\n"

    def test_component_outside_the_coordinates_exit_2(self, capsys, tmp_path):
        e1 = write_json(tmp_path / "be1.json", locus_to_json(ex72_loci()["be1"]))
        code, out, err = run_cli(capsys, ["combine", "--m", "1,0", "--e1", e1, "--e5", e1])
        assert code == 2 and not out
        assert err == "input error: component 5 is not a coordinate 1..2\n"


class TestContain:
    def test_true_and_false_exit_codes(self, capsys, tmp_path):
        loci = ex71_loci()
        bfi = write_json(tmp_path / "bfi.json", locus_to_json(loci["bfi"]))
        bf = write_json(tmp_path / "bf.json", locus_to_json(loci["bf"]))
        code, out, _ = run_cli(capsys, ["contain", "--inner", bfi, "--outer", bf])
        assert code == 0 and json.loads(out)["contained"]
        code, out, _ = run_cli(capsys, ["contain", "--inner", bf, "--outer", bfi])
        data = json.loads(out)
        assert code == 1 and not data["contained"]
        assert "witness" in data

    def test_witness_beyond_the_grid(self, capsys, tmp_path):
        # s2 = v for every v in [-64, 64] blocks the whole grid of s1 = 0
        inner = {"r": 2, "hyperplanes": [{"c": [1, 0], "c0": 0}]}
        outer = {"r": 2, "hyperplanes": [{"c": [0, 1], "c0": v} for v in range(-64, 65)]}
        code, out, err = run_cli(
            capsys,
            [
                "contain",
                "--inner", write_json(tmp_path / "inner.json", inner),
                "--outer", write_json(tmp_path / "outer.json", outer),
            ],
        )
        assert code == 1 and not err
        assert json.loads(out) == {"contained": False, "witness": ["0", "65"]}


class TestFilterSlice:
    def test_filter(self, capsys, ex71_bf_file):
        code, out, _ = run_cli(
            capsys,
            ["filter", "--locus", ex71_bf_file, "--c", "3,3", "--c0", "10"],
        )
        assert code == 0 and json.loads(out) == {"k": 1, "m": 1}
        code, out, _ = run_cli(
            capsys,
            ["filter", "--locus", ex71_bf_file, "--c", "3,3", "--c0", "1"],
        )
        assert code == 0 and json.loads(out) == {"m": 0, "rejected": True}

    def test_filter_dimension_mismatch_exit_2(self, capsys, ex71_bf_file):
        code, out, err = run_cli(
            capsys,
            ["filter", "--locus", ex71_bf_file, "--c", "1,1,1", "--c0", "3"],
        )
        assert code == 2 and not out
        assert err.startswith("input error:") and "dimension" in err

    def test_slice(self, capsys, ex71_bf_file):
        code, out, _ = run_cli(capsys, ["slice", "--model", ex71_bf_file, "--b", "1,2"])
        data = json.loads(out)
        assert code == 0
        assert len(data["poles"]) == 8
        assert all(e["generic"] for e in data["poles"])
        assert {e["pole"] for e in data["poles"]} == {
            "-5/6", "-1", "-7/6", "-1/2", "-4/9", "-5/9", "-7/9", "-8/9",
        }

    def test_propagate(self, capsys, tmp_path):
        model = write_json(
            tmp_path / "model.json",
            {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 1, "mult": 1}]},
        )
        code, out, _ = run_cli(capsys, ["propagate", "--model", model, "--steps", "1"])
        data = json.loads(out)
        got = {(tuple(h["c"]), h["c0"], h["mult"]) for h in data["model"]["hyperplanes"]}
        assert got == {((1, 1), 1, 1), ((1, 1), 2, 1)}


class TestIntegerLists:
    """An empty item of a comma-separated list, or one spelled other than
    -?[0-9]+ in ASCII, is an input error, named after the faults each
    command checks first."""

    @pytest.mark.parametrize("text", ["1,,2", "1,2,", ",1", "", "1_0", "+3", " 4", "4 ", "\u0663"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["slice", "--model", "L", "--b", "X"],
            ["filter", "--locus", "L", "--c", "X", "--c0", "3"],
            ["combine", "--m", "X", "--e1", "L", "--e2", "L"],
            ["combine", "--m", "1,1", "--e1", "L", "--e2", "L", "--pi", "X"],
        ],
    )
    def test_empty_item_exit_2(self, capsys, ex71_bf_file, argv, text):
        argv = [{"L": ex71_bf_file, "X": text}.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"input error: expected a comma-separated integer list, got {text!r}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["slice", "--model", "MISSING", "--b", "1,,2"],
            ["filter", "--locus", "MISSING", "--c", "1,,2", "--c0", "3"],
        ],
    )
    def test_locus_read_before_the_list(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, [missing if a == "MISSING" else a for a in argv])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot read {missing}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["slice", "--model", "L", "--b", "-1,2"], "direction entries must be positive"),
            (["filter", "--locus", "L", "--c", "-1,0", "--c0", "3"],
             "hyperplane normal must have natural entries"),
            (["combine", "--m", "-1,2", "--e1", "L", "--e2", "L"], "the exponent vector must be natural"),
        ],
    )
    def test_leading_minus_reaches_the_command(self, capsys, ex71_bf_file, argv, message):
        """A list that starts with a minus is the command's input error, spelled
        as a separate argument or after "=" alike, not an argparse usage error."""
        argv = [ex71_bf_file if a == "L" else a for a in argv]
        k = next(k for k, a in enumerate(argv) if a.startswith("-") and a[1:2].isdigit())
        joined = argv[: k - 1] + [f"{argv[k - 1]}={argv[k]}"] + argv[k + 1 :]
        for spelling in (argv, joined):
            code, out, err = run_cli(capsys, spelling)
            assert (code, out, err) == (2, "", f"input error: {message}\n")

    def test_combine_reads_m_before_the_components(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        code, out, err = run_cli(capsys, ["combine", "--m", "1,,2", "--e1", missing])
        assert (code, out) == (2, "")
        assert err == "input error: expected a comma-separated integer list, got '1,,2'\n"


class TestComplexCommands:
    def test_cdf(self, capsys, complex_file):
        code, out, _ = run_cli(
            capsys, ["cdf", "--complex", complex_file, "--degree", "1", "--k", "1"]
        )
        data = json.loads(out)
        assert code == 0
        assert data["generators"] == [
            "t1*t2-e(1/3)",
            "t1^2*t2^2-2*e(1/3)*t1*t2-1-e(1/3)",
        ]
        assert data["ring"]["cyclotomic_order"] == 3

    def test_jump(self, capsys, complex_file):
        code, out, _ = run_cli(
            capsys, ["jump", "--complex", complex_file, "--degree", "1", "--k", "2"]
        )
        data = json.loads(out)
        assert data["generators"] == [
            "t1*t2-e(1/3)",
            "t1^2*t2^2-2*e(1/3)*t1*t2-1-e(1/3)",
        ]

    def test_support(self, capsys, complex_file):
        code, out, _ = run_cli(
            capsys, ["support", "--complex", complex_file, "--bound", "3"]
        )
        data = json.loads(out)
        assert code == 0
        assert data["candidates"] == [{"u": [1, 1], "xi": "1/3"}]
        row = data["ord_jordan_table"]
        assert row == [
            {
                "degree": 1,
                "divisor": {"u": [1, 1], "xi": "1/3"},
                "ord": 2,
                "jordan": 2,
                "lambda": "1/6",
                "b": [1, 1],
                "generic": True,
            }
        ]

    def test_support_rank_zero_after_nonzero_degree(self, capsys, tmp_path):
        path = write_json(
            tmp_path / "rank0.json",
            {
                "ring": {"nvars": 1, "laurent": True},
                "degrees": [0, 2],
                "ranks": {"0": 1, "1": 1, "2": 0},
                "differentials": {"0": [["t1-1"]]},
            },
        )
        code, out, _ = run_cli(capsys, ["support", "--complex", path, "--bound", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["candidates"] == [{"u": [1], "xi": "0/1"}]
        assert data["degrees"]["1"]["minimal"] == [{"u": [1], "xi": "0/1", "mult": 1}]
        [row] = data["ord_jordan_table"]
        assert row["degree"] == 1
        assert row["ord"] == row["jordan"] == 1
        assert row["generic"] is True

    def test_support_skips_non_torsion_base_change(self, capsys, tmp_path):
        # b = (1, 1) sends t1-t2 to 0, so the search moves on to b = (1, 2)
        path = write_json(
            tmp_path / "diagonal.json",
            {
                "ring": {"nvars": 2, "laurent": True},
                "degrees": [0, 1],
                "ranks": {"0": 2, "1": 2},
                "differentials": {"0": [["t1-e(1/3)", "0"], ["0", "t1-t2"]]},
            },
        )
        code, out, _ = run_cli(capsys, ["support", "--complex", path, "--bound", "3"])
        assert code == 0
        [row] = json.loads(out)["ord_jordan_table"]
        assert row["b"] == [1, 2]
        assert row["ord"] == row["jordan"] == 1
        assert row["generic"] is True

    @pytest.mark.parametrize(
        "ranks, diffs, degree",
        [
            # 0 -> R --1--> R --0--> R -> 0: H^0 = H^1 = 0, H^2 = R
            ({"0": 1, "1": 1, "2": 1}, {"0": [["1"]], "1": [["0"]]}, 2),
            # R --0--> R --(t1-1)--> R --0--> R: H^0 = R, H^1 = 0
            ({"0": 1, "1": 1, "2": 1, "3": 1}, {"0": [["0"]], "1": [["t1-1"]], "2": [["0"]]}, 0),
        ],
    )
    def test_support_names_lowest_non_torsion_degree(self, capsys, tmp_path, ranks, diffs, degree):
        path = write_json(
            tmp_path / "c.json",
            {
                "ring": {"nvars": 1, "laurent": True},
                "degrees": [0, len(ranks) - 1],
                "ranks": ranks,
                "differentials": diffs,
            },
        )
        code, out, err = run_cli(capsys, ["support", "--complex", path])
        assert (code, out) == (2, "")
        assert err == f"input error: cohomology in degree {degree} is not torsion\n"

    def test_support_one_base_change_per_b(self, capsys, tmp_path, monkeypatch):
        # both divisors take their generic point at b = (1, 1), so the two
        # table rows share one base change and its Smith diagonals
        import detloci.support as support_module

        path = write_json(
            tmp_path / "shared_b.json",
            {
                "ring": {"nvars": 2, "laurent": True},
                "degrees": [0, 1],
                "ranks": {"0": 2, "1": 2},
                "differentials": {
                    "0": [["t1*t2-e(1/3)", "0"], ["0", "t1*t2-e(2/3)"]]
                },
            },
        )
        calls = []
        real = support_module.base_change

        def counting(complex_, b):
            calls.append(tuple(b))
            return real(complex_, b)

        monkeypatch.setattr(support_module, "base_change", counting)
        code, out, _ = run_cli(capsys, ["support", "--complex", path, "--bound", "2"])
        assert code == 0
        rows = json.loads(out)["ord_jordan_table"]
        assert [row["b"] for row in rows] == [[1, 1], [1, 1]]
        assert [row["lambda"] for row in rows] == ["1/6", "1/3"]
        assert all(row["ord"] == row["jordan"] == 1 for row in rows)
        assert calls == [(1, 1)]

    def test_support_generic_search_has_no_cap(self, capsys, tmp_path):
        # the 22 divisors {t2 = zeta}, ord zeta <= 8, block every b with b1 <= 8
        # for {t1 = 1}, so its first generic point is b = (9, 1)
        ring = Ring(2, True, 1)
        poly = parse_poly("t1-1", ring)
        for m in range(1, 9):
            coeffs = enumerate(cyclotomic_poly(m))
            poly = poly * parse_poly("".join(f"{c:+d}*t2^{k}" for k, c in coeffs), ring)
        path = write_json(
            tmp_path / "cyclotomic.json",
            {
                "ring": {"nvars": 2, "laurent": True},
                "degrees": [0, 1],
                "ranks": {"0": 1, "1": 1},
                "differentials": {"0": [[format_poly(poly)]]},
            },
        )
        code, out, _ = run_cli(capsys, ["support", "--complex", path, "--bound", "1"])
        assert code == 0
        data = json.loads(out)
        assert len(data["candidates"]) == 23
        assert {
            "degree": 1,
            "divisor": {"u": [1, 0], "xi": "0/1"},
            "ord": 1,
            "jordan": 1,
            "lambda": "1/9",
            "b": [9, 1],
            "generic": True,
        } in data["ord_jordan_table"]

    def test_support_bound_is_ignored(self, capsys, complex_file):
        outputs = []
        for extra in ([], ["--bound", "0"], ["--bound", "1"], ["--bound", "4"]):
            code, out, err = run_cli(capsys, ["support", "--complex", complex_file, *extra])
            assert (code, err) == (0, "")
            outputs.append(out)
        assert outputs[1:] == outputs[:1] * 3

    @pytest.mark.parametrize("entry", ["t1-e(1/3)*t2", "t1+t2+1"])
    def test_support_without_binomial_support(self, capsys, tmp_path, entry):
        # a binomial of mixed-sign direction, and a curve with no binomial
        # factor: neither is a candidate, and the report is empty, not an error
        path = write_json(
            tmp_path / "unsupported.json",
            {
                "ring": {"nvars": 2, "laurent": True},
                "degrees": [0, 1],
                "ranks": {"0": 1, "1": 1},
                "differentials": {"0": [[entry]]},
            },
        )
        code, out, err = run_cli(capsys, ["support", "--complex", path])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["candidates"] == [] and data["ord_jordan_table"] == []
        empty = {"delta0": [], "delta1": [], "minimal": []}
        assert data["degrees"] == {"0": empty, "1": empty}


class TestSmithCommands:
    def test_smith(self, capsys, tmp_path):
        matrix = write_json(
            tmp_path / "matrix.json",
            {
                "ring": {"nvars": 1, "laurent": False, "cyclotomic_order": 1},
                "rows": [["s1", "1"], ["0", "s1"]],
            },
        )
        code, out, _ = run_cli(capsys, ["smith", "--matrix", matrix])
        data = json.loads(out)
        assert code == 0
        assert data["diagonal"] == ["1", "s1^2"]

    def test_detfactors(self, capsys, tmp_path):
        matrix = write_json(
            tmp_path / "phi.json",
            {
                "ring": {"nvars": 1, "laurent": False, "cyclotomic_order": 6},
                "rows": [["e(1/6)", "1"], ["0", "e(1/6)"]],
            },
        )
        code, out, _ = run_cli(capsys, ["detfactors", "--matrix", matrix])
        data = json.loads(out)
        assert code == 0
        assert data["b"][1] == "1"
        assert data["minimal_polynomial"] == data["b"][0]

    def test_detfactors_empty_matrix(self, capsys, tmp_path):
        matrix = write_json(
            tmp_path / "empty.json", {"ring": {"nvars": 1, "laurent": False}, "rows": []}
        )
        code, out, _ = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert code == 0
        assert json.loads(out) == {"b": ["1"], "minimal_polynomial": "1"}


GOLDEN = Path(__file__).parent / "golden"

# (cyclotomic order, rows) of fixed matrices whose full `detloci smith` stdout
# is pinned in golden/smith_<name>.out, so any change in pivot order shows up
SMITH_GOLDEN = {
    "empty": (1, []),
    "order1_nonmonic_wide": (1, [["2*s1+1", "3*s1^2", "s1"], ["4*s1^2-1", "6*s1", "2*s1^2+s1"]]),
    "order1_square": (
        1,
        [["3*s1^2-3", "2*s1+2", "0"], ["s1^2", "s1^3-s1", "5"], ["2*s1-2", "0", "7*s1^2"]],
    ),
    # third row = (s1+1) * first row + e(1/4) * second row
    "order4_rank_deficient": (
        4,
        [
            ["s1-e(1/4)", "2*s1", "1/2*s1^2+e(1/4)"],
            ["3*e(1/4)*s1+1", "s1^2-1", "0"],
            [
                "s1^2-2*s1-e(1/4)*s1",
                "2*s1^2+e(1/4)*s1^2+2*s1-e(1/4)",
                "1/2*s1^3+1/2*s1^2+e(1/4)*s1+e(1/4)",
            ],
        ],
    ),
    "order12_chain": (12, [["e(1/3)*s1-e(5/12)", "s1^2"], ["0", "3*s1^2-3*e(1/6)"]]),
    # the first two pivots are the non-monic units 2*e(1/3) and -1/2; then the
    # block diag(s1-e(1/4), s1^2-1) needs the offender step, which leaves the unit -2
    "order12_unit_pivots": (
        12,
        [
            ["2*e(1/3)", "s1", "0", "0"],
            ["0", "-1/2", "0", "e(1/6)"],
            ["0", "0", "s1-e(1/4)", "0"],
            ["0", "3", "0", "s1^2-1-6*e(1/6)"],
        ],
    ),
    "order12_tall": (
        12,
        [
            ["2*e(1/12)*s1+1", "s1^2-e(1/3)"],
            ["e(1/4)*s1^2", "3*s1-e(5/12)"],
            ["s1-1", "1/3*e(1/6)*s1"],
        ],
    ),
    # second column = (s1+1) * first column; the pivot is the non-monic unit e(1/3)
    # of the last row, so U (3x3) and V (2x2) differ in size
    "order6_tall_rank_deficient": (
        6,
        [
            ["s1-e(1/6)", "s1^2+s1-e(1/6)*s1-e(1/6)"],
            ["2*s1", "2*s1^2+2*s1"],
            ["e(1/3)", "e(1/3)*s1+e(1/3)"],
        ],
    ),
}


class TestSmithGolden:
    @pytest.mark.parametrize("name", sorted(SMITH_GOLDEN))
    def test_full_stdout(self, capsys, tmp_path, name):
        order, rows = SMITH_GOLDEN[name]
        matrix = write_json(
            tmp_path / f"{name}.json",
            {"ring": {"nvars": 1, "laurent": False, "cyclotomic_order": order}, "rows": rows},
        )
        code, out, err = run_cli(capsys, ["smith", "--matrix", matrix])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"smith_{name}.out").read_text()


# (cyclotomic order, rows) of fixed matrices whose full `detloci detfactors`
# stdout is pinned in golden/detfactors_<name>.out
DETFACTORS_GOLDEN = {
    "empty": (1, []),
    "one_by_one": (1, [["-2/3"]]),
    "zero_3x3": (1, [["0"] * 3] * 3),
    # k = n: every start vector is an eigenvector
    "scalar_order3": (3, [["e(1/3)", "0", "0"], ["0", "e(1/3)", "0"], ["0", "0", "e(1/3)"]]),
    "nilpotent_chain": (
        1,
        [["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
    ),
    # P J P^-1 with Jordan blocks (3, 1) at e(1/6) and (2, 2) at -1
    "order6_8x8": (
        6,
        [
            ["-2+e(1/6)", "1", "0", "0", "0", "-1", "0", "0"],
            ["-2", "1+e(1/6)", "1", "-2", "0", "-2-e(1/6)", "0", "0"],
            ["10", "-5", "5+e(1/6)", "-10", "0", "5", "0", "0"],
            ["4", "-2", "2", "-4+e(1/6)", "0", "2", "0", "0"],
            ["0", "0", "0", "0", "-1", "1", "0", "0"],
            ["0", "0", "0", "0", "0", "-1", "0", "0"],
            ["0", "0", "0", "-2", "0", "0", "-1", "1"],
            ["8", "-4", "4", "-6+2*e(1/6)", "0", "4", "0", "-1"],
        ],
    ),
    # P J P^-1 with Jordan blocks (2, 1) at e(1/12) and 1 at e(1/4)
    "order12": (
        12,
        [
            ["e(1/12)", "1", "0", "0"],
            ["0", "e(1/12)", "0", "0"],
            ["0", "2", "e(1/12)", "0"],
            ["0", "2-e(1/12)+e(1/4)", "e(1/12)-e(1/4)", "e(1/4)"],
        ],
    ),
}


class TestDetfactorsGolden:
    @pytest.mark.parametrize("name", sorted(DETFACTORS_GOLDEN))
    def test_full_stdout(self, capsys, tmp_path, name):
        order, rows = DETFACTORS_GOLDEN[name]
        matrix = write_json(
            tmp_path / f"{name}.json",
            {"ring": {"nvars": 1, "laurent": False, "cyclotomic_order": order}, "rows": rows},
        )
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"detfactors_{name}.out").read_text()


# the Koszul complex of f1, f2, f3 over the Laurent ring in three variables
KOSZUL_F = ("t1-e(1/3)", "2*t1^-1*t2-2", "t1*t3-e(1/4)")
KOSZUL_NEG = ("-t1+e(1/3)", "-2*t1^-1*t2+2", "-t1*t3+e(1/4)")
KOSZUL_ORDER12 = {
    "ring": {"nvars": 3, "laurent": True, "cyclotomic_order": 12},
    "degrees": [0, 3],
    "ranks": {"0": 1, "1": 3, "2": 3, "3": 1},
    "differentials": {
        "0": [[KOSZUL_F[0]], [KOSZUL_F[1]], [KOSZUL_F[2]]],
        "1": [
            [KOSZUL_NEG[1], KOSZUL_F[0], "0"],
            [KOSZUL_NEG[2], "0", KOSZUL_F[0]],
            ["0", KOSZUL_NEG[2], KOSZUL_F[1]],
        ],
        "2": [[KOSZUL_F[2], KOSZUL_NEG[1], KOSZUL_F[0]]],
    },
}
# non-monic entries over the polynomial ring, where monomial content stays
POLYNOMIAL_ORDER1 = {
    "ring": {"nvars": 2, "laurent": False, "cyclotomic_order": 1},
    "degrees": [0, 2],
    "ranks": {"0": 1, "1": 2, "2": 1},
    "differentials": {
        "0": [["3*s1*s2-3"], ["2*s2^2"]],
        "1": [["2*s2^2", "-3*s1*s2+3"]],
    },
}

# (command, complex, degree, k) of fixed complexes whose full stdout is pinned
# in golden/<name>.out: these print the generators that a minor or jump ideal
# forms when they are first read
IDEAL_GOLDEN = {
    "cdf_order12_koszul_i2": ("cdf", KOSZUL_ORDER12, 2, 0),
    "cdf_order12_koszul_i3": ("cdf", KOSZUL_ORDER12, 3, 0),
    "jump_order12_koszul_i1": ("jump", KOSZUL_ORDER12, 1, 1),
    "jump_order12_koszul_i2": ("jump", KOSZUL_ORDER12, 2, 1),
    "cdf_order1_polynomial": ("cdf", POLYNOMIAL_ORDER1, 1, 0),
    "jump_order1_polynomial": ("jump", POLYNOMIAL_ORDER1, 1, 1),
    # no split of size 3 fits the 2x1 and 1x2 blocks: the zero ideal
    "jump_order1_polynomial_zero": ("jump", POLYNOMIAL_ORDER1, 1, 0),
}


class TestIdealGolden:
    @pytest.mark.parametrize("name", sorted(IDEAL_GOLDEN))
    def test_full_stdout(self, capsys, tmp_path, name):
        command, payload, degree, k = IDEAL_GOLDEN[name]
        complex_ = write_json(tmp_path / "complex.json", payload)
        argv = [command, "--complex", complex_, "--degree", str(degree), "--k", str(k)]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.out").read_text()


def _hyperplanes(*members):
    return [{"c": list(c), "c0": c0, **({"mult": m} if m else {})} for c, c0, m in members]


def _piece(*members):
    return {"hyperplanes": _hyperplanes(*((c, c0, None) for c, c0 in members))}


# members listed out of order, with a member repeated and one rescaled, so the
# printed locus shows the canonical member and piece order
LOCUS_R3 = {
    "r": 3,
    "hyperplanes": _hyperplanes(
        ((2, 0, 1), 3, 2),
        ((0, 1, 0), -1, None),
        ((1, 1, 1), 2, None),
        ((2, 0, 1), -1, None),
        ((0, 1, 0), -1, 3),
        ((4, 0, 2), 6, None),
        ((4, 0, 2), 5, None),
        ((1, 2, 3), 5, None),
        ((2, 2, 2), 3, None),
        ((3, 3, 0), 4, None),
    ),
    "pieces": [
        _piece(((1, 1, 0), 1), ((0, 2, 1), 0)),
        _piece(((0, 0, 1), 2), ((1, 0, 0), -3)),
    ],
}
COMPONENT_E1 = {
    "r": 2,
    "hyperplanes": _hyperplanes(((4, 1), 3, 2), ((1, 0), 1, None), ((8, 0), 5, None)),
    "pieces": [_piece(((0, 1), 1), ((2, 0), 3))],
}
COMPONENT_E2 = {"r": 2, "hyperplanes": _hyperplanes(((0, 1), 1, None), ((4, 1), 4, None))}
POLAR_MODEL = {
    "r": 3,
    "hyperplanes": _hyperplanes(
        ((1, 1, 0), 1, 2), ((2, 0, 1), 3, None), ((0, 0, 1), 1, None), ((1, 1, 1), 3, 2)
    ),
    "pieces": [_piece(((1, 0, 0), 1), ((0, 1, 0), 1))],
}

# (exit code, argv) of fixed locus commands whose full stdout is pinned in
# golden/<name>.out; a dict in argv is written to a file whose path replaces it
LOCUS_GOLDEN = {
    "exp_r3": (0, ["exp", "--locus", LOCUS_R3]),
    "slopes_r3": (0, ["slopes", "--locus", LOCUS_R3]),
    "oblique_r3": (0, ["oblique", "--locus", LOCUS_R3]),
    "combine_r2": (
        0,
        ["combine", "--m", "2,3", "--pi", "2,1", "--e1", COMPONENT_E1, "--e2", COMPONENT_E2],
    ),
    "propagate_r3": (0, ["propagate", "--model", POLAR_MODEL, "--steps", "2"]),
    "slice_r3": (0, ["slice", "--model", POLAR_MODEL, "--b", "1,2,1"]),
    # m = 2 and none of the translates c0 = 7, 4, 1 is a member
    "filter_rejected": (0, ["filter", "--locus", LOCUS_R3, "--c", "1,1,1", "--c0", "7"]),
    "contain_contained": (
        0,
        [
            "contain",
            "--inner",
            {
                "r": 3,
                "hyperplanes": _hyperplanes(((2, 0, 2), 4, None)),
                "pieces": [_piece(((0, 1, 0), -1), ((1, 0, 0), 5))],
            },
            "--outer",
            {"r": 3, "hyperplanes": _hyperplanes(((1, 0, 1), 2, None), ((0, 3, 0), -3, None))},
        ],
    ),
    # the points s2 = 0, 1, -1 of 2*s1+3*s2+1 = 0 are blocked one by one
    "contain_hyperplane_witness": (
        1,
        [
            "contain",
            "--inner",
            {"r": 2, "hyperplanes": _hyperplanes(((2, 3), 1, None))},
            "--outer",
            {
                "r": 2,
                "hyperplanes": _hyperplanes(((2, 0), 1, None), ((0, 1), -1, None), ((1, 1), 0, None)),
            },
        ],
    ),
    # a codimension-2 piece with pivot entries 2 and 3, so den = 6
    "contain_piece_witness_r4": (
        1,
        [
            "contain",
            "--inner",
            {"r": 4, "pieces": [_piece(((2, 0, 1, 0), 1), ((0, 3, 0, 2), -1))]},
            "--outer",
            {
                "r": 4,
                "hyperplanes": _hyperplanes(((0, 0, 1, 0), 0, None), ((0, 3, 0, 0), -1, None)),
                "pieces": [_piece(((1, 0, 0, 0), 1), ((0, 0, 0, 1), -1))],
            },
        ],
    ),
    # s1 + 2*s2 = 0 holds the whole line s2 = 0 of s1 = 0, so the search
    # moves on to the line s2 = 1, where s3 = 0 is blocked
    "contain_blocked_line": (
        1,
        [
            "contain",
            "--inner",
            {"r": 3, "hyperplanes": _hyperplanes(((1, 0, 0), 0, None))},
            "--outer",
            {"r": 3, "hyperplanes": _hyperplanes(((1, 2, 0), 0, None), ((0, 0, 1), 0, None))},
        ],
    ),
}


class TestLocusGolden:
    @pytest.mark.parametrize("name", sorted(LOCUS_GOLDEN))
    def test_full_stdout(self, capsys, tmp_path, name):
        expected_code, argv = LOCUS_GOLDEN[name]
        argv = [
            write_json(tmp_path / f"{i}.json", a) if isinstance(a, dict) else a
            for i, a in enumerate(argv)
        ]
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (expected_code, "")
        assert out == (GOLDEN / f"{name}.out").read_text()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


class TestJsonWriter:
    @given(JSON_VALUES)
    @example({"a": [], "b": {}, "\u00e9\n\"\\\x01": [True, None, -7, "\U0001f600"]})
    @settings(max_examples=300)
    def test_matches_the_standard_library(self, payload):
        from detloci.cli import _json_text

        assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)

    def test_repeated_calls_leave_no_encoder_cycles(self, capsys, ex71_bf_file):
        import gc

        gc.collect()
        enabled, debug, start = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(5):
                assert run_cli(capsys, ["exp", "--locus", ex71_bf_file])[0] == 0
            gc.collect()
            leaked = [
                obj for obj in gc.garbage[start:]
                if getattr(obj, "__module__", None) == "json.encoder"
            ]
        finally:
            del gc.garbage[start:]
            gc.set_debug(debug)
            if enabled:
                gc.enable()
        assert leaked == []


class TestParserReuse:
    def test_built_once_for_two_calls(self, capsys, ex71_bf_file):
        from detloci.cli import build_parser

        build_parser.cache_clear()
        first = run_cli(capsys, ["exp", "--locus", ex71_bf_file])
        second = run_cli(capsys, ["exp", "--locus", ex71_bf_file])
        assert build_parser.cache_info().misses == 1
        assert first == second and first[0] == 0


class TestEntryParsing:
    def _count_parses(self, monkeypatch):
        import detloci.io as io_module

        calls = []
        original = io_module.parse_poly

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(io_module, "parse_poly", counting)
        return calls

    def test_matrix_entries_parsed_once_when_order_rises(self, monkeypatch):
        from detloci.io import matrix_from_json
        from detloci.poly import parse_poly

        rows = [["t1-e(1/3)", "1"], ["0", "e(1/4)*t1^2"]]
        calls = self._count_parses(monkeypatch)
        mat, ring = matrix_from_json({"ring": {"nvars": 1, "laurent": True}, "rows": rows})
        assert len(calls) == 4
        assert ring.cyclotomic_order == 12
        for row, texts in zip(mat, rows):
            for entry, text in zip(row, texts):
                assert entry.order == 12
                assert entry == parse_poly(text, ring)

    def test_complex_entries_parsed_once_when_order_rises(self, monkeypatch):
        from detloci.io import complex_from_json

        payload = {
            "ring": {"nvars": 1, "laurent": True, "cyclotomic_order": 2},
            "degrees": [0, 2],
            "ranks": {"0": 1, "1": 1, "2": 1},
            "differentials": {"0": [["t1-e(1/3)"]], "1": [["0"]]},
        }
        calls = self._count_parses(monkeypatch)
        E = complex_from_json(payload)
        assert len(calls) == 2
        assert E.ring.cyclotomic_order == 6
        assert {E.differential(i)[0][0].order for i in (0, 1)} == {6}

    REPEATED = [["0", "t1-e(1/3)", "0"], ["t1-e(1/3)", "0", "2*t1"], ["0", "2*t1", "t1-e(1/3)"]]

    def test_matrix_repeated_texts_parsed_once(self, monkeypatch):
        from detloci.io import matrix_from_json

        calls = self._count_parses(monkeypatch)
        payload = {"ring": {"nvars": 1, "laurent": True}, "rows": self.REPEATED}
        mat, ring = matrix_from_json(payload)
        assert calls == ["0", "t1-e(1/3)", "2*t1"]
        self._check_shared(mat, self.REPEATED, ring)

    def test_complex_repeated_texts_parsed_once(self, monkeypatch):
        from detloci.io import complex_from_json

        payload = {
            "ring": {"nvars": 1, "laurent": True},
            "degrees": [0, 2],
            "ranks": {"0": 3, "1": 3, "2": 1},
            "differentials": {"0": self.REPEATED, "1": [["0", "0", "0"]]},
        }
        calls = self._count_parses(monkeypatch)
        E = complex_from_json(payload)
        assert calls == ["0", "t1-e(1/3)", "2*t1"]
        assert E.ring.cyclotomic_order == 3
        self._check_shared(E.differential(0), self.REPEATED, E.ring)
        assert E.differential(1)[0][2] is E.differential(0)[0][0]

    @staticmethod
    def _check_shared(mat, texts, ring):
        """Every entry equals its own parse, and equal texts share one object."""
        first = {}
        for row, row_texts in zip(mat, texts):
            for entry, text in zip(row, row_texts):
                assert entry == parse_poly(text, ring)
                assert entry is first.setdefault(text, entry)

    @pytest.mark.parametrize(
        "rows, named",
        [
            ([["t1", "t1"], ["t1+", "t1^"]], "t1+"),
            ([["t1^", "0"], ["0", "t1+"]], "t1^"),
            ([["0", "0"], ["0", "t1+"], ["t1^", "0"]], "t1+"),
            ([["t1+", "t1+"]], "t1+"),
        ],
    )
    def test_first_malformed_entry_named(self, capsys, tmp_path, rows, named):
        path = write_json(tmp_path / "m.json", {"ring": {"nvars": 1, "laurent": True}, "rows": rows})
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", path])
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot parse polynomial {named!r}: ")

    @pytest.mark.parametrize("entry", [1, None, ["t1"], {"t1": 1}])
    def test_non_string_entry_rejected(self, capsys, tmp_path, entry):
        rows = [["t1", "t1"], ["t1", entry]]
        path = write_json(tmp_path / "m.json", {"ring": {"nvars": 1, "laurent": True}, "rows": rows})
        assert run_cli(capsys, ["smith", "--matrix", path]) == (
            2,
            "",
            f"input error: polynomial entries must be strings, got {entry!r}\n",
        )


def _modules_loaded_by_import(argv: list[str] | None = None) -> set[str]:
    """The modules that `import detloci, detloci.cli`, then `detloci argv`
    when given, load in a fresh `-S` process."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import io, json, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import detloci, detloci.cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"assert {argv!r} is None or detloci.cli.main({argv!r}) == 0\n"
        "out.write(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return set(json.loads(done.stdout))


class TestStandardLibraryOnly:
    def test_import_loads_no_third_party_module(self):
        import sys

        loaded = {name.split(".")[0] for name in _modules_loaded_by_import()}
        assert "detloci" in loaded
        assert [
            name for name in loaded if name != "detloci" and name not in sys.stdlib_module_names
        ] == []

    def test_import_loads_neither_fixtures_nor_logging(self):
        # only `detloci fixtures` runs the registry, only a non-generic specialization logs
        loaded = _modules_loaded_by_import()
        assert "detloci.cli" in loaded
        assert {"detloci.fixtures", "logging"} & loaded == set()

    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # values are validated tuples and stateful types slotted classes: no
        # decorator generates and compiles methods at import
        loaded = _modules_loaded_by_import()
        assert "detloci.cli" in loaded
        assert {"dataclasses", "inspect"} & loaded == set()

    def test_fixtures_list_loads_no_dataclasses(self):
        # fixture records are named tuples, like the other result records
        loaded = _modules_loaded_by_import(["fixtures", "list"])
        assert "detloci.fixtures" in loaded
        assert {"dataclasses", "inspect", "ast"} & loaded == set()


def _annotation_names(node) -> set[str]:
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound[(alias.asname or alias.name).split(".")[0]] = stmt.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for field in ("annotation", "returns"):
            annotation = getattr(node, field, None)
            if annotation is not None:
                used |= _annotation_names(annotation)
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


class TestNoUnusedImports:
    def test_every_module_level_import_is_used(self):
        src = Path(__file__).resolve().parents[1] / "src" / "detloci"
        unused = []
        for path in sorted(src.glob("*.py")):
            if path.name != "__init__.py":
                unused += _unused_imports(path)
        assert unused == []

    def test_detects_an_unused_import(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "from __future__ import annotations\n"
            "import math, os.path\n"
            "from typing import Sequence\n"
            "def f(x: 'Sequence[int]'):\n"
            "    return math.pi\n"
        )
        assert _unused_imports(module) == ["m.py:2 os"]


def _unreferenced_private_functions(paths: list[Path]) -> list[str]:
    """The `_`-prefixed module-level functions whose name is read nowhere outside their own def."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    refs = set()  # (name read, (path, enclosing top-level def or None))
    for path, tree in trees.items():
        for stmt in tree.body:
            owner = (path, stmt.name if isinstance(stmt, ast.FunctionDef) else None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    refs.add((node.id, owner))
                elif isinstance(node, ast.Attribute):
                    refs.add((node.attr, owner))
                elif isinstance(node, ast.alias):
                    refs.add((node.name, owner))
    return [
        f"{path.name}:{stmt.lineno} {stmt.name}"
        for path, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and not any(name == stmt.name and owner != (path, stmt.name) for name, owner in refs)
    ]


class TestNoUnusedPrivateFunctions:
    def test_every_private_function_is_referenced(self):
        src = Path(__file__).resolve().parents[1] / "src" / "detloci"
        assert _unreferenced_private_functions(sorted(src.glob("*.py"))) == []

    def test_detects_an_unreferenced_function(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "def _used(x):\n"
            "    return x\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "def _unused():\n"
            "    return _used(1)\n"
            "def public():\n"
            "    return _used(2)\n"
        )
        assert _unreferenced_private_functions([module]) == ["m.py:3 _recursive", "m.py:5 _unused"]


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _cached_names(paths: list[Path]) -> set[str]:
    """`module.qualified.name` of every def decorated with a functools cache."""

    def decorator_name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def visit(body, prefix):
        for stmt in body:
            if isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not isinstance(stmt, ast.ClassDef) and any(
                    decorator_name(d) in CACHE_DECORATORS for d in stmt.decorator_list
                ):
                    found.add(prefix + stmt.name)
                visit(stmt.body, prefix + stmt.name + ".")

    found: set[str] = set()
    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")).body, path.stem + ".")
    return found


class TestCacheInventory:
    """Every process-wide cache is listed here, so adding one is a reviewed decision."""

    def test_cached_names_are_pinned(self):
        src = Path(__file__).resolve().parents[1] / "src" / "detloci"
        assert _cached_names(sorted(src.glob("*.py"))) == {
            "arith.cyclotomic_poly",
            "arith._phi_tail",
            "arith.prime_root_of_unity",
            "cli.build_parser",
        }

    def test_modular_root_table_is_bounded(self):
        """(p, w) per field order L, for the certificates of the minor
        valuations: bounded, since every divisor of a new denominator adds an
        L; each entry is two integers, and a miss costs a prime search."""
        from detloci.arith import prime_root_of_unity

        assert prime_root_of_unity.cache_info().maxsize == 64

    def test_detects_every_cache_spelling(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "import functools\n"
            "from functools import cache, cached_property, lru_cache\n"
            "@lru_cache(maxsize=None)\n"
            "def a(): pass\n"
            "@functools.lru_cache\n"
            "def b(): pass\n"
            "@cache\n"
            "def c(): pass\n"
            "@staticmethod\n"
            "def plain(): pass\n"
            "class K:\n"
            "    @functools.cached_property\n"
            "    def d(self): pass\n"
            "    def e(self):\n"
            "        @functools.cache\n"
            "        def inner(): pass\n"
        )
        assert _cached_names([module]) == {"m.a", "m.b", "m.c", "m.K.d", "m.K.e.inner"}


def _package_imports(paths: list[Path]) -> dict[str, set[str]]:
    """{module: the package modules it imports}, module-level and
    function-local, relative (`from .m import x`, `from . import m`) or
    absolute (`import detloci.m`, `from detloci.m import x`)."""
    graph = {}
    for path in paths:
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("detloci."):
                found.add(node.module)
            elif isinstance(node, ast.Import):
                found |= {a.name for a in node.names if a.name.startswith("detloci.")}
        graph[path.stem] = {name.removeprefix("detloci.") for name in found}
    return graph


# Which package modules each module imports.  Smith forms serve only the
# smith and detfactors commands and the PID and Jordan oracles, so `smith`
# is a leaf that nothing but the entry points imports, and the only module
# that imports its one-variable representation, `upoly`.
IMPORTS = {
    "__init__": {"arith", "bsloci", "complexes", "poly", "smith", "support", "torus"},
    "arith": set(),
    "bsloci": {"arith", "torus"},
    "cli": {"bsloci", "complexes", "fixtures", "io", "poly", "smith", "support", "torus"},
    "complexes": {"arith", "poly", "torus"},
    "fixtures": {"arith", "bsloci", "torus"},
    "io": {"bsloci", "complexes", "poly", "torus"},
    "poly": {"arith", "torus"},
    "smith": {"arith", "complexes", "poly", "upoly"},
    "support": {"arith", "complexes", "poly", "torus"},
    "torus": {"arith"},
    "upoly": {"arith"},
}


class TestImportGraph:
    """Every import between package modules is pinned here, so a new edge is a
    reviewed decision."""

    def test_imports_are_pinned(self):
        src = Path(__file__).resolve().parents[1] / "src" / "detloci"
        assert _package_imports(sorted(src.glob("*.py"))) == IMPORTS

    def test_detects_every_import_spelling(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "import json\n"
            "import detloci.a\n"
            "from . import b\n"
            "from .c import x\n"
            "from detloci.d import y\n"
            "from fractions import Fraction\n"
            "def f():\n"
            "    from .e import z\n"
            "    import detloci.g as g\n"
        )
        assert _package_imports([module]) == {"m": {"a", "b", "c", "d", "e", "g"}}


def _field_reads(classes: dict[str, ast.ClassDef]) -> dict[int, str]:
    """The class whose attribute each `self.f.name` read names: {id(node): class},
    for every field f annotated by the bare name of a class, in its class body
    or as a parameter of its `__new__` or `__init__` (which fill the fields of
    the tuple-backed values and the slotted classes)."""
    typed = {}
    for cls in classes.values():
        annotated = [
            (member.target.id, member.annotation)
            for member in cls.body
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
        ] + [
            (arg.arg, arg.annotation)
            for member in cls.body
            if isinstance(member, ast.FunctionDef) and member.name in ("__new__", "__init__")
            for arg in member.args.args + member.args.kwonlyargs
        ]
        fields = {
            name: annotation.id
            for name, annotation in annotated
            if isinstance(annotation, ast.Name) and annotation.id in classes
        }
        for node in ast.walk(cls):
            owner = node.value if isinstance(node, ast.Attribute) else None
            if (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
                and owner.attr in fields
            ):
                typed[id(node)] = fields[owner.attr]
    return typed


def _uncalled_public_names(paths: list[Path]) -> set[str]:
    """`module.name` of every module-level public def and class, and
    `module.Class.name` of every public method, property and static
    constructor of a public class (dunders excluded), whose name is read
    nowhere in the given modules outside its own definition.  A method's name
    is read by an attribute `x.name`, which counts for every method of that
    name, whatever x is, except that `self.f.name`, with f a field annotated by
    a class of the modules, counts for that class's method only; a bare name or
    an annotation reads no method."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    defs = []  # (qualified name, definition, path, class of a method or None)
    classes = {}
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = stmt
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defs.append((f"{path.stem}.{stmt.name}", stmt, path, None))
                for member in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        qualified = f"{path.stem}.{stmt.name}.{member.name}"
                        defs.append((qualified, member, path, stmt.name))
    typed = _field_reads(classes)
    # name: [(path, line), ...]; (class or None, name): [(path, line), ...]
    names_read, attributes_read = {}, {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            names = set()
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                key = (typed.get(id(node)), node.attr)
                attributes_read.setdefault(key, []).append((path, node.lineno))
            for field in ("annotation", "returns"):
                annotation = getattr(node, field, None)
                if annotation is not None:
                    names |= _annotation_names(annotation)
            for name in names:
                names_read.setdefault(name, []).append((path, node.lineno))

    def read_outside(node, path: Path, owner: str | None) -> bool:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if owner is None:
            reads = names_read.get(node.name, [])
        else:
            reads = attributes_read.get((None, node.name), []) + attributes_read.get(
                (owner, node.name), []
            )
        return any(p != path or not first <= line <= node.end_lineno for p, line in reads)

    return {qualified for qualified, node, path, owner in defs if not read_outside(node, path, owner)}


# Documented library API that no module of the package calls: the paper's
# preimages, nondegeneracy and ord-sum checks, and the minors, Smith and
# cohomology routines that the acceptance criteria call.
LIBRARY_ONLY = {
    "bsloci.ord_sum_check",
    "torus.tau_preimage",
    "torus.nondegeneracy_check",
    "torus.TranslatedSubtorus",
    "complexes.minors_ideal",
    "complexes.insert_trivial_summand",
    "smith.fitting_generator",
    "smith.max_jordan_size",
    "smith.cohomology_presentation",
    "smith.principal_generator",
}

# Public methods, properties and static constructors that no module of the
# package calls, each with the reason it stays.
LIBRARY_ONLY_METHODS = {
    "arith.CycloElem.inverse": "public API, wrapped by perfbench/spans.py",
    "arith.CycloElem.is_rational": "public API of the field element type",
    "arith.CycloElem.scale": "wrapped by perfbench/spans.py",
    "arith.TorsionAngle.from_fraction": "called by perfbench/measure.py",
    "poly.IdealGens.contains_one": "public API: whether a formed ideal is (1), used by the tests",
    "poly.LaurentPoly.binomial_divisor": "public API, used by the acceptance criteria",
    "poly.LaurentPoly.evaluate": "public API, used by the acceptance criteria",
    "poly.LaurentPoly.leading": "public API: the leading term as a field element",
    "poly.LaurentPoly.scale": "wrapped by perfbench/spans.py",
    "poly.LaurentPoly.terms": "public API: the coefficients as field elements",
    "poly.LaurentPoly.variable": "public API, used by the acceptance criteria",
    "torus.AffineHyperplane.shifted": "public API: the unit translates of a hyperplane",
    "torus.TranslatedSubtorus.codimension": "public API of a library-only type",
}


class TestLibraryOnlyNames:
    """Every public def, class and method is called inside the package or pinned
    here as library API, so adding an uncalled one is a reviewed decision."""

    def test_uncalled_names_are_pinned(self):
        src = Path(__file__).resolve().parents[1] / "src" / "detloci"
        paths = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
        assert _uncalled_public_names(paths) == LIBRARY_ONLY | set(LIBRARY_ONLY_METHODS)

    def test_pinned_names_are_exported(self):
        import importlib

        import detloci

        for qualified in sorted(LIBRARY_ONLY):
            module, name = qualified.split(".")
            defined = getattr(importlib.import_module(f"detloci.{module}"), name)
            assert getattr(detloci, name, None) is defined, qualified

    def test_detects_an_uncalled_name(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "def used(x: 'Kind'):\n"
            "    return x\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def uncalled():\n"
            "    '''a docstring naming Lonely is no call'''\n"
            "    return used(Kind().make())\n"
            "class Kind:\n"
            "    def make(self) -> 'Kind':\n"
            "        return Kind()\n"
            "class Lonely:\n"
            "    pass\n"
        )
        assert _uncalled_public_names([module]) == {"m.recursive", "m.uncalled", "m.Lonely"}

    def test_detects_an_uncalled_method(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "class Kind:\n"
            "    def __init__(self): pass\n"
            "    def used(self): return 1\n"
            "    @property\n"
            "    def prop(self): return self.used()\n"
            "    @staticmethod\n"
            "    def make(): return Kind()\n"
            "    def own(self): return self.own()\n"
            "    def _private(self): pass\n"
            "    def lonely(self): pass\n"
            "def caller(k):\n"
            "    return k.prop, Kind.make\n"
            "lonely = 1\n"
        )
        assert _uncalled_public_names([module]) == {"m.caller", "m.Kind.own", "m.Kind.lonely"}

    def test_field_type_picks_the_method(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "class Angle:\n"
            "    def inverse(self): return self\n"
            "class Elem:\n"
            "    def inverse(self): return self\n"
            "class Divisor:\n"
            "    xi: Angle\n"
            "    def conjugate(self): return self.xi.inverse()\n"
            "def caller(d: Divisor, e: Elem):\n"
            "    return d.conjugate()\n"
        )
        assert _uncalled_public_names([module]) == {"m.caller", "m.Elem.inverse"}

    def test_constructor_annotations_type_the_fields(self, tmp_path):
        module = tmp_path / "m.py"
        module.write_text(
            "class Angle:\n"
            "    def inverse(self): return self\n"
            "    def negate(self): return self\n"
            "class Elem:\n"
            "    def inverse(self): return self\n"
            "    def negate(self): return self\n"
            "class Divisor(tuple):\n"
            "    def __new__(cls, u: tuple, xi: Angle): return tuple.__new__(cls, (u, xi))\n"
            "    def conjugate(self): return self.xi.inverse()\n"
            "class Locus:\n"
            "    def __init__(self, r: int, *, angle: Angle): object.__setattr__(self, 'angle', angle)\n"
            "    def flipped(self): return self.angle.negate()\n"
            "def caller(d: Divisor, e: Elem, locus: Locus):\n"
            "    return d.conjugate(), locus.flipped()\n"
        )
        assert _uncalled_public_names([module]) == {"m.caller", "m.Elem.inverse", "m.Elem.negate"}


class TestNoFieldElementInside:
    """Field elements (`arith.CycloElem`) are built only where the public API
    takes or returns one; every step below runs on integer rows.  Inputs are
    built first, then every construction of a field element raises."""

    def test_no_field_element_is_built(self, monkeypatch, capsys, tmp_path):
        import random

        import detloci.arith as arith
        from detloci.complexes import direct_sum
        from detloci.io import matrix_from_json
        from detloci.poly import IdealGens, LaurentPoly
        from detloci.smith import determinantal_factors, smith_normal_form
        from detloci.support import candidate_divisors, specialization_multiplicity, support_report
        from detloci.torus import PrimeTorusDivisor

        from conftest import conjugate_complex, shifted_piece

        r12 = Ring(1, False, 12)
        # pivots with rational and cyclotomic leading coefficients
        smith_input = [
            [parse_poly(text, r12) for text in row]
            for row in (["2*t1^2+1", "e(1/12)*t1-3"], ["1/3*t1", "e(1/4)*t1^2+e(1/6)"])
        ]
        rows = [["e(1/12)", "1", "0"], ["0", "2*e(1/4)", "1/2"], ["-1", "0", "e(1/3)"]]
        payload = {"ring": {"nvars": 1, "laurent": False, "cyclotomic_order": 12}, "rows": rows}
        constants = matrix_from_json(payload)[0]
        matrix = write_json(tmp_path / "matrix.json", payload)
        r2 = Ring(2, True, 6)
        gens = [parse_poly(text, r2) for text in ("3*t1^2*t2-1", "e(1/6)*t1+2", "1/2*t2^-1")]
        divisors = [
            PrimeTorusDivisor((1, 0), arith.TorsionAngle.make(1, 3)),
            PrimeTorusDivisor((1, 1), arith.TorsionAngle.make(1, 2)),
        ]
        pieces = [
            shifted_piece(r2, LaurentPoly.binomial_divisor(2, d, 6) ** (k + 1), 1)
            for k, d in enumerate(divisors)
        ]
        # two copies, so that neither call finds what the other valued
        planted, searched = (conjugate_complex(random.Random(1), direct_sum(*pieces)) for _ in "ab")

        def refuse(*args):
            raise AssertionError("a field element was built")

        monkeypatch.setattr(arith, "_elem", refuse)
        smith_normal_form(smith_input)
        determinantal_factors(constants)
        IdealGens.make(r2, gens).gens
        support_report(planted, divisors)
        for k, divisor in enumerate(divisors):
            record = specialization_multiplicity(planted, divisor, 1, candidates=divisors)
            assert record.ord == k + 1
        assert set(candidate_divisors(searched)) == set(divisors)
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert (code, err) == (0, "") and json.loads(out)["b"]


class TestFixturesCommand:
    def test_run_all(self, capsys):
        code, out, _ = run_cli(capsys, ["fixtures", "run", "all"])
        data = json.loads(out)
        assert code == 0 and data["passed"]
        assert {f["name"] for f in data["fixtures"]} == {"ex71", "ex72", "ex73"}

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, ["fixtures", "list"])
        assert code == 0
        assert len(json.loads(out)["fixtures"]) == 3

    def test_unknown_fixture_is_a_plain_input_error(self, capsys):
        code, out, err = run_cli(capsys, ["fixtures", "run", "nope"])
        assert (code, out, err) == (2, "", "input error: unknown fixture 'nope'\n")


class TestErrors:
    def test_malformed_polynomial_position(self, capsys, tmp_path):
        payload = {
            "ring": {"nvars": 2, "laurent": False, "cyclotomic_order": 1},
            "degrees": [0, 1],
            "ranks": {"0": 1, "1": 1},
            "differentials": {"0": [["t1^-2"]]},
        }
        bad = write_json(tmp_path / "bad.json", payload)
        code, out, err = run_cli(
            capsys, ["cdf", "--complex", bad, "--degree", "1", "--k", "0"]
        )
        assert code == 2
        assert "position" in err

    @pytest.mark.parametrize(
        "entry, position", [("s1^\u00b2", 3), ("\u0663*s1", 0), ("1/\uff12", 2), ("e(1_0/3)", 0)]
    )
    def test_non_ascii_integer_exit_2(self, capsys, tmp_path, entry, position):
        payload = {"ring": {"nvars": 1, "laurent": False}, "rows": [[entry]]}
        bad = write_json(tmp_path / "bad.json", payload)
        code, out, err = run_cli(capsys, ["smith", "--matrix", bad])
        assert (code, out) == (2, "")
        assert f"cannot parse polynomial {entry!r}: " in err
        assert f"(at position {position})" in err

    @pytest.mark.parametrize("entry, position", [("2t1", 1), ("3e(1/2)", 1), ("t1 t2", 2)])
    def test_juxtaposed_factors_exit_2(self, capsys, tmp_path, entry, position):
        payload = {"ring": {"nvars": 2, "laurent": True}, "rows": [["1", entry]]}
        bad = write_json(tmp_path / "bad.json", payload)
        code, out, err = run_cli(capsys, ["smith", "--matrix", bad])
        message = f"missing '*' between factors (at position {position})"
        assert (code, out, err) == (2, "", f"input error: cannot parse polynomial {entry!r}: {message}\n")

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, ["exp", "--locus", "/nonexistent/file.json"]
        )
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, ["exp", "--locus", str(bad)])
        assert code == 2
        assert "JSON" in err

    def test_auto_raised_cyclotomic_order(self, capsys, tmp_path, complex_file):
        payload = json.loads(Path(complex_file).read_text())
        payload["ring"]["cyclotomic_order"] = 4
        complex_ = write_json(tmp_path / "order4.json", payload)
        code, out, _ = run_cli(capsys, ["cdf", "--complex", complex_, "--degree", "1", "--k", "0"])
        data = json.loads(out)
        # lcm of the file's order 4 and the e(1/3) denominator
        assert data["ring"]["cyclotomic_order"] == 12

    def test_internal_error_exit_code(self, capsys, tmp_path, monkeypatch):
        import detloci.cli as cli_module

        def failing(mat):
            raise ArithmeticError("Smith verification failed: U*M*V != D")

        monkeypatch.setattr(cli_module, "smith_normal_form", failing)
        matrix = write_json(
            tmp_path / "m.json",
            {"ring": {"nvars": 1, "laurent": False}, "rows": [["s1", "1"], ["0", "s1"]]},
        )
        code, out, err = run_cli(capsys, ["smith", "--matrix", matrix])
        assert code == 4
        assert out == ""
        assert err == "internal error: Smith verification failed: U*M*V != D\n"


    @pytest.mark.parametrize("order", ["0", "-3", "4"])
    def test_cyclotomic_order_flag_exit_2(self, capsys, tmp_path, order):
        # the field is set by the input file's ring.cyclotomic_order alone
        matrix = write_json(
            tmp_path / "m.json",
            {"ring": {"nvars": 1, "laurent": False}, "rows": [["s1", "1"], ["0", "s1"]]},
        )
        with pytest.raises(SystemExit) as info:
            main(["smith", "--matrix", matrix, f"--cyclotomic-order={order}"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_string_rows_exit_2(self, capsys, tmp_path):
        matrix = write_json(
            tmp_path / "m.json",
            {"ring": {"nvars": 1, "laurent": True}, "rows": ["12", "34"]},
        )
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert code == 2 and not out
        assert err == "input error: rows must be a matrix of strings\n"

    @pytest.mark.parametrize(
        "rows, fault",
        [
            ([["1", "2"]], "a square matrix"),
            ([["t1", "0"], ["0", "1"]], "constant entries"),
            ([["1", "t1"]], "constant entries"),  # a nonconstant entry is named first
        ],
    )
    def test_detfactors_input_errors_exit_2(self, capsys, tmp_path, rows, fault):
        matrix = write_json(tmp_path / "m.json", {"ring": {"nvars": 1, "laurent": False}, "rows": rows})
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert (code, out) == (2, "")
        assert err == f"input error: determinantal factors need {fault}\n"

    def test_string_differential_exit_2(self, capsys, tmp_path):
        payload = {
            "ring": {"nvars": 1, "laurent": True},
            "degrees": [0, 1],
            "ranks": {"0": 1, "1": 1},
            "differentials": {"0": ["5"]},
        }
        complex_ = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(capsys, ["cdf", "--complex", complex_, "--degree", "1", "--k", "0"])
        assert code == 2 and not out
        assert err == "input error: differential 0 must be a matrix of strings\n"

    @pytest.mark.parametrize(
        "ring",
        [
            ({"nvars": 1.9}, "nvars must be an integer, got 1.9"),
            ({"nvars": True}, "nvars must be an integer, got True"),
            ({"nvars": "1"}, "nvars must be an integer, got '1'"),
            ({"nvars": 1, "cyclotomic_order": 2.5}, "cyclotomic_order must be an integer, got 2.5"),
            ({"nvars": 1, "laurent": "false"}, "laurent must be true or false, got 'false'"),
            ({"nvars": 1, "laurent": 0}, "laurent must be true or false, got 0"),
            ([1, True], "ring descriptor must be an object"),
        ],
    )
    def test_ring_fields_exit_2(self, capsys, tmp_path, ring):
        ring, message = ring
        matrix = write_json(tmp_path / "m.json", {"ring": ring, "rows": [["1", "2"], ["3", "4"]]})
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "field",
        [
            ({"degrees": [0, 1.0]}, "degrees must be an integer, got 1.0"),
            ({"degrees": [False, 1]}, "degrees must be an integer, got False"),
            ({"ranks": {"0": 1.5, "1": 1}}, "rank must be an integer, got 1.5"),
            (
                {"ranks": {"0": 2, "1": 2}, "differentials": {"0": [["t1", "0"], ["0"]]}},
                "differential at degree 0 has shape (2, 1), expected (2, 2)",
            ),
            ({"degrees": [0]}, "degrees must be a pair [imin, imax]"),
            ({"ranks": [1, 1]}, "ranks must map degree strings to ranks"),
            ({"differentials": [[["t1-1"]]]}, "differentials must map degree strings to matrices"),
            # a field that is not a dict stands for the whole file
            ([{"degrees": [0, 1]}], "complex file must contain an object"),
        ],
    )
    def test_complex_fields_exit_2(self, capsys, tmp_path, field):
        field, message = field
        payload = {
            "ring": {"nvars": 1, "laurent": True},
            "degrees": [0, 1],
            "ranks": {"0": 1, "1": 1},
            "differentials": {"0": [["t1-1"]]},
        }
        payload = {**payload, **field} if isinstance(field, dict) else field
        complex_ = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(capsys, ["cdf", "--complex", complex_, "--degree", "1", "--k", "0"])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "field",
        [
            ({"rows": [["1", "2"], ["3"]]}, "matrix rows have inconsistent lengths"),
            # a field that is not a dict stands for the whole file
            ([["1", "2"], ["3", "4"]], "matrix file must contain an object"),
        ],
    )
    def test_matrix_fields_exit_2(self, capsys, tmp_path, field):
        field, message = field
        payload = {"ring": {"nvars": 1, "laurent": False}, "rows": [["1", "2"], ["3", "4"]]}
        payload = {**payload, **field} if isinstance(field, dict) else field
        matrix = write_json(tmp_path / "m.json", payload)
        code, out, err = run_cli(capsys, ["smith", "--matrix", matrix])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "argv", [["cdf", "--degree", "1", "--k", "0"], ["jump", "--degree", "1", "--k", "0"], ["support"]]
    )
    def test_ragged_differential_exit_2(self, capsys, tmp_path, argv):
        payload = {
            "ring": {"nvars": 1},
            "degrees": [0, 1],
            "ranks": {"0": 2, "1": 2},
            "differentials": {"0": [["t1", "0"], ["0"]]},
        }
        complex_ = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(capsys, argv + ["--complex", complex_])
        assert (code, out) == (2, "")
        assert err == "input error: differential at degree 0 has shape (2, 1), expected (2, 2)\n"

    @pytest.mark.parametrize(
        "locus",
        [
            ({"r": 2.0, "hyperplanes": [{"c": [1, 1], "c0": 2}]}, "r must be an integer, got 2.0"),
            ({"r": 2, "hyperplanes": [{"c": [1.5, 1], "c0": 2}]}, "c must be an integer, got 1.5"),
            ({"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 2.9}]}, "c0 must be an integer, got 2.9"),
            (
                {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 2, "mult": 1.7}]},
                "mult must be an integer, got 1.7",
            ),
            ({"r": 2, "hyperplanes": [{"c": [1, 1], "c0": True}]}, "c0 must be an integer, got True"),
            (
                {"r": 2, "hyperplanes": [{"c": "11", "c0": 2}]},
                "hyperplane normal c must be an array, got '11'",
            ),
            ([{"r": 2, "hyperplanes": []}], "locus file must contain an object"),
            ({"r": 2, "pieces": [{"c": [1, 0], "c0": 1}]}, "each piece needs a hyperplanes list"),
        ],
    )
    def test_locus_fields_exit_2(self, capsys, tmp_path, locus):
        locus, message = locus
        path = write_json(tmp_path / "locus.json", locus)
        code, out, err = run_cli(capsys, ["exp", "--locus", path])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "locus",
        [
            {"r": 2, "hyperplanes": {"3*s1+3*s2+4": 7}},
            {"r": 2, "pieces": {"hyperplanes": [{"c": [1, 0], "c0": 1}, {"c": [0, 1], "c0": 1}]}},
            {"r": 2, "pieces": [{"hyperplanes": {"s1+1": 1, "s2+1": 1}}]},
        ],
    )
    def test_locus_object_for_array_exit_2(self, capsys, tmp_path, locus):
        path = write_json(tmp_path / "locus.json", locus)
        code, out, err = run_cli(capsys, ["exp", "--locus", path])
        assert code == 2 and not out
        assert err.startswith("input error:") and "must be an array" in err

    @pytest.mark.parametrize(
        "locus, message",
        [
            ({"r": 2, "hyperplanes": [{"c": [1, True], "c0": 1}]}, "c must be an integer, got True"),
            (
                {"r": 2, "hyperplanes": [{"c": [1, -1], "c0": 1}]},
                "hyperplane normal must have natural entries",
            ),
            ({"r": 2, "hyperplanes": [{"c": [0, 0], "c0": 1}]}, "hyperplane normal must be nonzero"),
            ({"r": 2, "hyperplanes": [{"c": [], "c0": 1}]}, "hyperplane normal must be nonzero"),
            ({"r": 2, "hyperplanes": [{"c": [1, 1, 1], "c0": 1}]}, "hyperplane has wrong dimension"),
            (
                {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 1, "mult": 0}]},
                "hyperplane multiplicity must be >= 1",
            ),
            ({"r": 2, "hyperplanes": [[[1, 1], 2]]}, "hyperplane must be an object with c and c0"),
            (
                {"r": 2, "pieces": [{"hyperplanes": [{"c": [1, 0], "c0": 1}]}]},
                "a linear piece needs at least two defining hyperplanes",
            ),
            (
                {"r": 2, "pieces": [{"hyperplanes": [{"c": [1, 2], "c0": 1}, {"c": [2, 4], "c0": 3}]}]},
                "piece normals must be linearly independent",
            ),
            (
                {"r": 2, "pieces": [{"hyperplanes": [{"c": [1, 0], "c0": 1}, {"c": [0, 1, 0], "c0": 1}]}]},
                "piece member has wrong dimension",
            ),
            (
                {"r": 2, "pieces": [{"hyperplanes": [{"c": [1, 0], "c0": 1, "mult": 1.0}, {"c": [0, 1], "c0": 1}]}]},
                "mult must be an integer, got 1.0",
            ),
        ],
    )
    def test_malformed_locus_message(self, capsys, tmp_path, locus, message):
        path = write_json(tmp_path / "locus.json", locus)
        code, out, err = run_cli(capsys, ["slopes", "--locus", path])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize(
        "locus, message",
        [
            # the JSON shape of every member is checked before any dimension
            (
                {"r": 2, "hyperplanes": [{"c": [1, 1, 1], "c0": 1}, {"c": [1, 1.5], "c0": 1}]},
                "c must be an integer, got 1.5",
            ),
            (
                {
                    "r": 2,
                    "hyperplanes": [{"c": [1, 1], "c0": 1, "mult": 0}],
                    "pieces": [{"hyperplanes": [{"c": [1, 0], "c0": 1}, "s2"]}],
                },
                "hyperplane must be an object with c and c0",
            ),
            (
                {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": None}], "pieces": {}},
                "c0 must be an integer, got None",
            ),
            # a listed member's dimension and multiplicity before any piece's shape
            (
                {"r": 2, "hyperplanes": [{"c": [1], "c0": 1}], "pieces": [{"hyperplanes": [{"c": [1, 0], "c0": 1}]}]},
                "hyperplane has wrong dimension",
            ),
            (
                {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 1, "mult": -1}, {"c": [1], "c0": 1}]},
                "hyperplane multiplicity must be >= 1",
            ),
            ({"r": 2, "hyperplanes": [{"c": [1], "c0": 1, "mult": 0}]}, "hyperplane has wrong dimension"),
        ],
    )
    def test_first_of_two_faults_named(self, capsys, tmp_path, locus, message):
        path = write_json(tmp_path / "locus.json", locus)
        code, out, err = run_cli(capsys, ["slopes", "--locus", path])
        assert (code, out, err) == (2, "", f"input error: {message}\n")

    @pytest.mark.parametrize("r", [0, -2])
    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "--locus", "L"],
            ["slopes", "--locus", "L"],
            ["contain", "--inner", "L", "--outer", "L"],
            ["propagate", "--model", "L"],
            ["slice", "--model", "L", "--b", ""],
        ],
    )
    def test_locus_dimension_below_one_exit_2(self, capsys, tmp_path, argv, r):
        path = write_json(tmp_path / "locus.json", {"r": r, "hyperplanes": []})
        code, out, err = run_cli(capsys, [path if a == "L" else a for a in argv])
        assert (code, out) == (2, "")
        assert err == "input error: r must be a positive integer\n"

    @pytest.mark.parametrize(
        "field",
        [
            {"degrees": [0, 10], "ranks": {"0": 1, "1_0": 1}, "differentials": {}},
            {"ranks": {"0": 1, "+1": 1}},
            {"differentials": {" 0": [["t1-1"]]}},
        ],
    )
    def test_noncanonical_degree_key_exit_2(self, capsys, tmp_path, field):
        payload = {
            "ring": {"nvars": 1, "laurent": True},
            "degrees": [0, 1],
            "ranks": {"0": 1, "1": 1},
            "differentials": {"0": [["t1-1"]]},
            **field,
        }
        complex_ = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(capsys, ["cdf", "--complex", complex_, "--degree", "0", "--k", "0"])
        assert code == 2 and not out
        assert err.startswith("input error: bad") and "degree" in err


class TestReadmeTour:
    def test_library_tour_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
        exec(compile(block, "README.md", "exec"), {})


class TestHyperplaneStrings:
    """A hyperplane is a {"c", "c0", "mult"} object; a polynomial string is refused."""

    def assert_refused(self, capsys, tmp_path, hyperplane):
        locus = write_json(
            tmp_path / "strings.json",
            {"r": 2, "hyperplanes": [hyperplane, {"c": [0, 1], "c0": 1}]},
        )
        code, out, err = run_cli(capsys, ["slopes", "--locus", locus])
        assert code == 2 and not out
        assert err.startswith("input error:") and "must be an object" in err

    def test_linear_polynomial_string_rejected(self, capsys, tmp_path):
        self.assert_refused(capsys, tmp_path, "3*s1+3*s2+4")

    def test_nonlinear_string_rejected(self, capsys, tmp_path):
        self.assert_refused(capsys, tmp_path, "s1^2+1")
