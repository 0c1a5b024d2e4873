import ast
import json
from pathlib import Path

import pytest

from detloci.cli import main
from detloci.io import locus_to_json
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
    "order12_tall": (
        12,
        [
            ["2*e(1/12)*s1+1", "s1^2-e(1/3)"],
            ["e(1/4)*s1^2", "3*s1-e(5/12)"],
            ["s1-1", "1/3*e(1/6)*s1"],
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
        import detloci.poly as poly_module

        calls = []
        original = poly_module.parse_terms

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(poly_module, "parse_terms", counting)
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


class TestStandardLibraryOnly:
    def test_import_loads_no_third_party_module(self):
        import subprocess
        import sys

        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import detloci, detloci.cli\n"
            "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(loaded)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        loaded = json.loads(done.stdout)
        assert "detloci" in loaded
        assert [
            name for name in loaded if name != "detloci" and name not in sys.stdlib_module_names
        ] == []


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

    def test_auto_raised_cyclotomic_order(self, capsys, complex_file):
        code, out, _ = run_cli(
            capsys,
            [
                "cdf",
                "--complex",
                complex_file,
                "--degree",
                "1",
                "--k",
                "0",
                "--cyclotomic-order",
                "4",
            ],
        )
        data = json.loads(out)
        # lcm of the forced order 4 and the e(1/3) denominator
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


    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_nonpositive_forced_order_exit_2(self, capsys, tmp_path, order):
        matrix = write_json(
            tmp_path / "m.json",
            {"ring": {"nvars": 1, "laurent": False}, "rows": [["s1", "1"], ["0", "s1"]]},
        )
        code, out, err = run_cli(capsys, ["smith", "--matrix", matrix, f"--cyclotomic-order={order}"])
        assert code == 2 and not out
        assert err.startswith("input error:") and "positive" in err

    def test_string_rows_exit_2(self, capsys, tmp_path):
        matrix = write_json(
            tmp_path / "m.json",
            {"ring": {"nvars": 1, "laurent": True}, "rows": ["12", "34"]},
        )
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert code == 2 and not out
        assert err == "input error: rows must be a matrix of strings\n"

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
            {"nvars": 1.9},
            {"nvars": True},
            {"nvars": "1"},
            {"nvars": 1, "cyclotomic_order": 2.5},
            {"nvars": 1, "laurent": "false"},
            {"nvars": 1, "laurent": 0},
        ],
    )
    def test_ring_fields_exit_2(self, capsys, tmp_path, ring):
        matrix = write_json(tmp_path / "m.json", {"ring": ring, "rows": [["1", "2"], ["3", "4"]]})
        code, out, err = run_cli(capsys, ["detfactors", "--matrix", matrix])
        assert code == 2 and not out
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "field",
        [{"degrees": [0, 1.0]}, {"degrees": [False, 1]}, {"ranks": {"0": 1.5, "1": 1}}],
    )
    def test_complex_fields_exit_2(self, capsys, tmp_path, field):
        payload = {
            "ring": {"nvars": 1, "laurent": True},
            "degrees": [0, 1],
            "ranks": {"0": 1, "1": 1},
            "differentials": {"0": [["t1-1"]]},
            **field,
        }
        complex_ = write_json(tmp_path / "c.json", payload)
        code, out, err = run_cli(capsys, ["cdf", "--complex", complex_, "--degree", "1", "--k", "0"])
        assert code == 2 and not out
        assert err.startswith("input error:")

    @pytest.mark.parametrize(
        "locus",
        [
            {"r": 2.0, "hyperplanes": [{"c": [1, 1], "c0": 2}]},
            {"r": 2, "hyperplanes": [{"c": [1.5, 1], "c0": 2}]},
            {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 2.9}]},
            {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": 2, "mult": 1.7}]},
            {"r": 2, "hyperplanes": [{"c": [1, 1], "c0": True}]},
            {"r": 2, "hyperplanes": [{"c": "11", "c0": 2}]},
        ],
    )
    def test_locus_fields_exit_2(self, capsys, tmp_path, locus):
        path = write_json(tmp_path / "locus.json", locus)
        code, out, err = run_cli(capsys, ["exp", "--locus", path])
        assert code == 2 and not out
        assert err.startswith("input error:")


class TestHyperplaneStrings:
    def test_locus_accepts_linear_polynomial_strings(self, capsys, tmp_path):
        locus = write_json(
            tmp_path / "strings.json",
            {"r": 2, "hyperplanes": ["3*s1+3*s2+4", {"c": [0, 1], "c0": 1}]},
        )
        code, out, _ = run_cli(capsys, ["slopes", "--locus", locus])
        assert code == 0
        assert json.loads(out)["slopes"] == [[0, 1], [1, 1]]

    def test_nonlinear_string_rejected(self, capsys, tmp_path):
        locus = write_json(
            tmp_path / "bad.json", {"r": 2, "hyperplanes": ["s1^2+1"]}
        )
        code, _, err = run_cli(capsys, ["slopes", "--locus", locus])
        assert code == 2 and "linear" in err
