import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


def layer_scripts() -> dict[str, str]:
    """The script strings that the LAYERS table of tools/bench_pairs.py runs, by name."""
    tree = ast.parse(BENCH_PAIRS.read_text())
    strings, layers = {}, None
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                strings[name] = node.value.value
            elif name == "LAYERS":
                layers = node.value
    assert layers is not None
    used = {n.id for n in ast.walk(layers) if isinstance(n, ast.Name) and n.id in strings}
    return {name: strings[name] for name in used}


def test_layer_scripts_import_existing_names():
    scripts = layer_scripts()
    assert {"DETFACTORS", "SMITH", "CANDIDATES", "LOCI"} <= set(scripts)
    for script_name, script in scripts.items():
        imports = [
            node
            for node in ast.walk(ast.parse(script))
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "detloci"
        ]
        assert imports, script_name
        for node in imports:
            module = importlib.import_module(node.module)
            for alias in node.names:
                # a name of the module, or a submodule (`from detloci import bsloci`)
                found = hasattr(module, alias.name) or (
                    hasattr(module, "__path__")
                    and importlib.util.find_spec(f"{node.module}.{alias.name}") is not None
                )
                assert found, f"{script_name}: from {node.module} import {alias.name}"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def one_cycle_jobs(tmp_path, monkeypatch) -> dict:
    """{workload: path of a jobs file with one cycle of its skeletons}."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    files = {}
    for workload in workloads.WORKLOADS:
        files[workload] = tmp_path / f"{workload}.json"
        jobs = workloads.generate(workload, 1, workloads.CYCLES[workload])
        files[workload].write_text(json.dumps(jobs))
    return files


def test_layer_scripts_run_on_one_cycle_per_workload(tmp_path, monkeypatch):
    """Every LAYERS script, run as tools/bench_pairs.py runs it (one pass per
    group here), on the jobs of one cycle of the skeletons of each workload."""
    bench_pairs = load_bench_pairs()
    files = one_cycle_jobs(tmp_path, monkeypatch)
    programs = bench_pairs.layer_programs(str(ROOT))
    assert set(programs) == set(bench_pairs.LAYERS)
    for name, (_, names, _, _, _) in bench_pairs.LAYERS.items():
        out = bench_pairs.run_layer(str(ROOT), programs[name], 0, [str(files[w]) for w in names])
        assert out, name
        for group, (count, seconds) in out.items():
            assert isinstance(count, int) and count >= 1, (name, group)
            assert isinstance(seconds, float) and seconds >= 0, (name, group)


def test_each_checkout_runs_its_own_layer_script(tmp_path, monkeypatch):
    """A parent checkout whose tools/bench_pairs.py times `smith_normal_form`
    with another script, and has no `determinantal_factors` layer: the parent
    rows come from its own script, and the missing layer has change-only rows."""
    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "REPEATS", 2)
    monkeypatch.setattr(bench_pairs, "MIN_SECONDS", 0)
    paths = [str(one_cycle_jobs(tmp_path, monkeypatch)["smith-jordan"])]
    parent = tmp_path / "parent"
    (parent / "tools").mkdir(parents=True)
    (parent / "src").symlink_to(ROOT / "src")
    script = 'print(json.dumps({"99x99": [3, 0.25]}))'
    (parent / "tools" / "bench_pairs.py").write_text(
        f"PASSES = 'import json\\n'\nLAYERS = {{'smith_normal_form': ('', (), '', '', {script!r})}}\n"
    )
    rows = bench_pairs.layer(str(parent), str(ROOT), "smith_normal_form", paths)
    assert rows.pop("99x99") == {"inputs": 3, "parent_ms": 250.0}
    total = rows.pop("total")
    assert total["parent_ms"] == 250.0 and total["change_ms"] > 0
    assert rows and all(set(row) == {"inputs", "change_ms"} for row in rows.values())
    rows = bench_pairs.layer(str(parent), str(ROOT), "determinantal_factors", paths)
    assert len(rows) > 1 and all(set(row) == {"inputs", "change_ms"} for row in rows.values())



def test_locus_layer_times_each_step_on_its_inputs(tmp_path, monkeypatch, capsys):
    """One row set per locus step, grouped by r: each step's script times only
    its own function, as often as a job calls it (a job has 4 + r input loci,
    3 permutations, 2 inner loci, 4 candidates and 2 directions)."""
    bench_pairs = load_bench_pairs()
    per_job = {
        "locus_from_json": lambda r: 4 + r,
        "combine_bm": lambda r: 3,
        "containment_check": lambda r: 2,
        "exp_divisors": lambda r: 1,
        "polar_candidate_filter": lambda r: 4,
        "propagate_polar": lambda r: 1,
        "specialize_slice": lambda r: 2,
    }
    path = str(one_cycle_jobs(tmp_path, monkeypatch)["loci-calculus"])
    programs = bench_pairs.layer_programs(str(ROOT))
    monkeypatch.setattr(sys, "argv", ["layer", "0", path])
    for step, calls in per_job.items():
        function, names, _, key, _ = bench_pairs.LAYERS[step]
        module, name = function.split(".")
        assert name == step and names == ("loci-calculus",) and key == "r"
        namespace = {}
        exec(programs[step], namespace)
        assert set(json.loads(capsys.readouterr().out)) == {"2", "3", "4"}
        group = list(namespace["jobs"]("loci"))
        timed = [f for f, *_ in namespace["calls"](group)]
        measured = getattr(importlib.import_module(f"detloci.{module}"), name)
        assert timed == [measured] * sum(calls(len(job["args"]["m"])) for job in group), step


def test_counts_wrap_every_module_that_holds_a_name(tmp_path, monkeypatch):
    """The counts of one pass over one cycle of support-planted, smith-jordan
    and minors-valuation jobs: `cdf_ideal` is counted through the name
    `support` imports, `valuation_along` and `rref` through the ones
    `complexes` imports, and the engine's `rank_bound` and `nonzero` on their
    class; `_smith` runs once per smith and detfactors job.  Every modular
    rank pass, for a unit block or a zero test, is one `_unit_block` and one
    `rref`, and only minors-valuation reaches one: the other two list every
    size they ask for."""
    bench_pairs = load_bench_pairs()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    got, specs = {}, {}
    for workload in ("support-planted", "smith-jordan", "minors-valuation"):
        monkeypatch.setitem(run.JOBS_PER_PASS, workload, workloads.CYCLES[workload])
        specs[workload] = run.write_inputs(workload, 1, str(tmp_path / workload))
        got[workload] = bench_pairs.run_counts(str(ROOT), str(tmp_path / workload))
        assert set(got[workload]) == {*bench_pairs.COUNTED, "minors_expanded", "failed_jobs"}
        assert got[workload]["failed_jobs"] == 0
        assert got[workload]["complexes.MinorEngine.nonzero"] > 0
    support = got["support-planted"]
    assert support["smith._smith"] == 0
    assert support["complexes.cdf_ideal"] > 0 and support["poly.valuation_along"] > 0
    assert support["minors_expanded"] > 0
    forms = sum(spec["kind"] in ("smith", "detfactors") for spec in specs["smith-jordan"])
    assert got["smith-jordan"]["smith._smith"] == forms > 0
    for workload in ("support-planted", "smith-jordan"):
        for name in ("_fp_image", "_unit_block", "MinorEngine.rank_bound"):
            assert got[workload][f"complexes.{name}"] == 0
        assert got[workload]["torus.rref"] == 0
    minors = got["minors-valuation"]
    assert minors["complexes.MinorEngine.rank_bound"] > 0
    assert minors["torus.rref"] == minors["complexes._unit_block"] > minors["complexes._fp_image"] > 0
