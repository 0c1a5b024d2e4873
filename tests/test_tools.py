import ast
import importlib
import importlib.util
import json
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
    assert {"DETFACTORS", "SMITH", "LOCI"} <= set(scripts)
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


def test_layer_scripts_run_on_one_cycle_per_workload(tmp_path, monkeypatch):
    """Every LAYERS script, run as tools/bench_pairs.py runs it (one pass per
    group here), on the jobs of one cycle of the skeletons of each workload."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    files = {}
    for workload in workloads.WORKLOADS:
        files[workload] = tmp_path / f"{workload}.json"
        jobs = workloads.generate(workload, 1, workloads.CYCLES[workload])
        files[workload].write_text(json.dumps(jobs))
    for name, (_, names, _, _, script) in bench_pairs.LAYERS.items():
        out = bench_pairs.run_layer(str(ROOT), script, 0, [str(files[w]) for w in names])
        assert out, name
        for group, (count, seconds) in out.items():
            assert isinstance(count, int) and count >= 1, (name, group)
            assert isinstance(seconds, float) and seconds >= 0, (name, group)
