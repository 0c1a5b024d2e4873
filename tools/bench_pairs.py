"""Before/after rows for a BENCH_<n>.json file, from two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1-10 \
        --out BENCH_<n>.json

End to end: for every workload of BENCHMARK.json and every seed, one
`perfbench/run.py --seconds 12 --trace 0` run in each checkout, the two runs
of a pair back to back and their order alternating from seed to seed.  The
file keeps the median of each metric per side, the pairs in which the change
is better, the parent's quartiles, and whether the digests of every pair
agree.

Layers, each on the jobs of seeds 1-3 of one workload (read from the change's
perfbench/out, so run the end to end part or perfbench/run.py first), timed in
one fresh process per checkout and repeat, 7 repeats interleaved; the file
keeps the minimum per side, per group and in total:
- `determinantal_factors` on the detfactors matrices of smith-jordan, grouped
  by order x size;
- minor enumeration: every `cdf_ideal` and `jump_ideal` of the minors-valuation
  complexes at the job's degrees and ks, grouped by the ranks of the complex;
- the locus layer, on the loci-calculus jobs grouped by the dimension r, one
  row set per step: `locus_from_json` on every input locus of a job,
  `combine_bm` for each of its permutations, `containment_check` of both
  inner loci, and `exp_divisors` of the combined locus.
Each layer script prints {group: [inputs, seconds]}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

LAYER_SEEDS = range(1, 4)
REPEATS = 7

DETFACTORS = r"""
import json, sys, time
from detloci.arith import CycloElem
from detloci.io import matrix_from_json
from detloci.smith import determinantal_factors

groups = {}
for path in sys.argv[1:]:
    for job in json.load(open(path)):
        if job["kind"] == "detfactors":
            mat, ring = matrix_from_json(job["inputs"]["matrix"])
            phi = [[CycloElem.zero(ring.cyclotomic_order) if e.is_zero() else e.leading()[1]
                    for e in row] for row in mat]
            groups.setdefault(f"{ring.cyclotomic_order}x{len(phi)}", []).append(phi)
out = {}
for key, mats in groups.items():
    start = time.perf_counter()
    for phi in mats:
        determinantal_factors(phi)
    out[key] = [len(mats), time.perf_counter() - start]
print(json.dumps(out))
"""

MINORS = r"""
import json, sys, time
from detloci.complexes import cdf_ideal, jump_ideal
from detloci.io import complex_from_json

groups = {}
for path in sys.argv[1:]:
    for job in json.load(open(path)):
        if job["kind"] == "minors":
            cx = complex_from_json(job["inputs"]["complex"])
            key = "-".join(str(cx.rank(i)) for i in cx.degrees())
            groups.setdefault(key, []).append((cx, job["args"]["ks"]))
out = {}
for key, jobs in groups.items():
    start = time.perf_counter()
    for cx, ks in jobs:
        for i in cx.degrees():
            for k in ks:
                cdf_ideal(cx, i, k)
                jump_ideal(cx, i, k)
    out[key] = [len(jobs), time.perf_counter() - start]
print(json.dumps(out))
"""

# STEP names the timed step; the loci are parsed before the clock starts
LOCI = r"""
import json, sys, time
from detloci import bsloci
from detloci.io import locus_from_json

groups = {}
for path in sys.argv[1:]:
    for job in json.load(open(path)):
        if job["kind"] == "loci":
            groups.setdefault(str(len(job["args"]["m"])), []).append(job)
out = {}
for key, jobs in groups.items():
    loci = [{name: locus_from_json(obj) for name, obj in job["inputs"].items()} for job in jobs]
    calls = []
    for job, locus in zip(jobs, loci):
        args = job["args"]
        components = {j: locus[f"e{j}"] for j in range(1, len(args["m"]) + 1)}
        if STEP == "locus_from_json":
            calls += [(locus_from_json, obj) for obj in job["inputs"].values()]
        elif STEP == "combine_bm":
            calls += [(bsloci.combine_bm, components, tuple(args["m"]), tuple(pi)) for pi in args["pis"]]
        elif STEP == "containment_check":
            calls += [(bsloci.containment_check, locus[inner], locus["outer"])
                      for inner in ("inner_true", "inner_false")]
        else:
            combined = bsloci.combine_bm(components, tuple(args["m"]), tuple(args["pis"][0]))
            calls.append((bsloci.exp_divisors, combined))
    start = time.perf_counter()
    for f, *call_args in calls:
        f(*call_args)
    out[key] = [len(jobs), time.perf_counter() - start]
print(json.dumps(out))
"""

# name: (function, workload, what one input is, group key, script)
LAYERS = {
    "determinantal_factors": (
        "smith.determinantal_factors", "smith-jordan", "detfactors matrices", "order x size",
        DETFACTORS,
    ),
    "minors": (
        "complexes.cdf_ideal and complexes.jump_ideal, every minor enumerated",
        "minors-valuation", "complexes", "ranks by degree", MINORS,
    ),
    **{
        step: (
            f"{module}.{step}", "loci-calculus", "loci jobs", "r", f"STEP = {step!r}\n" + LOCI,
        )
        for module, step in (
            ("io", "locus_from_json"),
            ("bsloci", "combine_bm"),
            ("bsloci", "containment_check"),
            ("bsloci", "exp_divisors"),
        )
    },
}


def seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_bench(root: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "12", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = re.search(r"digest=(\S+)", lines[-2]).group(1)
    return result


def end_to_end(parent: str, change: str, workloads: list[str], seed_list: list[int]) -> dict:
    rows = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(seed_list):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(parent if side == "parent" else change, workload, seed))
        row = {
            "digests_equal": all(
                p["digest"] == c["digest"] for p, c in zip(runs["parent"], runs["change"])
            ),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "correct": all(r["correct"] for rs in runs.values() for r in rs),
            "metrics": {},
        }
        for name in runs["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            q1, _, q3 = statistics.quantiles(values["parent"], n=4)
            higher = name == "jobs_per_s"
            row["metrics"][name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "parent_iqr": q3 - q1,
                "pairs_change_better": sum(
                    (c > p) if higher else (c < p)
                    for p, c in zip(values["parent"], values["change"])
                ),
                "pairs": len(seed_list),
            }
        rows[workload] = row
        print(workload, json.dumps(row["metrics"]["jobs_per_s"]), file=sys.stderr)
    return rows


def layer(parent: str, change: str, workload: str, script: str) -> dict:
    paths = [
        os.path.join(change, "perfbench", "out", f"{workload}-{seed}", "jobs.json")
        for seed in LAYER_SEEDS
    ]
    best: dict = {"parent": {}, "change": {}}
    for k in range(REPEATS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            proc = subprocess.run(
                [sys.executable, "-c", script] + paths, capture_output=True, text=True, check=True,
                env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0"),
            )
            for key, (count, seconds) in json.loads(proc.stdout).items():
                old = best[side].get(key)
                best[side][key] = (count, seconds if old is None else min(old[1], seconds))
    rows = {}
    for key in sorted(best["parent"], key=lambda s: tuple(map(int, re.split(r"\D", s)))):
        count, p = best["parent"][key]
        rows[key] = {"inputs": count, "parent_ms": 1e3 * p, "change_ms": 1e3 * best["change"][key][1]}
    rows["total"] = {
        "inputs": sum(r["inputs"] for r in rows.values()),
        "parent_ms": sum(r["parent_ms"] for r in rows.values()),
        "change_ms": sum(r["change_ms"] for r in rows.values()),
    }
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    result = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "end_to_end": {
            "command": "perfbench/run.py --workload W --seed S --seconds 12 --trace 0",
            "seeds": args.seeds,
            "workloads": end_to_end(parent, change, workloads, seeds(args.seeds)),
        },
        "layers": {
            name: {
                "function": function,
                "inputs": f"{inputs} of {workload} seeds {LAYER_SEEDS[0]}-{LAYER_SEEDS[-1]}",
                "key": key,
                "statistic": f"min of {REPEATS} interleaved fresh-process runs",
                "rows": layer(parent, change, workload, script),
            }
            for name, (function, workload, inputs, key, script) in LAYERS.items()
        },
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
