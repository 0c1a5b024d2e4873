"""Before/after rows for a BENCH_<n>.json file, from two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1-10 \
        --out BENCH_<n>.json

End to end: for every workload of BENCHMARK.json and every seed, one
`perfbench/run.py --seconds 12 --trace 0` run in each checkout, the two runs
of a pair back to back and their order alternating from seed to seed.  The
file keeps the median of each metric per side, the pairs in which the change
is better, the parent's quartiles, and whether the digests of every pair
agree.

Layers, each on the jobs of seeds 1-3 of one or two workloads (read from the
change's perfbench/out, so run the end to end part or perfbench/run.py first), timed in
one fresh process per checkout and repeat, 7 repeats interleaved.  Each checkout
runs the layer's script from its own tools/bench_pairs.py, so a change to what a
script passes to the measured function is measured against the parent's script;
a layer that the parent's table lacks gets change-only rows.  Within a
process the groups take passes in turn, their inputs parsed afresh before
each pass and outside the clock, until each group's passes have taken at
least 0.2 s (a single pass of 25-60 ms swung by 20-40% between runs on a
shared host); the file keeps the fastest pass per side, per group and in
total:
- `determinantal_factors` on the detfactors matrices of smith-jordan, grouped
  by order x size;
- `smith_normal_form` (U and V tracked, U*M*V = D checked) on the smith
  matrices of smith-jordan, grouped by order x size;
- minor valuations: every `cdf_ideal` and `jump_ideal` of the minors-valuation
  complexes at the job's degrees and ks, each valued along the job's divisors
  in the job's order, on complexes parsed before the clock starts, grouped by
  the ranks of the complex (built and valued together, since the valuations
  decide which minors get expanded);
- `candidate_divisors` on the support-planted complexes, grouped by the ranks
  of the complex (parsed afresh before each pass and outside the clock);
- `specialization_multiplicity` on every row of the ord/jordan table of the
  support-planted jobs (candidates and support report built before the clock
  starts) and on the specialize jobs of smith-jordan, grouped by the ranks of
  the complex;
- the locus layer, on the loci-calculus jobs grouped by the dimension r, one
  row set per step: `locus_from_json` on every input locus of a job,
  `combine_bm` for each of its permutations, `containment_check` of both
  inner loci, `exp_divisors` of the combined locus, `polar_candidate_filter`
  of each candidate against the combined locus (whose member canonicals the
  first call builds, as in a job), `propagate_polar` of the model, and
  `specialize_slice` of the propagated model along both directions.
Each layer script takes the minimum seconds per group and the job files as
arguments and prints {group: [inputs, seconds of the fastest pass]}.

Counts: one pass over the seed-1 jobs of each workload (the change's
perfbench/out/<workload>-1, as perfbench/measure.py runs them), in a fresh
process per checkout and workload, with `COUNTED` names wrapped from outside
in every package module that holds them.  The file keeps per side the calls
of each, the minors expanded (the sum of len(engine._memo) over every
MinorEngine built, entries included) and the failed jobs.  Both sides run the
change's program, so both count the same names.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys

LAYER_SEEDS = range(1, 4)
REPEATS = 7
MIN_SECONDS = 0.2

# run before every layer script: its arguments, and the pass loop over its groups
PASSES = r"""
import json, sys, time

MIN_SECONDS, PATHS = float(sys.argv[1]), sys.argv[2:]


def jobs(*kinds):
    for path in PATHS:
        with open(path) as f:
            yield from (job for job in json.load(f) if job["kind"] in kinds)


def fastest_passes(groups, prepare, run):
    # {group: [inputs, seconds of its fastest pass]}: passes over the groups in
    # turn, each on inputs prepare(jobs) builds afresh outside the clock (complexes
    # and loci remember what a pass computed on them), until every group has
    # run for MIN_SECONDS; taking turns spreads a group's passes over the run
    best, spent = {}, dict.fromkeys(groups, 0.0)
    while due := [key for key in groups if key not in best or spent[key] < MIN_SECONDS]:
        for key in due:
            state = prepare(groups[key])
            start = time.perf_counter()
            run(state)
            elapsed = time.perf_counter() - start
            best[key] = min(best.get(key, elapsed), elapsed)
            spent[key] += elapsed
    return {key: [len(group), best[key]] for key, group in groups.items()}
"""

DETFACTORS = r"""
from detloci.io import matrix_from_json
from detloci.smith import determinantal_factors


def parsed(job):
    return matrix_from_json(job["inputs"]["matrix"])


def run(mats):
    for mat, _ in mats:
        determinantal_factors(mat)


groups = {}
for job in jobs("detfactors"):
    mat, ring = parsed(job)
    groups.setdefault(f"{ring.cyclotomic_order}x{len(mat)}", []).append(job)
print(json.dumps(fastest_passes(groups, lambda group: [parsed(job) for job in group], run)))
"""

SMITH = r"""
from detloci.io import matrix_from_json
from detloci.smith import smith_normal_form


def parsed(job):
    return matrix_from_json(job["inputs"]["matrix"])


def run(mats):
    for mat, _ in mats:
        smith_normal_form(mat)


groups = {}
for job in jobs("smith"):
    mat, ring = parsed(job)
    groups.setdefault(f"{ring.cyclotomic_order}x{len(mat)}", []).append(job)
print(json.dumps(fastest_passes(groups, lambda group: [parsed(job) for job in group], run)))
"""

# the complexes are parsed before the clock starts; the ideals are built and
# valued in the job's order
MINOR_VALUATIONS = r"""
from fractions import Fraction
from detloci.arith import TorsionAngle
from detloci.complexes import cdf_ideal, jump_ideal
from detloci.io import complex_from_json
from detloci.poly import ideal_valuation
from detloci.torus import PrimeTorusDivisor


def parsed(job):
    cx = complex_from_json(job["inputs"]["complex"])
    divisors = [PrimeTorusDivisor(tuple(u), TorsionAngle.from_fraction(Fraction(xi)))
                for u, xi in job["args"]["divisors"]]
    return cx, job["args"]["ks"], divisors


def run(parsed_jobs):
    for cx, ks, divisors in parsed_jobs:
        for i in cx.degrees():
            for k in ks:
                cdf, jump = cdf_ideal(cx, i, k), jump_ideal(cx, i, k)
                for d in divisors:
                    ideal_valuation(cdf, d)
                for d in divisors:
                    ideal_valuation(jump, d)


groups = {}
for job in jobs("minors"):
    cx = complex_from_json(job["inputs"]["complex"])
    groups.setdefault("-".join(str(cx.rank(i)) for i in cx.degrees()), []).append(job)
print(json.dumps(fastest_passes(groups, lambda group: [parsed(job) for job in group], run)))
"""

# the complexes are parsed before the clock starts, afresh for each pass,
# since a complex remembers the minors and valuations that a search computed
CANDIDATES = r"""
from detloci.io import complex_from_json
from detloci.support import candidate_divisors


def parsed(group):
    return [complex_from_json(job["inputs"]["complex"]) for job in group]


def run(complexes):
    for cx in complexes:
        candidate_divisors(cx)


groups = {}
for job in jobs("support"):
    cx = complex_from_json(job["inputs"]["complex"])
    groups.setdefault("-".join(str(cx.rank(i)) for i in cx.degrees()), []).append(job)
print(json.dumps(fastest_passes(groups, parsed, run)))
"""

# candidates and support reports are built before the clock starts
SPECIALIZATION = r"""
from fractions import Fraction
from detloci.arith import TorsionAngle
from detloci.io import complex_from_json
from detloci.support import candidate_divisors, specialization_multiplicity, support_report
from detloci.torus import PrimeTorusDivisor


def divisor(pair):
    return PrimeTorusDivisor(tuple(pair[0]), TorsionAngle.from_fraction(Fraction(pair[1])))


def parsed(job):
    cx = complex_from_json(job["inputs"]["complex"])
    if job["kind"] == "support":
        report = support_report(cx, candidate_divisors(cx))
        calls = [(d, i, report.candidates) for i, minimal in sorted(report.minimal.items())
                 for d in minimal.coeffs]
    else:
        args = job["args"]
        calls = [(divisor(args["divisor"]), args["degree"], [divisor(c) for c in args["candidates"]])]
    return cx, calls


def run(parsed_jobs):
    for cx, calls in parsed_jobs:
        for d, i, candidates in calls:
            specialization_multiplicity(cx, d, i, candidates=candidates)


groups = {}
for job in jobs("support", "specialize"):
    cx = complex_from_json(job["inputs"]["complex"])
    groups.setdefault("-".join(str(cx.rank(i)) for i in cx.degrees()), []).append(job)
print(json.dumps(fastest_passes(groups, lambda group: [parsed(job) for job in group], run)))
"""

# STEP names the timed step; the loci are parsed before the clock starts
LOCI = r"""
from detloci import bsloci
from detloci.io import locus_from_json
from detloci.torus import AffineHyperplane


def calls(group):
    out = []
    for job in group:
        args = job["args"]
        locus = {name: locus_from_json(obj) for name, obj in job["inputs"].items()}
        components = {j: locus[f"e{j}"] for j in range(1, len(args["m"]) + 1)}
        if STEP == "locus_from_json":
            out += [(locus_from_json, obj) for obj in job["inputs"].values()]
        elif STEP == "combine_bm":
            out += [(bsloci.combine_bm, components, tuple(args["m"]), tuple(pi)) for pi in args["pis"]]
        elif STEP == "containment_check":
            out += [(bsloci.containment_check, locus[inner], locus["outer"])
                    for inner in ("inner_true", "inner_false")]
        elif STEP == "propagate_polar":
            out.append((bsloci.propagate_polar, locus["model"], args["steps"]))
        elif STEP == "specialize_slice":
            propagated = bsloci.propagate_polar(locus["model"], args["steps"])
            out += [(bsloci.specialize_slice, propagated, tuple(b)) for b in args["directions"]]
        else:
            combined = bsloci.combine_bm(components, tuple(args["m"]), tuple(args["pis"][0]))
            if STEP == "exp_divisors":
                out.append((bsloci.exp_divisors, combined))
            else:
                out += [(bsloci.polar_candidate_filter, AffineHyperplane(tuple(c), c0), combined)
                        for c, c0 in args["candidates"]]
    return out


def run(prepared):
    for f, *call_args in prepared:
        f(*call_args)


groups = {}
for job in jobs("loci"):
    groups.setdefault(str(len(job["args"]["m"])), []).append(job)
print(json.dumps(fastest_passes(groups, calls, run)))
"""

# name: (function, workloads, what one input is, group key, script)
LAYERS = {
    "determinantal_factors": (
        "smith.determinantal_factors", ("smith-jordan",), "detfactors matrices", "order x size",
        DETFACTORS,
    ),
    "smith_normal_form": (
        "smith.smith_normal_form", ("smith-jordan",), "smith matrices", "order x size", SMITH,
    ),
    "minor valuations": (
        "complexes.cdf_ideal and complexes.jump_ideal, each valued by poly.ideal_valuation",
        ("minors-valuation",), "complexes", "ranks by degree", MINOR_VALUATIONS,
    ),
    "candidate_divisors": (
        "support.candidate_divisors", ("support-planted",), "support jobs", "ranks by degree",
        CANDIDATES,
    ),
    "specialization": (
        "support.specialization_multiplicity on every table row and specialize job",
        ("support-planted", "smith-jordan"), "support and specialize jobs", "ranks by degree",
        SPECIALIZATION,
    ),
    **{
        step: (
            f"{module}.{step}", ("loci-calculus",), "loci jobs", "r", f"STEP = {step!r}\n" + LOCI,
        )
        for module, step in (
            ("io", "locus_from_json"),
            ("bsloci", "combine_bm"),
            ("bsloci", "containment_check"),
            ("bsloci", "exp_divisors"),
            ("bsloci", "polar_candidate_filter"),
            ("bsloci", "propagate_polar"),
            ("bsloci", "specialize_slice"),
        )
    },
}


COUNTED = (
    "poly.valuation_along", "complexes.cdf_ideal", "complexes._unit_block", "torus.rref",
    "smith._smith",
)

# argv: the checkout's perfbench directory and a run directory; prints the counts
COUNTS = r"""
import importlib, json, sys

sys.path.insert(0, sys.argv[1])
import measure
from detloci import complexes

COUNTED, WORKDIR = json.loads(sys.argv[2]), sys.argv[3]
counts, engines = dict.fromkeys(COUNTED, 0), []


def wrap(qualname):
    module, name = qualname.split(".")
    real = getattr(importlib.import_module(f"detloci.{module}"), name)

    def counted(*args, **kwargs):
        counts[qualname] += 1
        return real(*args, **kwargs)

    for held in list(sys.modules.values()):
        package = getattr(held, "__name__", "").startswith("detloci")
        if package and getattr(held, name, None) is real:
            setattr(held, name, counted)


def init(self, *args, real=complexes.MinorEngine.__init__):
    real(self, *args)
    engines.append(self)


for qualname in COUNTED:
    wrap(qualname)
complexes.MinorEngine.__init__ = init
outputs = measure.run_pass(*measure.load(WORKDIR))[0]
counts["minors_expanded"] = sum(len(engine._memo) for engine in engines)
counts["failed_jobs"] = sum(isinstance(out, Exception) for out in outputs)
print(json.dumps(counts))
"""


def run_counts(root: str, workdir: str) -> dict:
    """{count: value} of one pass over the jobs in workdir, run on the checkout
    at root in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", COUNTS, os.path.join(root, "perfbench"), json.dumps(COUNTED),
         workdir],
        cwd=root, capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0"),
    )
    return json.loads(proc.stdout)


def counts(parent: str, change: str, workloads: list[str]) -> dict:
    """{"<workload> seed 1": {count: {"parent": value, "change": value}}}."""
    rows = {}
    for workload in workloads:
        workdir = os.path.join(change, "perfbench", "out", f"{workload}-1")
        sides = {"parent": run_counts(parent, workdir), "change": run_counts(change, workdir)}
        rows[f"{workload} seed 1"] = {
            name: {side: values[name] for side, values in sides.items()} for name in sides["change"]
        }
    return rows


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


def layer_programs(root: str) -> dict[str, str]:
    """{layer name: program} from the tools/bench_pairs.py of the checkout at
    root, each LAYERS script after that file's PASSES; {} without the file."""
    path = os.path.join(root, "tools", "bench_pairs.py")
    if not os.path.exists(path):
        return {}
    spec = importlib.util.spec_from_file_location("checkout_bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: module.PASSES + entry[-1] for name, entry in module.LAYERS.items()}


def run_layer(root: str, program: str, min_seconds: float, paths: list[str]) -> dict:
    """{group: [inputs, seconds of the fastest pass]} of one layer program, run
    on the checkout at root in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", program, str(min_seconds)] + paths,
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0"),
    )
    return json.loads(proc.stdout)


def job_paths(root: str, workloads: tuple[str, ...]) -> list[str]:
    """The jobs.json files of seeds LAYER_SEEDS of the workloads, in root's perfbench/out."""
    return [
        os.path.join(root, "perfbench", "out", f"{workload}-{seed}", "jobs.json")
        for workload in workloads
        for seed in LAYER_SEEDS
    ]


def layer(parent: str, change: str, name: str, paths: list[str]) -> dict:
    """Rows of the layer `name` on the job files at paths: each checkout runs the
    program of its own tools/bench_pairs.py, and a group or a layer that one side
    lacks gets rows without that side's time."""
    roots = {"parent": parent, "change": change}
    programs = {side: layer_programs(root).get(name) for side, root in roots.items()}
    best: dict = {side: {} for side in roots if programs[side] is not None}
    for k in range(REPEATS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            if side not in best:
                continue
            for key, (count, seconds) in run_layer(
                roots[side], programs[side], MIN_SECONDS, paths
            ).items():
                old = best[side].get(key)
                best[side][key] = (count, seconds if old is None else min(old[1], seconds))
    rows = {}
    keys = set().union(*best.values())
    for key in sorted(keys, key=lambda s: tuple(map(int, re.split(r"\D", s)))):
        rows[key] = {}
        for side, groups in best.items():
            if key in groups:
                rows[key]["inputs"] = groups[key][0]
                rows[key][f"{side}_ms"] = 1e3 * groups[key][1]
    total = {"inputs": sum(r["inputs"] for r in rows.values())}
    for side in best:
        total[f"{side}_ms"] = sum(r.get(f"{side}_ms", 0) for r in rows.values())
    rows["total"] = total
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
                "inputs": f"{inputs} of {' and '.join(workloads)} seeds "
                f"{LAYER_SEEDS[0]}-{LAYER_SEEDS[-1]}",
                "key": key,
                "statistic": f"fastest pass of {REPEATS} interleaved fresh-process runs, "
                f"each repeating a group until it has run for {MIN_SECONDS} s",
                "rows": layer(parent, change, name, job_paths(change, workloads)),
            }
            for name, (function, workloads, inputs, key, _) in LAYERS.items()
        },
        "counts": {
            "what": "one pass over the seed-1 jobs, run as perfbench/measure.py runs them: "
            + ", ".join(f"calls of {name}" for name in COUNTED)
            + ", minors expanded (sum of len(engine._memo) over every MinorEngine built, "
            "entries included) and failed jobs",
            **counts(parent, change, workloads),
        },
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
