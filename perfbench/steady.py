"""Steadiness of the end-to-end metrics: sets of runs on different seeds.

    python3 perfbench/steady.py [--workload W|all] [--runs 10] [--sets 2] [--seed 1]

Each set runs run.py --runs times, one run at a time, on seeds seed, seed+1,
...; every set uses the same seeds.  For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json, and how
far each later set's median moved from the first in the bad direction.  It also checks that the share of failed
operations and the output digest of every seed are the same in every set.
The summary is written to perfbench/out/steady.json.  Exit code 1 when a
check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    comment = next(x for x in lines if x.startswith("#"))
    result["digest"] = comment.partition("digest=")[2].split()[0]
    result["wall"] = comment.partition(" wall: ")[2]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    ok = True
    report = {}
    for workload in chosen:
        sets = []
        for s in range(args.sets):
            runs = []
            for k in range(args.runs):
                result = run_once(workload, args.seed + k, bench["run_seconds"])
                runs.append(result)
                print(f"{workload} set {s} seed {args.seed + k}: "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items())
                      + f" | wall: {result['wall']}", flush=True)
            sets.append(runs)
        rows = {}
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            first = per_set[0]["median"]
            sign = 1 if metric["better"] == "lower" else -1
            drift = max(sign * (p["median"] - first) / first for p in per_set)
            spread = max(p["spread"] for p in per_set)
            fits = spread <= bound and drift <= bound
            ok &= fits
            rows[name] = {"sets": per_set, "bound": bound, "worst_spread": spread,
                          "worst_drift": drift, "fits": fits, "within_third": spread < bound / 3}
            print(f"{workload:18s} {name:12s} median {first:10.5g} "
                  f"q1 {per_set[0]['q1']:10.5g} q3 {per_set[0]['q3']:10.5g} "
                  f"spread {spread:6.3f} drift {drift:+6.3f} bound {bound:.2f} "
                  f"{'ok' if fits else 'EXCEEDS'}{'' if spread < bound / 3 else ' (spread above bound/3)'}")
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        failed_share = {f / a for f, a in shares}
        digests_same = all(
            len({runs[k]["digest"] for runs in sets}) == 1 for k in range(args.runs)
        )
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= len(failed_share) == 1 and digests_same and correct
        print(f"{workload:18s} failed share {sorted(failed_share)}  digests identical per seed: "
              f"{digests_same}  all correct: {correct}")
        report[workload] = {"metrics": rows, "failed_share": sorted(failed_share),
                            "digests_identical": digests_same, "correct": correct}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
