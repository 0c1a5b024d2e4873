"""detloci benchmark: one run of one workload, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are generated from the seed and
written to perfbench/out/<workload>-<seed>/ before anything is measured.
The jobs run in one fresh process: an untimed warm-up cycle (one job of
each skeleton), then a whole number of passes over the same job list.  With
--trace 0, set-up is also measured SETUP_REPEATS times, each in a fresh
process started between jobs at evenly spaced places of the timed passes
(outside every timer), and its median is reported.  The pass count is fixed by
--seconds and the workload's nominal pass time, never by the clock, so every
run does the same work.  With --trace 1, one pass runs under spans and the
per-layer metrics are reported.  The last line of stdout is the result JSON.

The time metrics are given at the reference host speed: the host's speed
drifts by tens of percent over seconds and minutes, so every job time and
every set-up time is multiplied by REFERENCE_S over the time a fixed
pure-Python reference took next to it (``hostspeed.reference``).  The line
before the result gives the plain wall-clock figures as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import workloads
from hostspeed import REFERENCE_S, at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 7
# jobs in one pass (whole cycles of each workload's skeletons), and the
# seconds of one pass at the reference host speed (see hostspeed.py)
JOBS_PER_PASS = {
    "support-planted": 160,
    "minors-valuation": 100,
    "smith-jordan": 210,
    "loci-calculus": 720,
}
PASS_SECONDS = {
    "support-planted": 11.7,
    "minors-valuation": 13.0,
    "smith-jordan": 11.5,
    "loci-calculus": 3.3,
}
# timed reference calls: one before every REF_EVERY-th job of a pass
REF_EVERY = {
    "support-planted": 1,
    "minors-valuation": 1,
    "smith-jordan": 1,
    "loci-calculus": 16,
}
MEASURE_TIMEOUT = 170


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str]) -> dict:
    """Run measure.py in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "measure.py")] + args,
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=MEASURE_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measure.py {args[0]} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


CLI_KINDS = ("support", "smith", "detfactors")


def write_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write jobs.json (specs with recipes), inputs.json (each input as JSON
    text) and, for jobs that go through the CLI, one file per input."""
    specs = workloads.generate(workload, seed, JOBS_PER_PASS[workload])
    os.makedirs(workdir, exist_ok=True)
    texts = []
    for k, spec in enumerate(specs):
        texts.append({name: json.dumps(obj) for name, obj in spec["inputs"].items()})
        spec["files"] = {}
        if spec["kind"] in CLI_KINDS:
            for name, text in texts[-1].items():
                spec["files"][name] = path = f"j{k:03d}-{name}.json"
                with open(os.path.join(workdir, path), "w", encoding="utf-8") as handle:
                    handle.write(text)
    for name, payload in (("jobs.json", specs), ("inputs.json", texts)):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return specs


def hd_quantile(values: list[float], p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the i-th (of n) weighted by the
    Beta(p(n+1), (1-p)(n+1)) probability of ((i-1)/n, i/n], integrated with
    the midpoint rule.  Job times come in classes of similar cost, and a
    single order statistic that sits where two classes meet jumps between
    them from seed to seed; the weights spread over the neighbouring ranks.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    total = weight = 0.0
    for i, v in enumerate(xs):
        w = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            w += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += w * v
        weight += w
    return total / weight


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "detloci")):
        print(f"no detloci sources under {ROOT}/src", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    specs = write_inputs(args.workload, args.seed, workdir)
    passes = passes_for(args.workload, args.seconds)

    metrics = {}
    warmup = str(workloads.CYCLES[args.workload])
    setups = 0 if args.trace else SETUP_REPEATS
    every = REF_EVERY[args.workload]
    result = _child(["run", workdir, str(passes), str(args.trace), warmup, str(setups), str(every)])
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({k: v for k, v in result.items() if k != "layers"}, handle)
    wall = ""
    if args.trace:
        metrics = result["layers"]
    else:
        raw = result["job_times"]
        times = at_reference_speed(raw, result["ref_times"], len(specs), every)
        setup_s = [s["setup_s"] * REFERENCE_S / s["ref_s"] for s in result["setups"]]
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "jobs_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * hd_quantile(times, 0.5), "unit": "ms"},
            "job_p90_ms": {"value": 1e3 * hd_quantile(times, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        wall = (
            f" wall: setup_s={statistics.median(s['setup_s'] for s in result['setups']):.4f}"
            f" jobs_per_s={len(raw) / sum(result['pass_times']):.4f}"
            f" job_p50_ms={1e3 * hd_quantile(raw, 0.5):.4f}"
            f" job_p90_ms={1e3 * hd_quantile(raw, 0.9):.4f}"
            f" reference_ms={1e3 * statistics.median(result['ref_times']):.4f}"
        )
    digests = set(result["digests"])
    for message in result["messages"]:
        print(f"# check failed: {message}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} jobs_per_pass={len(specs)} "
        f"passes={len(result['digests'])} digest={'|'.join(sorted(digests))}{wall}"
    )
    print(
        json.dumps(
            {
                "correct": result["wrong"] == 0 and len(digests) == 1,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
