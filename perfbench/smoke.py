"""Smoke test of the benchmark itself: one short pass per workload, checks on.

    python3 perfbench/smoke.py

For each workload it generates one job per skeleton, runs them once in this
process, requires every check to pass, and then perturbs one planted value
per job (a power, an exponent, a block size, a translate) and requires the
check to catch it on the same output.  Exit code 0 when all of that holds.
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_JOBS = {
    "support-planted": len(workloads.SUPPORT_SKELETONS),
    "minors-valuation": len(workloads.MINORS_SKELETONS),
    "smith-jordan": 6,
    "loci-calculus": 3,
}


def perturb(spec: dict) -> dict:
    """The spec with one planted value changed, so its check must fail."""
    bad = copy.deepcopy(spec)
    recipe, kind = bad["recipe"], bad["kind"]
    if kind in ("support", "minors", "specialize"):
        recipe["pieces"][0][3] += 1
    elif kind == "smith":
        recipe["chain"][-1][0][2] += 1
    elif kind == "detfactors":
        recipe["blocks"][0][2] += 1
    else:
        bad["args"]["m"][0] += 1
    return bad


def main() -> int:
    failures = 0
    for workload, n_jobs in SMOKE_JOBS.items():
        run.JOBS_PER_PASS[workload] = n_jobs
        workdir = os.path.join(HERE, "out", f"smoke-{workload}")
        run.write_inputs(workload, 0, workdir)
        specs, files, texts = measure.load(workdir)
        outputs, times, wall = measure.run_pass(specs, files, texts)
        failed, wrong, messages, _ = measure.check_pass(specs, outputs, workloads.check)
        caught = 0
        for spec, out in zip(specs, outputs):
            try:
                workloads.check(perturb(spec), out)
            except workloads.CheckFailed:
                caught += 1
        ok = failed == 0 and caught == len(specs)
        failures += not ok
        print(f"{workload:18s} jobs {len(specs):3d}  {wall:6.2f} s  failed {failed}  "
              f"perturbations caught {caught}/{len(specs)}  {'ok' if ok else 'FAIL'}")
        for message in messages:
            print(f"  {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
