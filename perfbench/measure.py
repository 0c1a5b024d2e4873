"""The measured process of one benchmark run (started by run.py, never by hand).

    measure.py setup <workdir>            import detloci, parse every input once
    measure.py run <workdir> <passes> <trace 0|1> <warm-up jobs> <set-ups> <ref-every>

``setup`` prints the seconds from before ``import detloci`` to the end of
parsing, and the median time of the host-speed reference taken right after.
``run`` fills the process-wide caches by running the first warm-up jobs (one
job of each skeleton) untimed, times ``passes`` passes job by job (one traced
pass when tracing), checks every output after its pass, and prints one JSON
object.  Before every ``ref-every``-th job, outside the job's timer, it times
one call of ``hostspeed.reference()``, so that each job time can be set against the
host's speed at that moment.  Between jobs, at evenly spaced places and
outside every timer, it waits for ``set-ups`` fresh ``setup`` processes, one
at a time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io as _stdio
import json
import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import workloads
from hostspeed import reference, time_reference

REFERENCE_SAMPLES = 9  # reference calls after each set-up


_T0 = time.perf_counter()

import detloci.io as dio
from detloci import bsloci, cli, complexes, poly, support
from detloci.arith import TorsionAngle
from detloci.torus import AffineHyperplane, PrimeTorusDivisor

_IMPORT_S = time.perf_counter() - _T0

PARSERS = {
    "complex": dio.complex_from_json,
    "matrix": dio.matrix_from_json,
    "locus": dio.locus_from_json,
}


def input_format(kind: str) -> str:
    if kind in ("smith", "detfactors"):
        return "matrix"
    if kind == "loci":
        return "locus"
    return "complex"


class JobFailed(RuntimeError):
    pass


def _cli(argv: list[str]) -> str:
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"detloci {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def _divisor(pair) -> PrimeTorusDivisor:
    u, xi = pair
    return PrimeTorusDivisor(tuple(u), TorsionAngle.from_fraction(Fraction(xi)))


def job_support(spec, files, texts):
    return _cli(["support", "--complex", files["complex"], "--bound", str(spec["args"]["bound"])])


def job_smith(spec, files, texts):
    return _cli(["smith", "--matrix", files["matrix"]])


def job_detfactors(spec, files, texts):
    return _cli(["detfactors", "--matrix", files["matrix"]])


def job_minors(spec, files, texts):
    cx = dio.complex_from_json(json.loads(texts["complex"]))
    divisors = [_divisor(d) for d in spec["args"]["divisors"]]
    rows = []
    for i in cx.degrees():
        for k in spec["args"]["ks"]:
            cdf = complexes.cdf_ideal(cx, i, k)
            jump = complexes.jump_ideal(cx, i, k)
            rows.append(
                [
                    i,
                    k,
                    [_finite(poly.ideal_valuation(cdf, d)) for d in divisors],
                    [_finite(poly.ideal_valuation(jump, d)) for d in divisors],
                ]
            )
    return json.dumps(rows)


def _finite(v):
    return "inf" if v == math.inf else v


def job_specialize(spec, files, texts):
    cx = dio.complex_from_json(json.loads(texts["complex"]))
    args = spec["args"]
    record = support.specialization_multiplicity(
        cx,
        _divisor(args["divisor"]),
        args["degree"],
        candidates=[_divisor(d) for d in args["candidates"]],
    )
    return json.dumps(
        {
            "ord": record.ord,
            "jordan": record.jordan,
            "lam": str(record.lam),
            "b": list(record.b),
            "generic": record.generic,
        },
        sort_keys=True,
    )


def job_loci(spec, files, texts):
    loci = {name: dio.locus_from_json(json.loads(text)) for name, text in texts.items()}
    args = spec["args"]
    r = len(args["m"])
    components = {j: loci[f"e{j}"] for j in range(1, r + 1)}
    combined = [bsloci.combine_bm(components, tuple(args["m"]), tuple(pi)) for pi in args["pis"]]
    locus = combined[0]

    def contain(inner):
        ok, witness = bsloci.containment_check(loci[inner], loci["outer"])
        return [ok, None if witness is None else [dio.fraction_to_str(x) for x in witness]]

    propagated = bsloci.propagate_polar(loci["model"], args["steps"])
    out = {
        "combine": [dio.locus_to_json(c) for c in combined],
        "contain_true": contain("inner_true"),
        "contain_false": contain("inner_false"),
        "oblique": dio.locus_to_json(bsloci.oblique_part(locus)),
        "exp": sorted([list(d.u), str(d.xi)] for d in bsloci.exp_divisors(locus)),
        "slopes": sorted(list(s) for s in bsloci.slope_set(locus)),
        "filter": [
            bsloci.polar_candidate_filter(AffineHyperplane(tuple(c), c0), locus)
            for c, c0 in args["candidates"]
        ],
        "propagate": dio.locus_to_json(propagated),
        "slices": [
            [
                {"pole": dio.fraction_to_str(e["pole"]), "order_sum": e["order_sum"], "generic": e["generic"]}
                for e in bsloci.specialize_slice(propagated, tuple(b))
            ]
            for b in args["directions"]
        ],
    }
    return json.dumps(out, sort_keys=True)


JOBS = {
    "support": job_support,
    "smith": job_smith,
    "detfactors": job_detfactors,
    "minors": job_minors,
    "specialize": job_specialize,
    "loci": job_loci,
}


def _load(workdir: str, name: str):
    with open(os.path.join(workdir, name), encoding="utf-8") as handle:
        return json.load(handle)


def load(workdir: str):
    specs = _load(workdir, "jobs.json")
    files = [
        {name: os.path.join(workdir, path) for name, path in spec["files"].items()}
        for spec in specs
    ]
    return specs, files, _load(workdir, "inputs.json")


def setup(workdir: str) -> None:
    """Parse and validate every input of the run once through io.*_from_json."""
    kinds = [spec["kind"] for spec in _load(workdir, "jobs.json")]
    start = time.perf_counter()
    for kind, texts in zip(kinds, _load(workdir, "inputs.json")):
        for text in texts.values():
            PARSERS[input_format(kind)](json.loads(text))
    seconds = time.perf_counter() - start + _IMPORT_S
    refs = sorted(time_reference() for _ in range(REFERENCE_SAMPLES))
    print(json.dumps({"setup_s": seconds, "ref_s": refs[REFERENCE_SAMPLES // 2]}))


def fresh_setup(workdir: str) -> dict:
    """Set-up seconds and reference seconds, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", workdir],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(specs, files, texts, jobs=JOBS, tracer=None, before=(), interlude=None,
             ref_every=0, ref_times=None):
    """Run every job once; returns (outputs, per-job seconds, pass seconds).

    ``interlude()`` runs before each job whose index is in ``before``; with
    ``ref_every`` > 0 the reference is timed before every ``ref_every``-th
    job and appended to ``ref_times``.  Neither is in the pass seconds."""
    outputs, times = [], []
    gc.collect()
    start = time.perf_counter()
    for k, (spec, paths, text) in enumerate(zip(specs, files, texts)):
        if k in before or (ref_every and k % ref_every == 0):
            t0 = time.perf_counter()
            if k in before:
                interlude()
            if ref_every and k % ref_every == 0:
                ref_times.append(time_reference())
            start += time.perf_counter() - t0
        if tracer is not None:
            tracer.job = k
        t0 = time.perf_counter()
        try:
            out = jobs[spec["kind"]](spec, paths, text)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = JobFailed(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, times, time.perf_counter() - start


def check_pass(specs, outputs, check) -> tuple[int, int, list[str], str]:
    """Failed operations, wrong outputs among them, messages, output digest."""
    failed, wrong, messages = 0, 0, []
    digest = hashlib.sha256()
    for k, (spec, out) in enumerate(zip(specs, outputs)):
        digest.update(f"{k}\0{out}\0".encode())
        try:
            if isinstance(out, Exception):
                raise out
            check(spec, out)
        except Exception as exc:
            failed += 1
            wrong += not isinstance(out, Exception)
            messages.append(f"job {k} ({spec['kind']}): {type(exc).__name__}: {exc}"[:2000])
    return failed, wrong, messages, digest.hexdigest()


def run(workdir: str, passes: int, trace: bool, warmup: int, n_setups: int, ref_every: int) -> None:
    specs, files, texts = load(workdir)
    run_pass(specs[:warmup], files[:warmup], texts[:warmup])  # fill the caches
    for _ in range(REFERENCE_SAMPLES):
        reference()
    attempted = failed = wrong = 0
    messages, digests, job_times, pass_times, setups, ref_times = [], [], [], [], [], []
    total = passes * len(specs)
    places = {(2 * q + 1) * total // (2 * n_setups) for q in range(n_setups)}
    tracer, jobs = None, JOBS
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        jobs = {kind: tracer.wrap(fn, "job") for kind, fn in JOBS.items()}
        passes, ref_every = 1, 0
    for p in range(passes):
        before = {x - p * len(specs) for x in places}
        outputs, times, wall = run_pass(
            specs, files, texts, jobs, tracer, before, lambda: setups.append(fresh_setup(workdir)),
            ref_every, ref_times,
        )
        if tracer is not None:
            tracer.uninstall()
        n_failed, n_wrong, msgs, digest = check_pass(specs, outputs, workloads.check)
        attempted += len(outputs)
        failed += n_failed
        wrong += n_wrong
        messages += msgs
        digests.append(digest)
        job_times += times
        pass_times.append(wall)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "messages": messages[:20],
        "digests": digests,
        "job_times": job_times,
        "pass_times": pass_times,
        "setups": setups,
        "ref_times": ref_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(pass_times[0])
        tracer.write_spans(os.path.join(workdir, "spans.tsv"))
        with open(os.path.join(workdir, "layers.tsv"), "w", encoding="utf-8") as handle:
            handle.write(tracer.layer_table())
    print(json.dumps(result))


if __name__ == "__main__":
    mode, workdir = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(workdir)
    else:
        run(workdir, *map(int, sys.argv[3:8]))
