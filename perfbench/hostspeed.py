"""The host-speed reference: fixed pure-Python work timed next to every job.

The vCPU of a shared host runs the same code at speeds that drift by tens
of percent over seconds and minutes.  ``reference()`` is a fixed mix of the
operations detloci spends its time on, in code that shares nothing with
detloci, so no change to the program can change its time; the time it takes
next to a job says how fast the host ran at that moment, and
``at_reference_speed`` scales job times to the speed at which
``reference()`` takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# seconds of one reference() call at the reference host speed (about its
# median on a shared 2-vCPU Xeon at 2.1 GHz while the host ran fast)
REFERENCE_S = 0.0025
# a job time is scaled by the mean of the reference samples within
# REF_WINDOW samples of the job
REF_WINDOW = 2

_A = tuple(Fraction(7 * k + 3, k + 2) for k in range(8))
_B = tuple(Fraction(5 * k - 11, 2 * k + 3) for k in range(8))
_P = {(i, j): Fraction(3 * i - j, j + 1) for i in range(4) for j in range(4)}
_Q = {(i, -j): Fraction(2 * i + 1, i + j + 2) for i in range(3) for j in range(3)}
_INTS = tuple(random.Random(5).randrange(1 << 40) for _ in range(800))


def reference() -> None:
    """Four parts of roughly equal time, about 2.5 ms in all:

    - two products of two degree-7 ``Fraction`` polynomials mod t^8 + 1;
    - a product of two sparse ``Fraction`` polynomials held as dicts keyed
      by exponent tuples (16 by 9 terms);
    - 800 ``Fraction`` objects made, stored in a tuple-keyed dict and sorted;
    - 4000 small tuples built and hashed into an int.
    """
    for _ in range(2):
        out = [Fraction(0)] * 8
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                if i + j >= 8:
                    out[i + j - 8] -= a * b
                else:
                    out[i + j] += a * b
    prod: dict = {}
    for (a, b), c in _P.items():
        for (d, e), f in _Q.items():
            key = (a + d, b + e)
            v = prod.get(key, 0) + c * f
            if v:
                prod[key] = v
            else:
                prod.pop(key, None)
    table = {}
    for i, n in enumerate(_INTS):
        x = Fraction(n, 97)
        table[(i & 63, x.numerator % 7)] = x
    sorted(table.values())
    acc = 0
    for i in range(4000):
        acc += hash((i, i * i, i ^ 0x55)) & 0xFFFF


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def at_reference_speed(job_times: list[float], ref_times: list[float], n_jobs: int, every: int) -> list[float]:
    """Each job time times REFERENCE_S over the mean reference time near it.

    Pass p timed the reference before jobs 0, every, 2 every, ... of the pass,
    so job k of pass p is next to sample p * ceil(n_jobs / every) + k // every.
    """
    per_pass = -(-n_jobs // every)
    out = []
    for g, t in enumerate(job_times):
        c = (g // n_jobs) * per_pass + (g % n_jobs) // every
        near = ref_times[max(0, c - REF_WINDOW): c + REF_WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.fmean(near))
    return out
