"""A host-speed probe, so that job times can be given at a fixed host speed.

On a shared host the speed of a core drifts by up to half again over
minutes, with the load of neighbouring machines; the same job list then
reads 3.3 s in one run and 4.1 s in a later one. Every job is therefore
preceded by a fixed probe, outside the job's timing, and a job's time is
scaled by (REF_S / the median of the probes around it) raised to the
workload's ELASTICITY.
The probe is benchmark code that no change to circlaw touches, so the
scale moves only with the host: a change that makes circlaw faster reads
faster by the same share.

The probe mixes interpreter work (float formatting and parsing, dict and
list operations, as in the CLI) with numpy work (a cosine table times
coefficients, as in `harmonic._trig_sum`). Set-up time is scaled the same
way by the interpreter part alone (`probe_py`), which can run before
`import circlaw` without loading numpy.
"""

from __future__ import annotations

import math
from time import perf_counter

# about the probes' times on an idle core of a 2-core Xeon VM; a scaled
# time is the time the same work would take at that speed
REF_S = 0.0040
REF_PY_S = 0.0020

# how much of the probe's slowdown a workload's jobs take on, as the
# log-log slope of job time on probe time. The jobs of curves (memory-bound
# series sums) and sampling slow down by less than the probe, the
# interpreter-bound jobs of signed by as much. Each value gave the lowest
# worst spread over seeds of wall_s, job_p50_s and job_p90_s across 5-6
# batches of 2-10 runs per workload (curves 0.07, signed 0.09, sampling
# 0.04; one exponent of 0.9 for all gave 0.08, 0.14 and 0.06, and no
# scaling 0.42, 0.51 and 0.25)
ELASTICITY = {"curves": 0.85, "signed": 1.0, "sampling": 0.8}
# `import circlaw` takes on less of the interpreter probe's slowdown (a
# log-log slope of 0.45 over 125 imports in one stretch, more where the
# host's speed swung by 2x). With 0.6, the spread over seeds of the
# median set-up time of a run was at most 0.15 in six batches of 4-10
# runs (0.49 unscaled, 0.16 fully scaled), and the batches' medians lay
# within 9% of each other
SETUP_ELASTICITY = 0.6

# probes on each side of a job whose median scales it
HALF_WINDOW = 2

# the numpy probe's operands, made on first use: worker.py imports this
# module before it times `import circlaw`, so it loads nothing at import
# time (not numpy, not statistics) that circlaw would load itself
_ARRAYS = []


def probe_py() -> float:
    """Seconds for a fixed piece of interpreter work."""
    start = perf_counter()
    seen = {}
    acc = 0.0
    for i in range(1500):
        text = f"{math.sin(i * 1e-3) * 1.5:.17g}"
        seen[text] = i
        acc += float(text)
    acc += len(sorted(seen))
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("the probe computed a non-finite value")
    return elapsed


def probe() -> float:
    """Seconds for probe_py plus a fixed piece of numpy work."""
    import numpy as np

    if not _ARRAYS:
        k = np.arange(1, 193, dtype=float)
        _ARRAYS.extend((np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False), k, 1.0 / k**2))
    theta, k, c = _ARRAYS
    start = perf_counter()
    total = float(np.sum(np.cos(np.multiply.outer(theta, k)) @ c))
    elapsed = perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("the probe computed a non-finite value")
    return elapsed + probe_py()


def scale_setup(seconds: float, probes: list[float]) -> float:
    """An import time at the reference speed, from probe_py readings around it."""
    from statistics import median

    return seconds * (REF_PY_S / median(probes)) ** SETUP_ELASTICITY


def scale_jobs(job_seconds: list[float], probes: list[float], elasticity: float) -> list[float]:
    """Job times at the reference speed; probes[i] ran just before job i."""
    from statistics import median

    scaled = []
    for i, seconds in enumerate(job_seconds):
        near = probes[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1]
        scaled.append(seconds * (REF_S / median(near)) ** elasticity)
    return scaled
