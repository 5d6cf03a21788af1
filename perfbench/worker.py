"""One pass over a job list in a fresh interpreter.

    python3 perfbench/worker.py JOBS OUT --seed N [--trace] [--check]

run.py starts it from the repository root with src/ on PYTHONPATH. It
first times `import circlaw` between interpreter probes, so every pass
is also one set-up sample; then it runs every job once, each after a
host-speed probe (calibrate.py), optionally traced, optionally checks
the outputs afterwards, and writes its timings and output hashes to OUT.
"""

import time

import calibrate

_SETUP_PROBES = [calibrate.probe_py() for _ in range(5)]
_t0 = time.perf_counter()
import circlaw  # noqa: E402

SETUP_S = time.perf_counter() - _t0
_SETUP_PROBES += [calibrate.probe_py() for _ in range(5)]

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import circlaw.cli  # noqa: E402,F401  (not loaded by the package itself)
import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas_threads():
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def run_pass(jobs, seed, tracer=None):
    """Run every job once, each after a probe; returns (outcomes, probes)."""
    outcomes, probes = [], []
    with workloads.WarningCounter() as counter:
        counter.tracer = tracer
        for job in jobs:
            probes.append(calibrate.probe())
            if tracer is not None:
                tracer.job = job["id"]
            outcomes.append(workloads.run_job(job, seed, counter))
            if tracer is not None and job["kind"] == "cli":
                tracer.counts["cli.bytes_out"] += len(outcomes[-1].stdout.encode())
    return outcomes, probes


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("jobs", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--check", action="store_true")
    args = p.parse_args()
    jobs = json.loads(args.jobs.read_text())

    tracer = tracing.Tracer().install() if args.trace else None
    try:
        outcomes, probes = run_pass(jobs, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "circlaw_file": circlaw.__file__,
        "blas_threads": _blas_threads(),
        "setup_s": SETUP_S,
        "setup_probes_s": _SETUP_PROBES,
        "probes_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_seconds": [o.seconds for o in outcomes],
        "digests": [o.digest for o in outcomes],
        "warnings": dict(sum((o.warnings for o in outcomes), Counter())),
    }
    if args.check:
        failures = {}
        for job, outcome in zip(jobs, outcomes):
            reason = workloads.check(job, outcome)
            if reason is not None:
                failures[str(job["id"])] = reason
        result["failures"] = failures
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(args.out.with_name(args.out.stem + "-spans.json"))
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
