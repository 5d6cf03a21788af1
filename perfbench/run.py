"""circlaw benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

It builds the workload's job list from the seed and runs the whole list
REPEATS times, each time in a fresh interpreter (worker.py) that runs
every job once on one thread; separate processes keep any in-process
cache from carrying over between repeats. Every job is timed next to
the host-speed probes of calibrate.py and scaled to the reference speed;
set-up time is the median of several fresh imports, scaled the same way.
Outputs are checked after the first pass, and every pass must produce
the same output hashes. The last line printed is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 one
untraced and one traced pass run, and the metrics are the per-layer ones.
The environment, per-job timings, warning counts and spans go to
.perfbench/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

import calibrate
import workloads

HERE = Path(__file__).resolve().parent

# passes over a job list; every pass's time of every job is one latency
# sample, which with >= 100 jobs gives >= 30 samples beyond p90
REPEATS = 3
# fresh interpreters that only time `import circlaw`, next to the passes'
SETUP_ONLY = 4
WORKER_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _worker_env(src: Path) -> dict:
    # one BLAS thread: on a 2-core host the second OpenBLAS thread made the
    # series sums no faster and the timings noisier
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _check_origin(path: str, src: Path):
    if not Path(path).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"a fresh interpreter imported circlaw from {path}, not from {src}")


def _run_worker(jobs_file: Path, out: Path, seed: int, env: dict, src: Path, trace=False, check=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file), str(out), "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--check"] * check
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    _check_origin(result["circlaw_file"], src)
    return result


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, args, blas_threads) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "blas_threads": blas_threads,
        "git_commit": _git_commit(root),
        "src_sha256": _digest(src / "circlaw"),
    }


def timings(job_seconds: list[list[float]]) -> dict:
    """wall_s, the median over passes of a pass's job time, and the
    latency percentiles over every job of every pass."""
    pooled = np.concatenate(job_seconds)
    return {
        "wall_s": statistics.median(float(np.sum(p)) for p in job_seconds),
        "job_p50_s": float(np.percentile(pooled, 50)),
        "job_p90_s": float(np.percentile(pooled, 90)),
    }


def _state_check(path: Path, key: dict, observed: dict) -> list[str]:
    """Compare with an earlier run of the same sources and arguments.

    The same seed must give the same job list, the same output hashes
    and, for traced runs, the same count metrics.
    """
    problems = []
    if path.exists():
        before = json.loads(path.read_text())
        if before.get("key") == key:
            for name, value in observed.items():
                if name in before["observed"] and before["observed"][name] != value:
                    problems.append(f"{name}: differs from an earlier run with the same seed")
            observed = {**before["observed"], **observed}
    path.write_text(json.dumps({"key": key, "observed": observed}, indent=1, sort_keys=True))
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "circlaw" / "__init__.py").is_file():
        print(f"perfbench: {src}/circlaw not found; run from the circlaw repository root", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}"

    jobs = workloads.build(args.workload, args.seed, args.seconds)
    problems = []
    if workloads.build(args.workload, args.seed, args.seconds) != jobs:
        problems.append("job list is not a pure function of the seed")
    job_text = json.dumps(jobs, sort_keys=True)
    job_hash = hashlib.sha256(job_text.encode()).hexdigest()
    jobs_file = out_dir / f"jobs-{tag}.json"
    jobs_file.write_text(job_text)

    env = _worker_env(src)
    repeats = 1 if args.trace else REPEATS
    passes = [
        _run_worker(jobs_file, out_dir / f"pass-{tag}-{i}.json", args.seed, env, src, check=i == 0)
        for i in range(repeats)
    ]
    traced = None
    if args.trace:
        traced = _run_worker(jobs_file, out_dir / f"traced-{tag}.json", args.seed, env, src, trace=True)
    imports = list(passes)
    if not args.trace:
        empty = out_dir / "jobs-none.json"
        empty.write_text("[]")
        imports += [_run_worker(empty, out_dir / f"setup-{tag}-{i}.json", args.seed, env, src) for i in range(SETUP_ONLY)]
    setup_raw = [p["setup_s"] for p in imports]
    setup = [calibrate.scale_setup(p["setup_s"], p["setup_probes_s"]) for p in imports]
    elasticity = calibrate.ELASTICITY[args.workload]
    scaled = [calibrate.scale_jobs(p["job_seconds"], p["probes_s"], elasticity) for p in passes]

    digests = passes[0]["digests"]
    if any(p["digests"] != digests for p in passes[1:]):
        problems.append("passes over the same job list produced different outputs")
    if traced is not None and traced["digests"] != digests:
        problems.append("the traced pass produced different outputs from the untraced pass")
    failures = passes[0]["failures"]

    observed = {"job_list": job_hash, "outputs": hashlib.sha256("".join(digests).encode()).hexdigest()}
    if traced is not None:
        observed["counts"] = {k: v for k, v in traced["layers"].items() if not k.endswith("_s")}
    key = {"src": _digest(src / "circlaw"), "bench": _digest(HERE), "job_list": job_hash}
    problems += _state_check(out_dir / f"state-{tag}.json", key, observed)

    raw = [p["job_seconds"] for p in passes]
    if traced is None:
        values = {
            "setup_s": statistics.median(setup),
            **timings(scaled),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        specs = bench["end_to_end"]
    else:
        traced_wall = sum(calibrate.scale_jobs(traced["job_seconds"], traced["probes_s"], elasticity))
        values = dict(traced["layers"], **{"trace.overhead_s": traced_wall - sum(scaled[0])})
        specs = bench["per_layer"]
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    record = {
        "environment": environment(root, src, args, passes[0]["blas_threads"]),
        "jobs": len(jobs),
        "failed_frac": len(failures) / len(jobs),
        "failures": failures,
        "problems": problems,
        "warnings": passes[0]["warnings"],
        "pass_wall_s": [sum(x) for x in scaled],
        "setup_s_samples": setup,
        "unscaled": {
            **timings(raw),
            "setup_s": statistics.median(setup_raw),
            "pass_wall_s": [sum(p) for p in raw],
            "setup_s_samples": setup_raw,
        },
        "job_seconds": raw,
        "probes_s": [p["probes_s"] for p in passes],
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for job_id, reason in sorted(failures.items(), key=lambda kv: int(kv[0])):
        print(f"job {job_id} failed: {reason}")
    for problem in problems:
        print(f"determinism: {problem}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"warnings: {json.dumps(record['warnings'], sort_keys=True)}  failed_frac: {record['failed_frac']}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
