"""Seeded job lists for the four workloads, how a job runs, and how its
output is checked.

A job list is a pure function of (workload, seed, seconds). It is a
sequence of blocks; `seconds` sets how many. Every block has the same
mix of job types and only continuous parameters come from the seed.
Each parameter that sets a job's cost is stratified across the blocks
(`_st`): block b draws it from the middle fifth of stratum b + shift of
its range, so every seed asks for nearly the same amount of work. Jobs
talk to circlaw only through `circlaw.cli.main(argv)` and public library
functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

WORKLOADS = ("curves", "signed", "sampling")

# blocks per requested second: a job list of at least 100 jobs whose
# passes together take about the requested time on a 2-core Xeon VM
BLOCKS_PER_SECOND = {"curves": 0.3, "signed": 0.4, "sampling": 0.55}

# cheap groups of `circlaw validate`, so that curves also drives the
# validation layer; the full suite is one 25-35 s job, too noisy to time
VALIDATE_GROUPS = ("kernels", "special", "fractional")

GRIDS = (64, 512, 2048)

# pinned `circlaw validate` KS floors and the draw counts they are pinned
# at; a job with n draws must stay below floor * sqrt(n_pinned / n), the
# same Kolmogorov significance level the floor has at n_pinned
KS_FLOORS = {
    "harmonic": (0.01, 100_000),  # 7a: a sampler against its own law's CDF
    "wrapped_bm": (0.01, 100_000),  # 7a
    "stable": (0.015, 100_000),  # 7b
    "inverse": (0.02, 30_000),  # 7c
    "double": (0.02, 30_000),  # 7c
    "planar": (0.015, 50_000),  # 7d
}

# frozen order-4 positivity onset (criterion 10a)
T_BAR_ORDER4 = 0.6931166485360707


def _r(x: float) -> float:
    """Round to 6 significant digits, so argv text and value agree exactly."""
    return float(f"{x:.6g}")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return _r(rng.uniform(lo, hi))


def _stratum(rng: random.Random, i: int, n: int) -> float:
    """A point in the middle fifth of stratum i of n equal strata of [0, 1).

    Work drawn this way sums to nearly the same total for every seed.
    """
    return (i + 0.4 + 0.2 * rng.random()) / n


def _st(rng: random.Random, lo: float, hi: float, i: int, n: int) -> float:
    """A seeded value in [lo, hi) from stratum i mod n of n (see _stratum).

    Callers shift i by a different amount for each parameter of a job, so
    that two parameters do not rise together from block to block.
    """
    return _r(lo + (hi - lo) * _stratum(rng, i % n, n))


def _cli(*words) -> dict:
    return {"kind": "cli", "argv": [str(w) for w in words]}


# -- curves -----------------------------------------------------------------


def _slow_decay(rng, variant, u, b, n):
    """Algebraically decaying series with K in [1e4, 3e5] on a 64-point grid.

    K is drawn first (stratified across the blocks) and the tolerance is
    solved from the law's own cutoff rule, so the work is predictable
    while every parameter stays continuous.
    """
    k_target = 10.0 ** (4.0 + u * math.log10(30.0))
    nu, t = _st(rng, 0.3, 0.8, b + 1, n), _st(rng, 0.5, 2.0, b + 2, n)
    if variant < 2:
        # time-fractional n = 1: K = ceil(c / tol), c = Gamma(1+nu) t^-nu / pi
        c = math.gamma(1.0 + nu) * t ** (-nu) / math.pi
        tol = _r(c / k_target)
        cmd = "density" if variant == 0 else "cdf"
        return _cli(cmd, "--law", "timefrac", "--n", 1, "--nu", nu, "--t", t, "--tol", tol, "--grid", 64)
    # space-time CDF: K = ceil((c / (2 beta tol))^(1 / (2 beta)))
    beta = _st(rng, 0.4, 0.6, b + 3, n)
    c = math.gamma(1.0 + nu) * t ** (-nu) * 2.0**beta / math.pi
    tol = _r(c / (2.0 * beta * k_target ** (2.0 * beta)))
    return _cli("cdf", "--law", "spacetimefrac", "--nu", nu, "--beta", beta, "--t", t, "--tol", tol, "--grid", 64)


def _heavy(rng, variant, i, n):
    """Fast-decaying series that still carry 5e2-3e3 terms, on 2048 points.

    The ranges are narrow because K, and so the cost, is steep in them.
    """
    if variant == 0:
        return _cli("density", "--law", "even", "--n", 1, "--t", _st(rng, 0.014, 0.016, i, n), "--grid", 2048)
    if variant == 1:
        return _cli("density", "--law", "bm", "--t", _st(rng, 1.5e-4, 2e-4, i, n), "--grid", 2048)
    beta, t = _st(rng, 0.24, 0.26, i, n), _st(rng, 0.9, 1.1, i + 1, n)
    if variant == 2:
        return _cli("cdf", "--law", "spacefrac", "--beta", beta, "--t", t, "--grid", 2048)
    beta = _st(rng, 0.22, 0.23, i, n)
    return _cli("density", "--law", "wrappedstable", "--beta", beta, "--t", t, "--grid", 2048)


_FAST = (
    ("density", "even"),
    ("cdf", "bm"),
    ("density", "spacefrac"),
    ("density", "kernel-odd"),
    ("cdf", "even"),
    ("density", "timefrac"),
    ("cdf", "spacetimefrac"),
    ("density", "wrappedstable"),
    ("cdf", "kernel-even"),
    ("density", "bm"),
    ("cdf", "spacefrac"),
    ("density", "kernel-even"),
    ("cdf", "wrappedstable"),
    ("cdf", "kernel-odd"),
)  # one of each per block; the grid rotates with the block


def _fast(rng, b, i, blocks):
    """Millisecond jobs: argparse, law construction and CSV formatting dominate."""
    cmd, law = _FAST[i]
    grid = GRIDS[(b + i) % len(GRIDS)]
    words = [cmd, "--law", law]

    def st(lo, hi, shift=0):
        return _st(rng, lo, hi, b + i + shift, blocks)

    if law == "even":
        words += ["--n", 1 + b % 3, "--t", st(0.2, 2.0)]
    elif law == "bm":
        words += ["--t", st(0.05, 3.0)]
    elif law == "timefrac":
        words += ["--n", 2, "--nu", st(0.3, 0.95), "--t", st(0.5, 2.0, 1)]
    elif law == "spacefrac":
        # every other one sits at beta = 1/2, where a closed form exists
        beta = 0.5 if b % 2 == 0 else st(0.5, 1.0)
        words += ["--beta", beta, "--t", st(0.5, 2.0, 1)]
    elif law == "spacetimefrac":
        words += ["--nu", st(0.5, 0.95), "--beta", st(0.85, 0.95, 1), "--t", st(0.5, 2.0, 2), "--tol", 1e-5]
    elif law == "wrappedstable":
        words += ["--beta", st(0.5, 1.0), "--t", st(0.5, 2.0, 1)]
    elif law == "kernel-even":
        words += ["--t", st(0.2, 3.0)]
    else:
        words += ["--n", 1 + b % 3, "--t", st(0.2, 3.0)]
    return _cli(*words, "--grid", grid)


def _curves(rng, b, blocks, seed):
    jobs = [_slow_decay(rng, b % 3, _stratum(rng, b, blocks), b, blocks)]
    if b < len(VALIDATE_GROUPS):
        jobs.append(_cli("validate", "--seed", seed, "--only", VALIDATE_GROUPS[b]))
    jobs += [_heavy(rng, (2 * b + j) % 4, b + 2 * j, blocks) for j in range(2)]
    jobs.append(_cli("positivity", "--n", 2 + b % 2, "--tol", _r(10.0 ** _st(rng, -12.0, -8.0, b + 1, blocks))))
    jobs += [_fast(rng, b, i, blocks) for i in range(len(_FAST))]
    return jobs


# -- signed -----------------------------------------------------------------


def _signed(rng, b, blocks, seed):
    grid = 8 if b % 2 == 0 else 16
    jobs = [
        _cli("density", "--law", "odd", "--n", n, "--t", _st(rng, 0.5, 2.0, b + n, blocks), "--grid", grid)
        for n in (1, 2)
    ]
    for i in range(12):
        jobs.append({
            "kind": "sweep",
            "n": 1 + i % 3,
            "t": _st(rng, 0.3, 3.0, b + blocks * (i // 3), 4 * blocks),
            "thetas": sorted(_u(rng, 0.0, 2.0 * math.pi) for _ in range(6)),
        })
    return jobs


# -- sampling ---------------------------------------------------------------


def _sampling(rng, b, blocks, seed):
    def st(lo, hi, shift=0):
        return _st(rng, lo, hi, b + shift, blocks)

    return [
        {"kind": "sample", "sampler": "harmonic", "law": "bm", "t": st(0.3, 3.0), "size": 10_000},
        {"kind": "sample", "sampler": "harmonic", "law": "spacefrac", "beta": st(0.5, 1.0, 1),
         "t": st(0.5, 2.0, 2), "size": 10_000},
        # small beta: a peaked law, so rejection proposes many points per draw
        {"kind": "sample", "sampler": "harmonic", "law": "spacefrac", "beta": st(0.33, 0.37, 3),
         "t": st(1.8, 2.2, 4), "size": 3_000},
        {"kind": "sample", "sampler": "harmonic", "law": "wrappedstable", "beta": st(0.5, 1.0, 5),
         "t": st(0.5, 2.0, 6), "size": 10_000},
        {"kind": "sample", "sampler": "harmonic", "law": "kernel-even", "t": st(0.8, 1.2, 7), "size": 10_000},
        {"kind": "sample", "sampler": "wrapped_bm", "t": st(0.3, 3.0, 8), "size": 50_000},
        {"kind": "sample", "sampler": "stable", "nu": st(0.4, 0.9, 9), "t": st(0.5, 2.0, 10), "size": 20_000},
        {"kind": "sample", "sampler": "inverse", "nu": st(0.6, 0.8, 11), "t": st(0.9, 1.1, 12), "size": 5_000},
        {"kind": "sample", "sampler": "double", "nu": st(0.5, 0.9, 13), "beta": st(0.5, 0.9, 14),
         "t": st(0.5, 2.0, 15), "size": 10_000},
        {"kind": "sample", "sampler": "planar", "t": st(0.8, 1.2, 16), "size": 1_000},
    ]


def build(workload: str, seed: int, seconds: int) -> list[dict]:
    """The job list of one run: the same arguments give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    blocks = max(1, round(seconds * BLOCKS_PER_SECOND[workload]))
    make = {"curves": _curves, "signed": _signed, "sampling": _sampling}[workload]
    jobs = [job for b in range(blocks) for job in make(rng, b, blocks, seed)]
    return [{"id": i, **job} for i, job in enumerate(jobs)]


# -- execution --------------------------------------------------------------


@dataclass
class Outcome:
    seconds: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None
    warnings: Counter = field(default_factory=Counter)
    digest: str = ""


class WarningCounter:
    """Counts every warning that is shown, by category, including those
    that circlaw itself records with catch_warnings(record=True).

    The C warnings machinery looks up `warnings._showwarnmsg` on every
    shown warning, and catch_warnings leaves that name alone, so a
    wrapper there sees each shown warning exactly once.
    """

    def __init__(self):
        self.current: Counter = Counter()
        self.tracer = None
        self._orig = None

    def __enter__(self):
        self._orig = warnings._showwarnmsg

        def counting(msg):
            name = msg.category.__name__
            self.current[name] += 1
            if self.tracer is not None:
                self.tracer.on_warning(name)
            return self._orig(msg)

        warnings._showwarnmsg = counting
        return self

    def __exit__(self, *exc):
        warnings._showwarnmsg = self._orig
        return False


def _run_cli(argv):
    from circlaw.cli import main

    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusals
        return exc.code if isinstance(exc.code, int) else 2


def _law(spec):
    """The nonnegative harmonic law a `harmonic` sampling job draws from."""
    from circlaw import bm_law, even_kernel_law, space_fractional_law, wrapped_stable_law

    name, t = spec["law"], spec["t"]
    if name == "bm":
        # harmonic.sample(bm_law(t)) raises AttributeError (BmLaw has no
        # n_terms), so the carrier itself is sampled
        return bm_law(t).representation
    if name == "spacefrac":
        return space_fractional_law(spec["beta"], t)
    if name == "wrappedstable":
        return wrapped_stable_law(spec["beta"], t)
    return even_kernel_law(t)


def _run_sample(spec, seed):
    """Draw from one sampler and finish with the KS distance to the analytic CDF."""
    from circlaw import (
        RngStream,
        Tolerance,
        bm_law,
        even_kernel_cdf,
        ks_statistic,
        sample,
        sample_inverse_subordinator,
        sample_stable_subordinator,
        sample_wrapped_bm,
        simulate_planar_hit,
        space_fractional_law,
        space_time_fractional_cdf,
    )

    rng = RngStream(seed, spec["id"])
    s, n, t = spec["sampler"], spec["size"], spec["t"]
    if s == "harmonic":
        law = _law(spec)
        draws, cdf = sample(law, rng, n), law.cdf
    elif s == "wrapped_bm":
        draws, cdf = sample_wrapped_bm(t, rng, n), bm_law(t).cdf
    elif s == "stable":
        H = sample_stable_subordinator(spec["nu"], t, rng, n)
        draws, cdf = sample_wrapped_bm(H, rng), space_fractional_law(spec["nu"], t).cdf
    elif s in ("inverse", "double"):
        # B(L(t)) and B(H(L(t))): space-time laws, beta = 1 for the former
        beta = 1.0 if s == "inverse" else spec["beta"]
        L = sample_inverse_subordinator(spec["nu"], t, rng, n)
        H = L if s == "inverse" else L ** (1.0 / beta) * sample_stable_subordinator(beta, 1.0, rng, n)
        tol = Tolerance(abs_tol=1e-3)
        draws = sample_wrapped_bm(H, rng)
        cdf = lambda th: space_time_fractional_cdf(spec["nu"], beta, th, t, tol)  # noqa: E731
    else:
        draws = simulate_planar_hit(math.exp(-t), rng, step=1e-3, size=n)
        cdf = lambda th: even_kernel_cdf(th, t)  # noqa: E731
    return draws, ks_statistic(draws, cdf)


def _run_sweep(spec):
    from circlaw import even_circle_density_wrapped

    return [even_circle_density_wrapped(spec["n"], th, spec["t"]) for th in spec["thetas"]]


def run_job(job: dict, seed: int, counter: WarningCounter) -> Outcome:
    """Run one job with its stdout, stderr and warnings captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    counter.current = Counter()
    rc = value = error = None
    with warnings.catch_warnings(record=True), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            if job["kind"] == "cli":
                rc = _run_cli(job["argv"])
            elif job["kind"] == "sweep":
                value = _run_sweep(job)
            else:
                value = _run_sample(job, seed)
        except Exception:  # a failing job is counted, the run goes on
            error = traceback.format_exc()
        seconds = perf_counter() - start
    outcome = Outcome(seconds, rc, out.getvalue(), err.getvalue(), value, error, counter.current)
    h = hashlib.sha256(f"{rc}\n{outcome.stdout}\n{error is None}\n".encode())
    if isinstance(value, tuple):  # (draws, ks): keep the statistic, hash the draws
        draws, ks = value
        h.update(np.ascontiguousarray(draws).tobytes())
        outcome.value = ks
    h.update(repr(outcome.value).encode())
    outcome.digest = h.hexdigest()
    return outcome


# -- output checks (run after the timed pass) -------------------------------


class CheckFailed(Exception):
    """A job's output is wrong."""


def _argv_params(argv):
    words = list(argv)
    cmd, opts = words[0], {}
    for i in range(1, len(words) - 1, 2):
        opts[words[i].lstrip("-")] = words[i + 1]
    return cmd, opts


def _parse_csv(text, grid):
    lines = text.splitlines()
    if not lines or lines[0] != "theta,value":
        raise CheckFailed("missing CSV header")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    if data.shape != (grid, 2):
        raise CheckFailed(f"expected {grid} rows, got {data.shape[0]}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed("non-finite value in CSV")
    return data[:, 0], data[:, 1]


def _series_law(law, o, tol):
    """The harmonic carrier behind a CLI curve, or None for closed forms."""
    from circlaw import bm_law, even_circle_law, space_fractional_law, time_fractional_law, wrapped_stable_law

    n, t = int(o.get("n", 1)), float(o["t"])
    if law == "even":
        return even_circle_law(n, t, tol)
    if law == "bm":
        return bm_law(t, tol).representation
    if law == "timefrac":
        return time_fractional_law(n, float(o["nu"]), t, tol)
    if law == "spacefrac":
        return space_fractional_law(float(o["beta"]), t, tol)
    if law == "wrappedstable":
        return wrapped_stable_law(float(o["beta"]), t, tol)
    return None


def _reference_density(law, o, theta, tol):
    """An independent route to the density at theta, or None."""
    from circlaw import (
        bm_density_wrapped,
        even_circle_density_wrapped,
        even_kernel_law,
        odd_kernel_law,
        space_fractional_half_closed,
        space_fractional_law,
    )

    t = float(o["t"])
    if law == "even":
        return even_circle_density_wrapped(int(o["n"]), theta, t, tol)
    if law == "bm":
        return bm_density_wrapped(theta, t, tol)
    if law == "spacefrac" and float(o["beta"]) == 0.5:
        return space_fractional_half_closed(theta, t)
    if law == "wrappedstable":
        beta = float(o["beta"])
        return space_fractional_law(beta, 2.0**beta * t, tol).density(theta)
    if law == "kernel-even":
        return even_kernel_law(t, tol).density(theta)
    if law == "kernel-odd":
        return odd_kernel_law(int(o["n"]), t, tol).density(theta)
    return None


def _check_curve(cmd, o, stdout):
    from circlaw import Tolerance

    law, grid, tol_abs = o["law"], int(o.get("grid", 512)), float(o.get("tol", 1e-10))
    tol = Tolerance(abs_tol=tol_abs)
    th, vals = _parse_csv(stdout, grid)
    carrier = _series_law(law, o, tol)
    tail = carrier.tail_bound if carrier is not None else (tol_abs if law == "spacetimefrac" else 0.0)
    slack = tail + tol_abs
    if cmd == "cdf":
        if abs(vals[-1] - 1.0) > slack + 1e-12:
            raise CheckFailed(f"F(2 pi) = {vals[-1]!r}, off by more than {slack:.3g}")
        if law != "even" and np.any(np.diff(vals) < -slack * np.diff(th) - 1e-12):
            raise CheckFailed("CDF of a nonnegative law decreases")
        return
    for i in (grid // 7, grid // 3, (2 * grid) // 3):
        ref = _reference_density(law, o, float(th[i]), tol)
        if ref is None:
            return
        extra = 0.0
        if law == "wrappedstable":
            extra = _series_law("spacefrac", {"beta": o["beta"], "t": 2.0 ** float(o["beta"]) * float(o["t"])}, tol).tail_bound
        if abs(vals[i] - ref) > slack + extra + 1e-12:
            raise CheckFailed(f"{law} density at theta={float(th[i])!r}: {float(vals[i])!r} vs reference {float(ref)!r}")


def _check_positivity(o, stdout):
    from circlaw import min_value

    n, report = int(o["n"]), json.loads(stdout)
    t_bar = report["t_bar"]
    # the alternating series at theta = pi is an independent route to the minimum
    if not (min_value(n, t_bar) >= -float(o.get("tol", 1e-10)) and min_value(n, t_bar - 1e-5) < 0.0):
        raise CheckFailed(f"minimum does not change sign at t_bar = {t_bar!r}")
    if abs(report["min_theta_at_t_bar"] - math.pi) > 1e-3:
        raise CheckFailed("minimum at t_bar is not at pi")
    if n == 2 and abs(t_bar - T_BAR_ORDER4) > 1e-6:
        raise CheckFailed(f"order-4 onset {t_bar!r} differs from the frozen {T_BAR_ORDER4!r}")


def _check_odd(o, stdout):
    from circlaw import odd_circle_density_wrapped

    grid = int(o["grid"])
    th, vals = _parse_csv(stdout, grid)
    i = grid // 3
    # the signed law has no certified second route; the CSV must carry the
    # wrapped route's own value
    ref = odd_circle_density_wrapped(int(o["n"]), float(th[i]), float(o["t"]))
    if abs(vals[i] - ref) > 1e-12:
        raise CheckFailed(f"odd density at theta={float(th[i])!r}: {float(vals[i])!r} vs wrapped {float(ref)!r}")


def _check_sweep(job, values):
    from circlaw import even_circle_law

    law = even_circle_law(job["n"], job["t"])
    ref = law.density(np.asarray(job["thetas"]))
    gap = float(np.max(np.abs(np.asarray(values) - ref)))
    if not gap <= law.tail_bound + 1e-10:
        raise CheckFailed(f"wrapped and series routes differ by {gap:.3g}")


def _check_sample(job, ks):
    floor, pinned = KS_FLOORS[job["sampler"]]
    limit = floor * math.sqrt(pinned / job["size"])
    if not ks < limit:
        raise CheckFailed(f"KS {ks:.4g} above the pinned floor {limit:.4g} at {job['size']} draws")


def check(job: dict, outcome: Outcome) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if outcome.error is not None:
        return outcome.error.strip().splitlines()[-1]
    with warnings.catch_warnings():
        # reference routes warn like the jobs do; only their values matter here
        warnings.simplefilter("ignore")
        return _check(job, outcome)


def _check(job, outcome):
    try:
        if job["kind"] == "sweep":
            _check_sweep(job, outcome.value)
        elif job["kind"] == "sample":
            _check_sample(job, outcome.value)
        else:
            cmd, o = _argv_params(job["argv"])
            if outcome.rc != 0:
                return f"exit code {outcome.rc}: {outcome.stderr.strip()[-200:]}"
            if cmd == "validate":
                if not json.loads(outcome.stdout)["all_passed"]:
                    raise CheckFailed("validate report has failing criteria")
            elif cmd == "positivity":
                _check_positivity(o, outcome.stdout)
            elif o["law"] == "odd":
                _check_odd(o, outcome.stdout)
            else:
                _check_curve(cmd, o, outcome.stdout)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a reference route or a parse that fails is a failed check
        return f"{type(exc).__name__}: {exc}"
    return None
