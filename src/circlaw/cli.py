"""Command line surface.

``circlaw density``/``cdf`` evaluate any of the circular laws onto a
uniform grid of 8..2^20 nodes and emit CSV (17 significant digits,
locale independent); a process builds each grid size's CSV text, theta
column included, once and fills in only the values on later calls;
``circlaw positivity`` locates the nonnegativity onset of an even-order
law; ``circlaw validate`` runs the numbered self-check suite and emits
JSON. Identical configurations (including the seed) produce
byte-identical output. Exit codes: 0 success, 1 failed validation
criteria, 2 invalid parameters, 3 numerical non-convergence. Warnings
raised while a command runs are summarized on stderr afterwards, one
line per category: ``warning: <Category> x<count>: <first message>``.
"""

import argparse
import json
import math
import sys
import warnings
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .brownian import bm_law
from .errors import ConvergenceError, DomainError
from .fractional import (
    space_fractional_law,
    space_time_fractional_cdf,
    space_time_fractional_density,
    time_fractional_law,
    wrapped_stable_law,
)
from .harmonic import TWO_PI
from .kernels import even_kernel_cdf, even_kernel_density, odd_kernel_cdf, odd_kernel_density
from .pseudo import even_circle_law, odd_circle_density_wrapped, positivity_time
from .special import DEFAULT_TOL, Tolerance, _frozen
from .validation import DEFAULT_SEED, GROUPS, report_json, run_suite

__all__ = ["main"]

# most rows a density/cdf grid takes: ~27 MB of CSV text and an 8 MB theta array
_MAX_GRID = 2**20


class _Curves(NamedTuple):
    """density/cdf pair for a law without a harmonic carrier."""

    density: Callable
    cdf: Callable


def _odd_cdf(thetas):
    raise ConvergenceError(
        "the odd-order signed law has no absolutely convergent CDF "
        "series; only density values are available"
    )


# --law selector -> (flags it needs, builder(args, tol) of an object with
# density and cdf); argparse choices, _check and cmd_curve read it
LAWS = {
    "even": ((), lambda c, tol: even_circle_law(c.n, c.t, tol)),
    "odd": ((), lambda c, tol: _Curves(lambda th: odd_circle_density_wrapped(c.n, th, c.t, tol), _odd_cdf)),
    "bm": ((), lambda c, tol: bm_law(c.t, tol).representation),
    "timefrac": (("nu",), lambda c, tol: time_fractional_law(c.n, c.nu, c.t, tol)),
    "spacefrac": (("beta",), lambda c, tol: space_fractional_law(c.beta, c.t, tol)),
    "spacetimefrac": (
        ("nu", "beta"),
        lambda c, tol: _Curves(
            lambda th: space_time_fractional_density(c.nu, c.beta, th, c.t, tol),
            lambda th: space_time_fractional_cdf(c.nu, c.beta, th, c.t, tol),
        ),
    ),
    "wrappedstable": (("beta",), lambda c, tol: wrapped_stable_law(c.beta, c.t, tol)),
    "kernel-even": (
        (),
        lambda c, tol: _Curves(
            lambda th: even_kernel_density(th, c.t), lambda th: even_kernel_cdf(th, c.t)
        ),
    ),
    "kernel-odd": (
        (),
        lambda c, tol: _Curves(
            lambda th: odd_kernel_density(c.n, th, c.t), lambda th: odd_kernel_cdf(c.n, th, c.t)
        ),
    ),
}


def _check(args):
    """Refuse parsed arguments that argparse lets through, with DomainError."""
    if not 0.0 < args.tol < math.inf:
        raise DomainError("tol must be positive and finite")
    if args.command in ("density", "cdf"):
        if not 0.0 < args.t < math.inf:
            raise DomainError("t must be positive and finite")
        if args.grid_points < 8:
            raise DomainError("grid_points must be >= 8")
        if args.grid_points > _MAX_GRID:
            raise DomainError(f"grid_points must be <= {_MAX_GRID} (2^20)")
        for flag in LAWS[args.law][0]:
            if getattr(args, flag) is None:
                raise DomainError(f"law {args.law!r} needs --{flag}")
    if args.command == "positivity" and args.n < 1:
        raise DomainError("n must be an integer >= 1")


def _emit(text, out, summary):
    if out:
        Path(out).write_text(text)
        print(summary.format(path=out))
    else:
        sys.stdout.write(text)


# a handful of sizes: the benchmark and the tests cycle through three to
# five grids per process, while at the 2^20 ceiling one entry holds ~35 MB
@lru_cache(maxsize=4)
def _csv_grid(n):
    """The read-only uniform grid of n nodes on [0, 2 pi] and its CSV text:
    the header and one row per node, theta's 17 digits filled in and a
    %.17g left for the value (the digits of format(v, ".17g"), nan and inf
    included)."""
    th = _frozen(np.linspace(0.0, TWO_PI, n))
    return th, "theta,value\n" + "".join(f"{x:.17g},%.17g\n" for x in th.tolist())


def cmd_curve(args):
    law = LAWS[args.law][1](args, Tolerance(abs_tol=args.tol))
    th, template = _csv_grid(args.grid_points)
    vals = law.cdf(th) if args.command == "cdf" else law.density(th)
    _emit(template % tuple(np.asarray(vals).tolist()), args.out, f"wrote {th.size} rows to {{path}}")
    return 0


def cmd_positivity(args):
    t_bar = positivity_time(args.n, Tolerance(abs_tol=args.tol))
    # positivity_time proves the minimum sits at pi from t_bar on
    text = json.dumps({"t_bar": t_bar, "min_theta_at_t_bar": math.pi}, indent=2) + "\n"
    _emit(text, args.out, "wrote positivity report to {path}")
    return 0


def cmd_validate(args):
    results = run_suite(seed=args.seed, tol=args.tol, only=args.only)
    text = report_json(results, args.seed, args.tol)
    n_pass = sum(r.passed for r in results)
    _emit(text, args.out, f"validate: {n_pass}/{len(results)} passed -> {{path}}")
    failing = [r.id for r in results if not r.passed]
    if failing:
        print("failing criteria: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# built once per process: parse_args leaves the parser as it was, while a
# rebuild costs ~1 ms per call and leaves reference cycles for the collector
@lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(
        prog="circlaw",
        description="Circular heat-type laws: evaluate densities/CDFs, "
        "locate positivity onsets, run the self-check suite.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("density", "evaluate a law's density on a uniform grid (CSV)"),
        ("cdf", "evaluate a law's CDF on a uniform grid (CSV)"),
    ):
        q = sub.add_parser(name, help=blurb)
        q.add_argument("--law", required=True, choices=tuple(LAWS))
        q.add_argument("--n", type=int, default=1, help="order index (order 2n even, 2n+1 odd)")
        q.add_argument("--nu", type=float, help="time-fractional exponent in (0, 1]")
        q.add_argument("--beta", type=float, help="space-fractional exponent in (0, 1]")
        q.add_argument("--t", type=float, required=True)
        q.add_argument("--grid", type=int, default=512, dest="grid_points")
        q.add_argument("--tol", type=float, default=DEFAULT_TOL.abs_tol)
        q.add_argument("--out", help="CSV path (default: stdout)")
    q = sub.add_parser("positivity", help="nonnegativity onset of an even-order law (JSON)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--tol", type=float, default=DEFAULT_TOL.abs_tol)
    q.add_argument("--out", help="JSON path (default: stdout)")
    q = sub.add_parser("validate", help="run the self-check suite (JSON report)")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument(
        "--tol", type=float, default=DEFAULT_TOL.abs_tol, help="KS thresholds loosen to max(pinned, tol)"
    )
    q.add_argument("--only", choices=GROUPS, help="run a single criterion group")
    q.add_argument("--out", help="JSON path (default: stdout)")
    return p


def _summarize(caught):
    """One stderr line per warning category: its count and first message."""
    first = {}
    for w in caught:
        first.setdefault(w.category.__name__, str(w.message).split("\n", 1)[0].strip())
    counts = Counter(w.category.__name__ for w in caught)
    for name, message in first.items():
        print(f"warning: {name} x{counts[name]}: {message}", file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _check(args)
            if args.command in ("density", "cdf"):
                return cmd_curve(args)
            if args.command == "positivity":
                return cmd_positivity(args)
            return cmd_validate(args)
        except (DomainError, ValueError) as exc:
            print(f"invalid-parameters: {exc}", file=sys.stderr)
            return 2
        except ConvergenceError as exc:
            print(f"non-convergence: {exc}", file=sys.stderr)
            return 3
        finally:
            _summarize(caught)


if __name__ == "__main__":
    sys.exit(main())
