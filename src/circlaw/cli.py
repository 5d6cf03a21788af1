"""Command line surface.

``circlaw density``/``cdf`` evaluate any of the circular laws onto a
uniform grid of 8..2^20 nodes and emit CSV: a ``theta,value`` header,
then one row per node whose two fields are exactly the text of
``format(x, ".17g")`` (17 significant digits, locale independent; nan
and inf as Python writes them). From 256 nodes on the digits come from
one vectorized formatter, ``_format17``: it scales each value to
y = |v| 10^s in [10^16, 10^17) as a double-double, certified to 1e-14,
rounds y to the 17 digits and lays out the text as %g does. Python's
formatter takes the few values that product cannot decide: a fraction
of y within 1e-9 of 1/2 (an exact half, when y is exact, is rounded to
even), y within 0.25 below 10^16, 0, -0, inf, nan and magnitudes
outside [1e-280, 1e280]. Smaller grids fill a ``%.17g`` template. A
process builds each grid size's theta column once and fills in only
the values on later calls. ``circlaw positivity`` locates the
nonnegativity onset of an even-order law; ``circlaw validate`` runs
the numbered self-check suite and emits JSON. Identical configurations
(including the seed) produce byte-identical output.

Every flag is declared once, as a row of ``_COMMANDS``; argparse is
built from that table. An argv of the exact shape ``command (--flag
value)*`` is read from the table without building argparse: each flag
one of the command's, given once, each value not starting with '-' and
converted by the same int/float/str argparse would call, its choices
met, every required flag given. The Namespace is then the one argparse
returns. argparse reads every other argv as it always has: ``-h`` and
``--help``, abbreviated flags, ``--flag=value``, values that start with
'-' (negative numbers), repeated flags, and every malformed argv, which
it refuses with its usage message and exit code 2.

Exit codes: 0 success, 1 failed validation criteria, 2 invalid
parameters (an ``--out`` path that cannot be opened for writing among
them, found before any work), 3 numerical non-convergence, 141
(128 + SIGPIPE) when the reader of stdout closed it before the text was
written. Warnings raised while a command
runs are summarized on stderr afterwards, one line per category:
``warning: <Category> x<count>: <first message>``.
"""

import argparse
import json
import math
import os
import stat
import sys
import warnings
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache
from types import MappingProxyType
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
from .harmonic import _uniform_grid
from .kernels import even_kernel_cdf, even_kernel_density, odd_kernel_cdf, odd_kernel_density
from .pseudo import even_circle_law, odd_circle_density_wrapped, positivity_time
from .special import _WORK, DEFAULT_TOL, Tolerance, _frozen
from .validation import DEFAULT_SEED, GROUPS, report_json, run_suite

__all__ = ["main"]

# most rows a density/cdf grid takes: ~39 MB of CSV text and an 8 MB theta array
_MAX_GRID = 2**20
# the exit code of a command whose stdout reader closed the pipe: 128 + SIGPIPE,
# as a shell reports a process that SIGPIPE ended
_EXIT_BROKEN_PIPE = 141


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


@contextmanager
def _out_file(path):
    """The --out file, or None (stdout) without one, opened before the
    command's work: a path that cannot be opened for writing is a
    DomainError before anything is computed. It is opened for appending,
    so an existing file keeps its bytes until _emit writes, and a file
    opened here anew is removed again when the command fails."""
    if not path:
        yield None
        return
    created = not os.path.lexists(path)
    try:
        f = open(path, "a")
    except OSError as exc:
        raise DomainError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    try:
        with f:
            yield f
    except BaseException:
        if created:
            os.remove(path)
        raise


def _emit(parts, out, summary):
    """Write the str parts, in order, to the --out file of _out_file (a
    regular file emptied first) or to stdout, flushed here so that a
    reader that closed the pipe is met inside main."""
    if out is None:
        sys.stdout.writelines(parts)
        sys.stdout.flush()
        return
    if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
        out.truncate(0)
    out.writelines(parts)
    print(summary.format(path=out.name))


# 2^27 + 1: Veltkamp's constant, which splits a double into two halves
# whose pairwise products are exact
_SPLIT = 134217729.0
# the magnitudes _format17 certifies: inside, no split overflows and the
# low part of 10^s stays a normal double
_LOW, _HIGH = 1e-280, 1e280
# smallest grid whose values _format17 writes; below it a %.17g template
# is cheaper (on a 2-core VM the formatter takes ~0.08 ms plus ~0.12 us a
# value, the template ~0.4 us a value)
_VECTOR_GRID = 256
# an _format17 row: the 18 bytes that end at the units digit, the point
# (or NUL) at column 18, then the 23 bytes after the units digit
_ROW = np.dtype({"names": ["int", "point", "frac"], "formats": ["V18", "u1", "V23"],
                 "offsets": [0, 18, 19], "itemsize": 48})


@lru_cache(maxsize=None)
def _ten_powers(b):
    """10^s for s = 16 b .. 16 b + 15 as read-only double-doubles (hi, lo):
    hi is the double nearest 10^s and lo the double nearest 10^s - hi,
    both by exact integer arithmetic. Built on first use; _format17 asks
    for b in -17..18."""
    his, los = [], []
    for s in range(16 * b, 16 * b + 16):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi = num / den  # int / int rounds correctly
        hn, hd = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * hd - hn * den) / (den * hd))
    return _frozen(np.array(his)), _frozen(np.array(los))


@lru_cache(maxsize=None)
def _digit_tables():
    """Read-only tables over 0..9999: the four ASCII digits as one
    little-endian uint32, the same with trailing zeros made NUL, and the
    count of trailing zeros (4 for 0)."""
    ten = np.arange(48, 58, dtype=np.uint8)  # ASCII '0'..'9'
    d = np.empty((10000, 4), np.uint8)
    for j in range(4):
        d[:, j] = np.tile(np.repeat(ten, 10 ** (3 - j)), 10**j)
    stripped, zeros, trailing = d.copy(), np.zeros(10000, np.intp), np.ones(10000, bool)
    for j in (3, 2, 1, 0):
        trailing &= d[:, j] == 48
        zeros += trailing
        stripped[:, j] *= ~trailing
    return _frozen(d.view("<u4").ravel()), _frozen(stripped.view("<u4").ravel()), _frozen(zeros)


def _scaled(a, s, hi, lo):
    """y = a 10^s as p + pl: p = fl(a hi) and its error, exact by Dekker's
    product over Veltkamp splits, plus a lo."""
    hi, lo = hi[s], lo[s]
    p = a * hi
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = hi * _SPLIT
    bh = t - (t - hi)
    bl = hi - bh
    return p, (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * lo


def _digits(a):
    """The 17 significant digits D of each a in [1e-280, 1e280], as int64
    in [10^16, 10^17), the decimal exponent X of D's first digit, and the
    rows the product leaves undecided.

    y = a 10^(16 - X) is formed by _scaled, with an error below 1e-14
    while y < 10^17, so D = round(y) is certain unless y's fraction lies
    within 1e-9 of 1/2. Where 10^(16 - X) is a double, y is exact and an
    exact half goes to the even D, as Python's formatter does. X starts
    from log10 and is fixed from the unrounded y; y within 0.25 below
    10^16 is left undecided, and a D that rounds up to 10^17 becomes
    10^16 with X one higher."""
    k = np.floor(np.log10(a)).astype(np.intp)
    kmin, kmax = int(k.min()) - 1, int(k.max()) + 1
    b0 = (16 - kmax) // 16
    tables = [_ten_powers(b) for b in range(b0, (16 - kmin) // 16 + 1)]
    hi, lo = (np.concatenate(part) for part in zip(*tables))
    s = (16 - 16 * b0) - k  # index of 10^(16 - k) in hi, lo
    p, pl = _scaled(a, s, hi, lo)
    undecided = np.zeros(a.size, bool)
    # y < 10^16 or y >= 10^17, signs that the rounded p, pl keep exactly
    low, high = (p - 1e16) + pl < 0, (p - 1e17) + pl >= 0
    if (low | high).any():
        i = np.flatnonzero(low | high)
        near = low[i] & ((1e16 - p[i]) - pl[i] <= 0.25)
        step = (low[i] & ~near).astype(np.intp) - high[i]
        k[i] -= step
        s[i] += step
        p[i], pl[i] = _scaled(a[i], s[i], hi, lo)
        undecided[i] = near | ((p[i] - 1e16) + pl[i] < 0) | ((p[i] - 1e17) + pl[i] >= 0)
    u = pl + 0.5
    f = np.floor(u)
    D = p.astype(np.int64) + f.astype(np.int64)
    tie = np.abs((u - f) - 0.5) > 0.5 - 1e-9
    if tie.any():
        i = np.flatnonzero(tie)
        f = np.floor(pl[i])
        frac = pl[i] - f
        Di = p[i].astype(np.int64) + f.astype(np.int64)
        D[i] = Di + ((frac > 0.5) | ((frac == 0.5) & (Di % 2 == 1)))
        undecided[i] |= (lo[s[i]] != 0.0) & (np.abs(frac - 0.5) < 1e-9)
    # y in [10^17 - 1/2, 10^17) rounds up to 10^17: the digits are 1 and 0s,
    # one place up (log10 puts a within 5e-18 below 10^(X + 1) at either X)
    carry = D == 10**17
    if carry.any():
        D[carry] = 10**16
        k[carry] += 1
    return D, k, undecided


def _format17(v):
    """format(x, ".17g") of every double x of the 1-d v, as an S24 array.

    %g writes D's digits in fixed layout when -4 <= X < 17 and as
    d.ddd...e+XX otherwise, then strips trailing zeros. Each value's
    digits go into a 32-byte row of E, its seven '0's then d0..d16 (NUL
    past the last kept digit); a row of R takes the 18 bytes of E that
    end at the units digit, the point and the bytes after it. Reading
    24 bytes of R from the first character on gives the text; a minus
    sign and the exponent are written into R beforehand."""
    n = v.size
    a = np.abs(v)
    inside = (a >= _LOW) & (a <= _HIGH)
    a[~inside] = 1.0  # a stand-in: Python's formatter takes these rows
    D, X, undecided = _digits(a)
    words, stripped, zeros = _digit_tables()
    # D = top 10^16 + q 10^8 + r, and groups holds d1..d4, .., d13..d16
    q = D // 100000000
    r = D - q * 100000000
    top = q // 100000000
    q -= top * 100000000
    g1, g3 = q // 10000, r // 10000
    groups = (g1, q - g1 * 10000, g3, r - g3 * 10000)
    expo = (X < -4) | (X > 16)
    Xp = np.where(expo, 0, X)  # position of the units digit among d0..d16
    E = np.zeros((n + 2, 8), "<u4")  # a zero row on each side
    rows = E[1:-1]
    rows[:, 0] = 0x30303030
    rows[:, 1] = words[top]  # '000' d0
    for j, g in enumerate(groups[:3]):
        rows[:, 2 + j] = words[g]
    rows[:, 5] = stripped[groups[3]]
    nd = 17 - zeros[groups[3]]  # significant digits, if d13..d16 are not all 0
    recount = ((groups[3] == 0) | (nd <= Xp)) & inside
    if recount.any():
        # d13..d16 are all 0, or the integer part ends in zeros: count and
        # keep these rows' digits byte by byte
        i = np.flatnonzero(recount)
        sub = E[i + 1]
        sub[:, 5] = words[groups[3][i]]
        d = sub.view(np.uint8)[:, 8:24]  # d1..d16
        nonzero = d != ord("0")
        nd[i] = np.where(nonzero.any(axis=1), 17 - np.argmax(nonzero[:, ::-1], axis=1), 1)
        d[np.arange(1, 17) >= np.maximum(nd[i], Xp[i] + 1)[:, None]] = 0
        E[i + 1] = sub
    nfrac = np.maximum(nd, Xp + 1) - 1 - Xp  # digits after the point
    Eb = E.view(np.uint8).ravel()
    units = np.arange(39, 32 * n + 39, 32) + Xp  # E byte of the units digit
    R = np.empty(n, _ROW)
    R["int"] = np.ndarray((Eb.size - 17,), "V18", Eb, 0, (1,))[units - 17]
    R["frac"] = np.ndarray((Eb.size - 22,), "V23", Eb, 0, (1,))[units + 1]
    R["point"] = (nfrac > 0) * np.uint8(ord("."))
    Rb = R.view(np.uint8)
    base = np.arange(0, 48 * n, 48)
    first = base + 17 - np.maximum(Xp, 0)
    Rb[first - 1] = ord("-")  # read only where v is negative
    first -= np.signbit(v)
    if expo.any():
        # 'e', the sign and two or three digits as one word, written right
        # after the last digit (a zero word on the fixed rows)
        ex = np.abs(X)
        digits = words[ex].astype(np.uint64) >> np.where(ex >= 100, 8, 16).astype(np.uint64)
        suffix = (0x2B65 + ((X < 0).astype(np.uint64) << np.uint64(9)) + (digits << np.uint64(16))) * expo
        end = base + 18 + (nfrac > 0) * (nfrac + 1)
        np.ndarray((Rb.size - 7,), "<u8", Rb, 0, (1,))[end] = suffix
    out = np.ndarray((Rb.size - 23,), "S24", Rb, 0, (1,))[first]
    for i in np.flatnonzero(undecided | ~inside).tolist():
        out[i] = format(float(v[i]), ".17g").encode()
    return out


# a handful of sizes: the benchmark and the tests cycle through three to
# five grids per process, while at the 2^20 ceiling one entry holds ~30 MB
# (a 22 MB template and the 8 MB grid)
@lru_cache(maxsize=4)
def _csv_grid(n):
    """The read-only uniform grid of n nodes on [0, 2 pi] (_uniform_grid(n - 1)
    and its 2 pi endpoint, not numpy's linspace) and its CSV template: the header
    and one row per node, theta's text filled in and the value's left open.
    Below _VECTOR_GRID nodes the template is one str with a %.17g per row; from
    there on it is a tuple of bytes blocks of _WORK rows with a %s per row, theta's
    text written by _format17. Either way a row's fields are the text of format(x, ".17g")."""
    th = _frozen(_uniform_grid(n - 1, endpoint=True))
    if n < _VECTOR_GRID:
        return th, "theta,value\n" + "".join(f"{x:.17g},%.17g\n" for x in th.tolist())
    blocks = [b",%s\n".join(_format17(th[lo : lo + _WORK]).tolist()) + b",%s\n" for lo in range(0, n, _WORK)]
    blocks[0] = b"theta,value\n" + blocks[0]
    return th, tuple(blocks)


def _csv_text(template, vals):
    """The CSV text of _csv_grid's template with vals filled in, as str
    parts of at most _WORK rows: the text of a 2^20-row grid is never
    held whole."""
    vals = np.asarray(vals, dtype=np.float64)
    if isinstance(template, str):
        yield template % tuple(vals.tolist())
        return
    for j, block in enumerate(template):
        yield (block % tuple(_format17(vals[j * _WORK : (j + 1) * _WORK]).tolist())).decode("ascii")


def cmd_curve(args, out):
    law = LAWS[args.law][1](args, Tolerance(abs_tol=args.tol))
    th, template = _csv_grid(args.grid_points)
    vals = law.cdf(th) if args.command == "cdf" else law.density(th)
    _emit(_csv_text(template, vals), out, f"wrote {th.size} rows to {{path}}")
    return 0


def cmd_positivity(args, out):
    t_bar = positivity_time(args.n, Tolerance(abs_tol=args.tol))
    # positivity_time proves the minimum sits at pi from t_bar on
    text = json.dumps({"t_bar": t_bar, "min_theta_at_t_bar": math.pi}, indent=2) + "\n"
    _emit((text,), out, "wrote positivity report to {path}")
    return 0


def cmd_validate(args, out):
    results = run_suite(seed=args.seed, tol=args.tol, only=args.only)
    text = report_json(results, args.seed, args.tol)
    n_pass = sum(r.passed for r in results)
    _emit((text,), out, f"validate: {n_pass}/{len(results)} passed -> {{path}}")
    failing = [r.id for r in results if not r.passed]
    if failing:
        print("failing criteria: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


class _Flag(NamedTuple):
    """One option of a subcommand, as add_argument takes it. type is the
    int, float or str that converts the flag's text; no default is a str,
    which argparse would pass through type."""

    flag: str
    dest: str
    type: Callable = str
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None


_CURVE_FLAGS = (
    _Flag("--law", "law", required=True, choices=tuple(LAWS)),
    _Flag("--n", "n", int, 1, help="order index (order 2n even, 2n+1 odd)"),
    _Flag("--nu", "nu", float, help="time-fractional exponent in (0, 1]"),
    _Flag("--beta", "beta", float, help="space-fractional exponent in (0, 1]"),
    _Flag("--t", "t", float, required=True),
    _Flag("--grid", "grid_points", int, 512),
    _Flag("--tol", "tol", float, DEFAULT_TOL.abs_tol),
    _Flag("--out", "out", help="CSV path (default: stdout)"),
)

# subcommand -> (its --help line, its flags in --help order): the one
# declaration of the command line, read by _build_parser and _parse_table
_COMMANDS = MappingProxyType({
    "density": ("evaluate a law's density on a uniform grid (CSV)", _CURVE_FLAGS),
    "cdf": ("evaluate a law's CDF on a uniform grid (CSV)", _CURVE_FLAGS),
    "positivity": (
        "nonnegativity onset of an even-order law (JSON)",
        (
            _Flag("--n", "n", int, required=True),
            _Flag("--tol", "tol", float, DEFAULT_TOL.abs_tol),
            _Flag("--out", "out", help="JSON path (default: stdout)"),
        ),
    ),
    "validate": (
        "run the self-check suite (JSON report)",
        (
            _Flag("--seed", "seed", int, DEFAULT_SEED),
            _Flag("--tol", "tol", float, DEFAULT_TOL.abs_tol, help="KS thresholds loosen to max(pinned, tol)"),
            _Flag("--only", "only", choices=GROUPS, help="run a single criterion group"),
            _Flag("--out", "out", help="JSON path (default: stdout)"),
        ),
    ),
})


# built once per process, and only for argv that _parse_table leaves:
# parse_args leaves the parser as it was, while a build costs ~2 ms
@lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(
        prog="circlaw",
        description="Circular heat-type laws: evaluate densities/CDFs, "
        "locate positivity onsets, run the self-check suite.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (blurb, flags) in _COMMANDS.items():
        q = sub.add_parser(name, help=blurb)
        for f in flags:
            q.add_argument(
                f.flag, dest=f.dest, type=f.type, default=f.default,
                required=f.required, choices=f.choices, help=f.help,
            )
    return p


def _parse_table(argv):
    """The Namespace argparse makes of argv when argv is exactly
    ``command (--flag value)*``: each flag one of the command's in
    _COMMANDS, given once, with a str value that does not start with '-'
    and that the flag's type converts and its choices hold, and every
    required flag given. None for any other argv, which argparse then
    reads (and refuses, or answers with --help)."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None or len(argv) % 2 == 0:
        return None
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2:  # a flag given twice
        return None
    values = {"command": argv[0]}
    for f in entry[1]:
        if f.flag not in given:
            if f.required:
                return None
            values[f.dest] = f.default
            continue
        text = given.pop(f.flag)
        if not isinstance(text, str) or text.startswith("-"):
            return None
        try:
            value = f.type(text)
        except (TypeError, ValueError):
            return None
        if f.choices is not None and value not in f.choices:
            return None
        values[f.dest] = value
    return None if given else argparse.Namespace(**values)


def _summarize(caught):
    """One stderr line per warning category: its count and first message."""
    first = {}
    for w in caught:
        first.setdefault(w.category.__name__, str(w.message).split("\n", 1)[0].strip())
    counts = Counter(w.category.__name__ for w in caught)
    for name, message in first.items():
        print(f"warning: {name} x{counts[name]}: {message}", file=sys.stderr)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_table(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _check(args)
            with _out_file(args.out) as out:
                if args.command in ("density", "cdf"):
                    return cmd_curve(args, out)
                if args.command == "positivity":
                    return cmd_positivity(args, out)
                return cmd_validate(args, out)
        except (DomainError, ValueError) as exc:
            print(f"invalid-parameters: {exc}", file=sys.stderr)
            return 2
        except ConvergenceError as exc:
            print(f"non-convergence: {exc}", file=sys.stderr)
            return 3
        except BrokenPipeError:
            # the reader of stdout is gone: the rest of the text has nowhere
            # to go, and the flush at interpreter exit would raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return _EXIT_BROKEN_PIPE
        finally:
            _summarize(caught)


if __name__ == "__main__":
    sys.exit(main())
