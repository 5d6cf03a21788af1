"""CLI surface tests: CSV/JSON shape, library-oracle agreement, exit
codes, byte determinism, and argv read from the option table as
argparse reads it."""

import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import circlaw
from circlaw import Tolerance, fractional
from circlaw.brownian import bm_law
from circlaw.cli import (
    _COMMANDS,
    _HIGH,
    _LOW,
    _VECTOR_GRID,
    LAWS,
    _build_parser,
    _check,
    _csv_grid,
    _csv_text,
    _digits,
    _format17,
    _parse_table,
    main,
)
from circlaw.fractional import (
    space_fractional_law,
    space_time_fractional_cdf,
    space_time_fractional_density,
    time_fractional_law,
    wrapped_stable_law,
)
from circlaw.harmonic import TWO_PI, _grid_period
from circlaw.kernels import even_kernel_cdf, even_kernel_density, odd_kernel_cdf, odd_kernel_density
from circlaw.pseudo import even_circle_density_wrapped, even_circle_law, odd_circle_density_wrapped
from circlaw.special import _WORK
from circlaw.validation import GROUPS


TOL6 = Tolerance(abs_tol=1e-6)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def library_curve(command, law, opts, th):
    """Direct library evaluation of a `--law` selector at t = 1."""
    tol = Tolerance(abs_tol=float(opts.get("--tol", 1e-10)))
    n = int(opts.get("--n", 1))
    nu, beta = float(opts.get("--nu", 1.0)), float(opts.get("--beta", 1.0))
    cdf = command == "cdf"
    series = {
        "even": lambda: even_circle_law(n, 1.0, tol),
        "bm": lambda: bm_law(1.0, tol),
        "timefrac": lambda: time_fractional_law(n, nu, 1.0, tol),
        "spacefrac": lambda: space_fractional_law(beta, 1.0, tol),
        "wrappedstable": lambda: wrapped_stable_law(beta, 1.0, tol),
    }
    if law in series:
        carrier = series[law]()
        return carrier.cdf(th) if cdf else carrier.density(th)
    if law == "odd":
        return odd_circle_density_wrapped(n, th, 1.0, tol)
    if law == "spacetimefrac":
        f = space_time_fractional_cdf if cdf else space_time_fractional_density
        return f(nu, beta, th, 1.0, tol)
    if law == "kernel-even":
        return even_kernel_cdf(th, 1.0) if cdf else even_kernel_density(th, 1.0)
    return odd_kernel_cdf(n, th, 1.0) if cdf else odd_kernel_density(n, th, 1.0)


def parse_csv(out):
    lines = out.strip().split("\n")
    assert lines[0] == "theta,value"
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    return np.array(rows)


class TestCurveCommands:
    def test_density_even_matches_library(self, capsys):
        code, out, _ = run(capsys, "density", "--law", "even", "--n", "2", "--t", "1")
        assert code == 0
        rows = parse_csv(out)
        assert rows.shape == (512, 2)
        assert rows[0, 0] == 0.0 and rows[-1, 0] == pytest.approx(TWO_PI, abs=0)
        assert np.all(np.diff(rows[:, 0]) > 0)
        law = even_circle_law(2, 1.0)
        assert np.array_equal(rows[:, 1], law.density(rows[:, 0]))
        # pointwise evaluation sums in another order: equal within roundoff
        assert rows[0, 1] == float(law.density(0.0))
        assert rows[17, 1] == pytest.approx(float(law.density(rows[17, 0])), rel=0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_density_even_at_small_t(self, capsys, n):
        # the convexity tail lets the series serve t = 1e-6 (5144 terms at
        # n = 1, 68 at n = 2); it agrees with the wrapped route within
        # tol + tail_bound
        code, out, _ = run(capsys, "density", "--law", "even", "--n", str(n), "--t", "1e-6", "--grid", "64")
        assert code == 0
        rows = parse_csv(out)
        wrapped = even_circle_density_wrapped(n, rows[:, 0], 1e-6)
        bound = 1e-10 + even_circle_law(n, 1e-6).tail_bound
        assert np.max(np.abs(rows[:, 1] - wrapped)) <= bound

    def test_density_kernel_even_semantics(self, capsys):
        # value at theta=0 equals the library kernel at the parsed t;
        # 3/(2 pi) is that value at t = ln 2, not at 0.6931
        code, out, _ = run(capsys, "density", "--law", "kernel-even", "--t", "0.6931")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0, 1] == float(even_kernel_density(0.0, 0.6931))
        assert abs(even_kernel_density(0.0, math.log(2.0)) - 3.0 / TWO_PI) < 1e-15
        assert abs(rows[0, 1] - 3.0 / TWO_PI) > 1e-5

    def test_density_kernel_even_small_t_is_finite(self, capsys):
        code, out, _ = run(capsys, "density", "--law", "kernel-even", "--t", "1e-9", "--grid", "8")
        assert code == 0
        rows = parse_csv(out)
        assert rows.shape == (8, 2) and np.all(np.isfinite(rows[:, 1]))

    def test_density_bm_large_t(self, capsys):
        # the carrier's coefficients underflow to 0 at t = 1e4: uniform law
        code, out, _ = run(capsys, "density", "--law", "bm", "--t", "10000", "--grid", "8")
        assert code == 0
        rows = parse_csv(out)
        assert rows.shape == (8, 2) and np.all(np.abs(rows[:, 1] - 1.0 / TWO_PI) <= 1e-10)

    def test_cdf_bm_endpoints(self, capsys):
        code, out, _ = run(capsys, "cdf", "--law", "bm", "--t", "1")
        assert code == 0
        rows = parse_csv(out)
        assert rows.shape[0] == 512
        assert abs(rows[-1, 1] - 1.0) < 1e-9
        assert abs(rows[0, 1]) < 1e-12
        assert np.all(np.diff(rows[:, 1]) >= -1e-13)

    @pytest.mark.parametrize(
        "command,law,extra",
        [
            ("density", "spacefrac", ("--beta", "0.5")),
            ("density", "wrappedstable", ("--beta", "0.5")),
            # algebraic k^{-2 beta} coefficient decay: the pointwise
            # series is feasible only at high beta and loose tol; the
            # CDF series (one more power of k) is the practical route
            ("density", "spacetimefrac", ("--nu", "0.5", "--beta", "0.9", "--tol", "1e-3")),
            ("cdf", "spacetimefrac", ("--nu", "0.5", "--beta", "0.7", "--tol", "1e-6")),
            ("density", "kernel-odd", ("--n", "2",)),
            ("cdf", "kernel-odd", ("--n", "2",)),
            ("density", "even", ("--n", "2")),
            ("cdf", "even", ("--n", "2")),
            ("density", "odd", ("--n", "1")),
            ("density", "bm", ()),
            ("cdf", "bm", ()),
            ("density", "timefrac", ("--n", "2", "--nu", "0.6", "--tol", "1e-8")),
            ("cdf", "timefrac", ("--n", "2", "--nu", "0.6", "--tol", "1e-8")),
            ("cdf", "spacefrac", ("--beta", "0.5")),
            ("cdf", "wrappedstable", ("--beta", "0.5")),
            ("density", "kernel-even", ()),
            ("cdf", "kernel-even", ()),
            # beta = 1: tiny nu (2^{-1/nu} underflows) and a CDF-level cutoff
            ("density", "spacetimefrac", ("--nu", "1e-9", "--beta", "1", "--tol", "1e-2")),
            ("cdf", "spacetimefrac", ("--nu", "0.5", "--beta", "1", "--tol", "1e-8")),
        ],
    )
    def test_other_laws_emit_curves(self, capsys, command, law, extra):
        code, out, _ = run(capsys, command, "--law", law, "--t", "1", "--grid", "16", *extra)
        assert code == 0
        rows = parse_csv(out)
        assert rows.shape == (16, 2) and np.all(np.isfinite(rows))
        # the CSV carries exactly what the library computes on the grid
        opts = dict(zip(extra[::2], extra[1::2]))
        expect = library_curve(command, law, opts, np.linspace(0.0, TWO_PI, 16))
        assert np.array_equal(rows[:, 0], np.linspace(0.0, TWO_PI, 16))
        assert np.array_equal(rows[:, 1], expect)

    @pytest.mark.parametrize(
        "command,law,extra,cdf,loose",
        [
            # the plain density series at beta = 0.7 affords only tol 1e-2
            ("density", "spacetimefrac", ("--nu", "0.5", "--beta", "0.7"), False, Tolerance(abs_tol=1e-2)),
            ("cdf", "spacetimefrac", ("--nu", "0.5", "--beta", "0.5"), True, TOL6),
            ("density", "timefrac", ("--n", "1", "--nu", "0.5"), False, TOL6),
            ("cdf", "timefrac", ("--n", "1", "--nu", "0.5"), True, TOL6),
        ],
        ids=["spacetimefrac-density", "spacetimefrac-cdf", "timefrac-density", "timefrac-cdf"],
    )
    def test_slow_decay_laws_answer_at_the_default_tol(self, capsys, command, law, extra, cdf, loose):
        # the plain series would refuse here (~1e9 terms or more); the lattice
        # form answers, and every row lies within both routes' certificates
        # of the plain series (the second route) at a loose tol
        code, out, _ = run(capsys, command, "--law", law, "--t", "1", "--grid", "16", *extra)
        assert code == 0
        rows = parse_csv(out)
        opts = dict(zip(extra[::2], extra[1::2]))
        nu, tol = float(opts["--nu"]), Tolerance()
        if law == "timefrac":
            laws = [fractional._time_fractional_law(1, nu, 1.0, t, p) for t, p in ((tol, 0), (loose, math.inf))]
        else:
            beta = float(opts["--beta"])
            laws = [fractional._space_time_law(nu, beta, 1.0, t, cdf, p) for t, p in ((tol, 16), (loose, math.inf))]
        assert laws[0].lattice is not None and laws[0].tail_bound <= 1e-10
        plain = laws[1].cdf(rows[:, 0]) if cdf else laws[1].density(rows[:, 0])
        assert np.all(np.abs(rows[:, 1] - plain) <= laws[0].tail_bound + laws[1].tail_bound)

    def test_odd_density_rows_are_wrapped_route(self, capsys):
        code, out, err = run(capsys, "density", "--law", "odd", "--n", "1", "--t", "1", "--grid", "8")
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert np.array_equal(rows[:, 1], odd_circle_density_wrapped(1, rows[:, 0], 1.0))

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_odd_density_ends_agree(self, capsys, n):
        # theta = 2 pi is theta = 0 on the circle: the rows must be equal
        code, out, _ = run(capsys, "density", "--law", "odd", "--n", n, "--t", "1", "--grid", "8")
        rows = parse_csv(out)
        assert code == 0 and rows[-1, 1] == rows[0, 1]

    def test_higher_odd_order_rows_are_certified(self, capsys):
        # every shell value comes from the certified contour kernel: no
        # quadrature warning, and the rows are the wrapped route's values
        code, out, err = run(capsys, "density", "--law", "odd", "--n", "2", "--t", "1", "--grid", "64")
        assert code == 0 and err == ""
        rows = parse_csv(out)
        assert np.array_equal(rows[:, 1], odd_circle_density_wrapped(2, rows[:, 0], 1.0))

    @pytest.mark.parametrize("t", ["1e30", "1e300"])
    def test_odd_window_past_its_shell_cap_refused(self, capsys, t):
        code, out, err = run(capsys, "density", "--law", "odd", "--n", "2", "--t", t, "--grid", "8")
        assert code == 3 and out == ""
        assert err.startswith("non-convergence: the odd window needs") and err.endswith("cap of 262144\n")

    def test_odd_cdf_refused(self, capsys):
        code, _, err = run(capsys, "cdf", "--law", "odd", "--t", "1")
        assert code == 3 and "CDF" in err

    @pytest.mark.parametrize("where", ["missing-dir/curve.csv", "."], ids=["missing directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = tmp_path / where
        code, out, err = run(capsys, "density", "--law", "bm", "--t", "1", "--grid", "8", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invalid-parameters: cannot write --out") and err.count("\n") == 1

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, _ = run(capsys, "density", "--law", "bm", "--t", "1", "--grid", "32", "--out", str(path))
        assert code == 0
        assert "32 rows" in out
        assert parse_csv(path.read_text()).shape == (32, 2)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "density", "--law", "even", "--n", "3", "--t", "0.5")
        _, out2, _ = run(capsys, "density", "--law", "even", "--n", "3", "--t", "0.5")
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ("density", "--law", "even", "--t", "-1"),
            ("density", "--law", "even", "--t", "1", "--grid", "4"),
            ("density", "--law", "spacefrac", "--t", "1"),
            ("density", "--law", "spacetimefrac", "--beta", "0.7", "--t", "1"),
            ("cdf", "--law", "even", "--t", "1", "--tol", "0"),
            ("density", "--law", "bm", "--t", "inf"),
            ("density", "--law", "kernel-odd", "--t", "nan"),
            ("cdf", "--law", "even", "--t", "1", "--tol", "inf"),
            ("validate", "--only", "special", "--tol", "inf"),
            # one row past the 2^20 ceiling, refused before any array is made
            ("density", "--law", "bm", "--t", "1", "--grid", str(2**20 + 1)),
        ],
    )
    def test_invalid_parameters_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("invalid-parameters:")

    def test_grid_ceiling_is_inclusive(self):
        # checked on the parsed arguments alone: a 2^20-row run would build ~39 MB
        _check(_build_parser().parse_args(["density", "--law", "bm", "--t", "1", "--grid", str(2**20)]))

    def test_unknown_law_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["density", "--law", "nope", "--t", "1"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; parsing must leave it unchanged
        argv = ("density", "--law", "kernel-odd", "--n", "2", "--t", "0.7", "--grid", "16")
        first = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["density", "--law", "even", "--t", "1", "--bogus", "3"])
        assert exc.value.code == 2 and "--bogus" in capsys.readouterr().err
        # a call that leaves --n at its default, after one that set it, reads the default
        default = run(capsys, "cdf", "--law", "kernel-odd", "--t", "0.7", "--grid", "8")
        assert default == run(capsys, "cdf", "--law", "kernel-odd", "--n", "1", "--t", "0.7", "--grid", "8")
        assert run(capsys, *argv) == first
        assert _build_parser() is _build_parser()


def argparse_reading(argv):
    """What the parser makes of argv: its Namespace, or None where it exits
    (an error, or --help)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _build_parser().parse_args(argv)
        except SystemExit:
            return None


def same_namespace(a, b):
    # by repr: a nan equals a nan, while -0.0 and 0.0, or 1 and 1.0, differ
    return repr(sorted(vars(a).items())) == repr(sorted(vars(b).items()))


_FLAGS = sorted({f.flag for _, flags in _COMMANDS.values() for f in flags})
_WORDS = sorted(
    {*LAWS, *GROUPS, "1", "+2", "8", "512", "0.5", "1e-10", "7_0", " 3", "1.", "0x10",
     "", "nan", "inf", "-1", "-0.5", "-inf", "junk", "x.csv", "-", "--", "-h", "--help"}
)
_TOKEN = st.one_of(
    st.sampled_from(_FLAGS),  # another command's flag, or a repeated one
    st.sampled_from(_WORDS),  # an extra positional
    st.builds("{}={}".format, st.sampled_from(_FLAGS), st.sampled_from(_WORDS)),
    st.sampled_from(_FLAGS).map(lambda f: f[:-1]),  # an abbreviation, or "-", "--"
    st.sampled_from(["-h", "--help", "-n", "--bogus"]),
)


def flag_text(f):
    """Text for flag f: mostly a value it takes, sometimes a word of _WORDS
    (negative and non-finite numbers among them)."""
    if f.choices is not None:
        takes = st.sampled_from(f.choices)
    elif f.type is int:
        takes = st.integers(0, 2**21).map(str)
    elif f.type is float:
        takes = st.floats(min_value=0.0).map(repr)
    else:
        takes = st.text(max_size=6)
    return st.integers(0, 9).flatmap(lambda k: takes if k else st.sampled_from(_WORDS))


@st.composite
def command_lines(draw):
    """A command (or a near miss), mostly each of its required flags and
    some of the others in any order with their text, then up to two stray
    tokens, or flag and word pairs put between two flags (a flag given
    twice, or another command's flag)."""
    near_miss = st.sampled_from(["dens", "", "-h", "--help"])
    command = draw(st.integers(0, 4).flatmap(lambda k: st.sampled_from(list(_COMMANDS)) if k else near_miss))
    flags = _COMMANDS.get(command, _COMMANDS["density"])[1]
    keep = st.integers(0, 9).map(bool)  # a required flag left out one time in ten
    chosen = draw(st.permutations([f for f in flags if draw(keep if f.required else st.booleans())]))
    argv = [command, *(word for f in chosen for word in (f.flag, draw(flag_text(f))))]
    pair = st.tuples(st.sampled_from([f.flag for f in flags]) | st.sampled_from(_FLAGS), st.sampled_from(_WORDS))
    stray = st.lists(st.tuples(st.integers(0, 2 * len(flags)), _TOKEN.map(lambda t: (t,)) | pair), max_size=2)
    for at, tokens in draw(st.just(()) | stray):
        at = min(at if len(tokens) == 1 else at | 1, len(argv))
        argv[at:at] = tokens
    return argv


@settings(max_examples=500, deadline=None)
@given(command_lines())
@example(["density", "--law", "bm", "--t", "nan"])
@example(["density", "--law", "bm", "--grid", "64"])
@example(["validate", "--only", "special", "--tol", "-1"])
@example(["cdf", "--law", "even", "--t", "junk", "--t", "2"])
@example(["positivity", "--help", "--n", "2"])
@example(["density", "--law", "bm", "--t", "1", "--out", ""])
def test_table_reads_argv_as_argparse_does(argv):
    # where the table answers, argparse answers the same; where argparse
    # exits, the table answers nothing
    fast, reference = _parse_table(argv), argparse_reading(argv)
    if fast is not None:
        assert reference is not None and same_namespace(fast, reference), argv


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_take_the_table(argv):
    fast = _parse_table(argv)
    assert fast is not None and same_namespace(fast, argparse_reading(argv))


def test_table_argv_builds_no_parser(capsys):
    _build_parser.cache_clear()
    try:
        assert run(capsys, "density", "--law", "kernel-odd", "--n", "2", "--t", "0.7", "--grid", "8")[0] == 0
        assert _build_parser.cache_info().currsize == 0
    finally:
        _build_parser.cache_clear()


_SELECTOR_FLAGS = {
    "timefrac": ("--nu", "0.5"),
    "spacefrac": ("--beta", "0.5"),
    "wrappedstable": ("--beta", "0.5"),
    "spacetimefrac": ("--nu", "0.5", "--beta", "0.5"),
}


@pytest.mark.parametrize(
    "argv",
    [
        *(("density", "--law", law, "--t", "inf", "--grid", "8", *_SELECTOR_FLAGS.get(law, ()))
          for law in ("even", "odd", "bm", "timefrac", "spacefrac", "spacetimefrac",
                      "wrappedstable", "kernel-even", "kernel-odd")),
        ("density", "--law", "odd", "--n", "2", "--t", "inf", "--grid", "8"),
        ("cdf", "--law", "kernel-odd", "--t", "inf", "--grid", "8"),
        ("density", "--law", "odd", "--n", "1", "--t", "1e4", "--grid", "8"),
        ("density", "--law", "timefrac", "--n", "1", "--nu", "1e-9", "--t", "1",
         "--grid", "8", "--tol", "1e-2"),
        ("density", "--law", "odd", "--n", "2", "--t", "1", "--grid", "64"),
        ("density", "--law", "bm", "--t", "1", "--grid", str(2**20 + 1)),
        ("density", "--law", "bm", "--t", "1", "--grid", "1000000000000"),
    ],
    ids=" ".join,
)
def test_no_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        rows = parse_csv(out)
        assert rows.shape[0] == int(argv[argv.index("--grid") + 1])
        assert np.all(np.isfinite(rows))
    # warnings arrive as one counted line per category, after any refusal
    categories = []
    for line in err.splitlines():
        if line.startswith("warning: "):
            m = re.fullmatch(r"warning: (\w+) x(\d+): .*", line)
            assert m, line
            categories.append(m.group(1))
        else:
            assert line.startswith(("invalid-parameters: ", "non-convergence: ")), line
    assert len(categories) == len(set(categories))


@pytest.mark.parametrize(
    "argv, code",
    [
        (("density", "--law", "kernel-even", "--t", "5e-324", "--grid", "8"), 2),
        (("density", "--law", "kernel-odd", "--n", "1", "--t", "5e-324", "--grid", "8"), 2),
        (("density", "--law", "odd", "--n", "1", "--t", "5e-324", "--grid", "8"), 3),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_subnormal_time_prints_no_raw_warning(capsys, argv, code):
    # the kernels' peak passes the largest double and is refused; the odd
    # law's far shells carry more phase rounding than its bound and are
    # refused; neither prints a numpy warning line
    got, out, err = run(capsys, *argv)
    assert got == code and out == "" and len(err.splitlines()) == 1
    if code == 2:
        assert err.startswith("invalid-parameters: the Poisson kernel passes the largest double")
    else:
        assert err.startswith("non-convergence: at t = 4.94066e-324 the far shells' Airy phase")


# every selector with the flags it needs; spacetimefrac's density series
# diverges at beta = 1/2, and the odd law has no CDF
_CURVES = [
    *(("density", law) for law in LAWS if law != "spacetimefrac"),
    *(("cdf", law) for law in LAWS if law != "odd"),
]


# grids that cover both CSV paths: the template's largest, the formatter's
# smallest, its 2048-row jobs and a block of _WORK rows and one more; 8
# comes back after the others. The odd law spends ~1 s per 2048 points on
# its shells, so it leaves out 2048 and _WORK + 1: the formatting does not
# depend on the law
_PINNED_GRIDS = (8, 64, _VECTOR_GRID - 1, _VECTOR_GRID, 512, 2048, _WORK + 1, 8)
_PINNED_ODD_GRIDS = (8, 64, _VECTOR_GRID - 1, _VECTOR_GRID, 512, 8)


@pytest.mark.parametrize("command,law", _CURVES, ids=[f"{c}-{law}" for c, law in _CURVES])
def test_csv_bytes_pinned_to_the_library(capsys, tmp_path, command, law):
    # grids interleave, and 8 returns after others, so a reused template
    # must give the bytes a fresh f-string would
    extra = ("--tol", "1e-6", *_SELECTOR_FLAGS.get(law, ()))
    opts = dict(zip(extra[::2], extra[1::2]))
    grids = _PINNED_GRIDS if law != "odd" else _PINNED_ODD_GRIDS
    for grid in grids:
        th = np.linspace(0.0, TWO_PI, grid)
        vals = np.asarray(library_curve(command, law, opts, th))
        expect = "theta,value\n" + "".join(
            f"{x:.17g},{v:.17g}\n" for x, v in zip(th.tolist(), vals.tolist())
        )
        argv = (command, "--law", law, "--t", "1", "--grid", str(grid), *extra)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.encode() == expect.encode()
        path = tmp_path / f"{grid}.csv"
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, f"wrote {grid} rows to {path}\n")
        assert path.read_bytes() == out.encode()


def _format_blocks(v):
    """_format17 over any number of doubles, by blocks of _WORK."""
    v = np.asarray(v, dtype=np.float64)
    return [text for lo in range(0, v.size, _WORK) for text in _format17(v[lo : lo + _WORK]).tolist()]


def _mismatches(v):
    return [(x, got) for x, got in zip(v.tolist(), _format_blocks(v)) if got != f"{x:.17g}".encode()]


_RANDOM_BITS = np.random.default_rng(40).integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)


def test_csv_template_formats_like_an_f_string():
    th, template = _csv_grid(8)
    vals = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.1, 1.0 / 3.0)
    assert template % vals == "theta,value\n" + "".join(
        f"{x:.17g},{v:.17g}\n" for x, v in zip(th.tolist(), vals)
    )
    # the vectorized formatter writes the same bytes: 10^6 random bit
    # patterns (nan, inf and ~500 subnormals among them), with subnormal
    # patterns, +-0, every power of ten and the window edges 1e+-280, each
    # with both neighbours
    subnormal = np.random.default_rng(41).integers(1, 2**52, 10**4, dtype=np.uint64).view(np.float64)
    edges = np.array([float(f"1e{k}") for k in range(-323, 309)] + [_LOW, _HIGH, 5e-324])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    corpus = np.concatenate([_RANDOM_BITS, subnormal, -subnormal, [0.0, -0.0], edges, -edges])
    assert _mismatches(corpus) == []


def test_exact_ties_round_to_even_in_the_product():
    # m/4 and m/8 near 2^53 have 18 or 19 significant digits; .25 and .75
    # are exact halves at 17 digits. 10^1 is a double, so the product is
    # exact and rounds them to the even D itself, as Python does
    m = np.arange(2**53 - 4096, 2**53, dtype=np.float64)
    ties = np.concatenate([m / 4, m / 8, [2251799813685247.75]])
    assert not _digits(ties)[2].any()
    assert _mismatches(np.concatenate([ties, -ties])) == []


@pytest.mark.parametrize("toward", [-math.inf, math.inf], ids=["below", "above"])
def test_digits_survive_a_log10_one_ulp_off(monkeypatch, toward):
    # the first exponent comes from np.log10, which need not be correctly
    # rounded: with every log10 one ulp off, the powers of ten of the window
    # and their neighbours still read as Python writes them. Below, the
    # doubles within 5e-18 under 10^k (1e-14, 1e+98, ..) get exponent k - 1
    # and y in [10^17 - 1/2, 10^17), which rounds up to 1 and 0s at k
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), toward))
    powers = np.array([float(f"1e{k}") for k in range(-280, 281)])
    corpus = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert _mismatches(np.concatenate([corpus, -corpus])) == []


def test_near_halves_go_to_python():
    # y = v / 10^13 for v = t 2^44 in [1e29, 1.6e29): frac(y) = (t 2^31 mod
    # 5^13) / 5^13, so t can put it 4.1e-10 above or below 1/2; 10^-13 is
    # no double, and the product leaves these values to Python
    values = []
    for c in ((5**13 + 1) // 2, (5**13 - 1) // 2):
        t = c * pow(2**31, -1, 5**13) % 5**13
        t += -(-(10**29 // 2**44 + 1 - t) // 5**13) * 5**13  # the first such t with t 2^44 >= 1e29
        assert t < 2**53 and abs((t * 2**31 % 5**13) / 5**13 - 0.5) < 1e-9
        values.append(float(t * 2**44))
    assert _digits(np.array(values))[2].all()
    assert _mismatches(np.array(values)) == []


def test_python_takes_few_values_inside_the_window():
    a = np.abs(_RANDOM_BITS)
    a = a[(a >= _LOW) & (a <= _HIGH)]
    undecided = sum(int(_digits(a[lo : lo + _WORK])[2].sum()) for lo in range(0, a.size, _WORK))
    assert a.size > 9 * 10**5 and undecided <= 1e-6 * a.size


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_format17_is_python_format(values):
    assert _format17(np.array(values, dtype=np.float64)).tolist() == [f"{x:.17g}".encode() for x in values]


# tracemalloc's peak over the fill of the 2^20-row template before the
# vectorized formatter, template % tuple(vals.tolist()) for these vals:
# 71.2 MB, the text alone being 39 MB
_TEMPLATE_FILL_PEAK = 71.2 * 2**20


def test_a_full_grid_is_written_in_bounded_memory():
    # the text goes out by blocks of _WORK rows: writing all of it into a
    # StringIO, which then holds the whole text, peaks below the old fill
    th, template = _csv_grid.__wrapped__(2**20)
    vals = np.random.default_rng(0).random(2**20)
    out = io.StringIO()
    tracemalloc.start()
    try:
        out.writelines(_csv_text(template, vals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _TEMPLATE_FILL_PEAK
    text = out.getvalue()
    assert text.count("\n") == 2**20 + 1
    for i in (0, _WORK - 1, _WORK, 2**20 - 1):
        row = f"\n{th[i]:.17g},{vals[i]:.17g}\n"
        assert row in text


def test_import_builds_no_table():
    # the formatter's tables are built on a grid's first use, not at import
    src = str(Path(circlaw.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import circlaw.cli as c; "
        "print(c._ten_powers.cache_info().currsize, c._digit_tables.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_cached_grid_is_shared_and_read_only():
    th, template = _csv_grid(16)
    assert _csv_grid(16)[0] is th and _csv_grid(16)[1] is template
    assert np.array_equal(th, np.linspace(0.0, TWO_PI, 16))
    assert not th.flags.writeable
    with pytest.raises(ValueError):
        th[0] = 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 2**20))
def test_every_cli_grid_takes_the_fft_path(n):
    # harmonic._grid_period rebuilds np.linspace(0, 2 pi, n), the grid of
    # cli._csv_grid, as numpy 2.4 builds it; a numpy whose linspace builds
    # other doubles fails here rather than silently moving CLI grids to the
    # Horner path
    assert _grid_period(np.linspace(0.0, TWO_PI, n)) == n - 1


@pytest.mark.parametrize("n", [8, 9, 511, 512, 513, 2048, 2**20])
def test_cli_grids_have_their_period(n):
    # __wrapped__: the 2^20 grid's CSV text (~39 MB) is not kept in the cache
    assert _grid_period(_csv_grid.__wrapped__(n)[0]) == n - 1


class TestPositivity:
    def test_order_two(self, capsys):
        code, out, _ = run(capsys, "positivity", "--n", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["t_bar"] == 0.0
        assert obj["min_theta_at_t_bar"] == math.pi

    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "positivity", "--n", "2")
        assert code == 0
        obj = json.loads(out)
        assert obj["t_bar"] == 0.6931166485360705
        assert obj["min_theta_at_t_bar"] == math.pi

    def test_order_six_is_ln2(self, capsys):
        code, out, _ = run(capsys, "positivity", "--n", "3")
        assert code == 0
        assert '"t_bar": 0.6931471805599453' in out
        assert json.loads(out)["min_theta_at_t_bar"] == math.pi

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "positivity", "--n", "0")
        assert code == 2 and err.startswith("invalid-parameters:")


class TestValidate:
    def test_subset_reports_and_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--only", "special")
        assert code == 0
        obj = json.loads(out)
        assert obj["all_passed"] is True
        assert [c["id"] for c in obj["criteria"]] == ["4a", "4b"]
        for c in obj["criteria"]:
            assert set(c) == {"id", "group", "description", "measured", "threshold", "passed"}

    def test_kernels_subset(self, capsys):
        code, out, _ = run(capsys, "validate", "--only", "kernels")
        assert code == 0
        obj = json.loads(out)
        assert [c["id"] for c in obj["criteria"]] == ["1", "8a", "8b", "8c", "11", "12"]
        assert obj["all_passed"] is True

    def test_loose_tol_still_passes(self, capsys):
        code, out, _ = run(capsys, "validate", "--only", "montecarlo", "--tol", "1e-1")
        assert code == 0
        obj = json.loads(out)
        assert all(c["threshold"] == 0.1 for c in obj["criteria"])
        assert obj["all_passed"] is True

    def test_montecarlo_group_skips_brownian_simulation(self, capsys, monkeypatch):
        # 9a's simulation belongs to the brownian group; calling it would fail
        monkeypatch.setattr("circlaw.validation._double_barrier_survival", None)
        code, out, _ = run(capsys, "validate", "--only", "montecarlo")
        assert code == 0
        assert [c["id"] for c in json.loads(out)["criteria"]] == ["7a", "7b", "7c", "7d"]

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "validate", "--only", "special")
        _, out2, _ = run(capsys, "validate", "--only", "special")
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("where", ["missing-dir/report.json", "."], ids=["missing directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        path = tmp_path / where
        code, out, err = run(capsys, "validate", "--only", "special", "--out", str(path))
        assert code == 2 and out == ""
        assert err.startswith("invalid-parameters: cannot write --out") and err.count("\n") == 1

    def test_out_file_and_summary(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--only", "special", "--out", str(path))
        assert code == 0
        assert "2/2 passed" in out
        assert json.loads(path.read_text())["all_passed"] is True
