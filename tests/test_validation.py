"""The suite behind `circlaw validate` on a broken route: with one route
of a row patched to put a NaN in its output, the row measures NaN and
fails, the JSON report stays strict (the NaN is written as null), and
the command exits 1 naming the row; and the suite refuses a tol or group
it cannot run before any row runs."""

import json
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from circlaw import validation
from circlaw.cli import main
from circlaw.errors import DomainError


def nan_at_one_entry(values):
    """values with its first entry NaN: a number becomes NaN, and of a
    tuple of arrays the last is changed."""
    if isinstance(values, tuple):
        return (*values[:-1], nan_at_one_entry(values[-1]))
    out = np.array(values, dtype=float)
    out.flat[0] = np.nan
    return out if out.ndim else float(out)


def nan_density(law):
    # a carrier refuses NaN coefficients, so the law's density route is broken
    return SimpleNamespace(density=lambda theta: nan_at_one_entry(law.density(theta)))


def poisoned(route, after=1, breaks=nan_at_one_entry):
    """route, with the output of every call past the first `after` broken:
    by default the row's first case stays finite and every later one has a NaN."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        out = route(*args, **kwargs)
        return breaks(out) if len(calls) > after else out

    return patched


# (row, group, route name in circlaw.validation, how it is broken): rows 3
# and 5b call their route once, and row 4a calls mittag_leffler five times
# before 4b does. 5b reduced with np.max before the shared gap measure and
# is the control
ROUTES = [
    ("1", "kernels", "even_kernel_density", poisoned),
    ("2", "pseudo", "even_circle_density_wrapped", poisoned),
    ("3", "pseudo", "fourier_coeffs", partial(poisoned, after=0)),
    ("4a", "special", "mittag_leffler", poisoned),
    ("4b", "special", "mittag_leffler", partial(poisoned, after=6)),
    ("5b", "fractional", "bm_density_wrapped", partial(poisoned, after=0)),
    ("5c", "fractional", "space_fractional_half_closed", poisoned),
    ("6", "fractional", "wrapped_stable_law", partial(poisoned, breaks=nan_density)),
    ("8a", "kernels", "even_quadrant_prob", poisoned),
    ("8b", "kernels", "odd_half_circle_prob", poisoned),
    ("8c", "kernels", "odd_kernel_cdf", poisoned),
    ("9a", "brownian", "bm_maxdist_cdf", poisoned),
    ("9c", "brownian", "bm_quadrant_prob", poisoned),
    ("10c", "pseudo", "min_value", poisoned),
    ("11", "kernels", "kernel_limit_gap", poisoned),
    ("12", "kernels", "wrapped_skew_cauchy_density", poisoned),
    ("14", "pseudo", "odd_circle_atoms", poisoned),
]


@pytest.mark.parametrize("cid, group, name, breaks", ROUTES, ids=[r[0] for r in ROUTES])
def test_a_nan_route_fails_its_row(monkeypatch, cid, group, name, breaks):
    monkeypatch.setattr(validation, name, breaks(getattr(validation, name)))
    row = next(r for r in validation.run_suite(only=group) if r.id == cid)
    assert np.isnan(row.measured)
    assert row.passed is False


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_nan_row_is_written_as_null_and_fails_the_command(monkeypatch, capsys):
    monkeypatch.setattr(
        validation, "wrapped_skew_cauchy_density", poisoned(validation.wrapped_skew_cauchy_density)
    )
    code = main(["validate", "--only", "kernels"])
    out, err = capsys.readouterr()
    assert code == 1
    assert err.strip() == "failing criteria: 12"
    report = json.loads(out, parse_constant=refuse_constant)
    rows = {c["id"]: c for c in report["criteria"]}
    assert rows["12"]["measured"] is None and rows["12"]["passed"] is False
    assert report["all_passed"] is False
    assert all(isinstance(c["measured"], float) for cid, c in rows.items() if cid != "12")


@pytest.mark.parametrize(
    "kwargs",
    [{"tol": np.nan}, {"tol": np.inf}, {"tol": -np.inf}, {"tol": -1.0}, {"tol": 0.0}, {"only": "nope"}],
    ids=["tol=nan", "tol=inf", "tol=-inf", "tol=-1", "tol=0", "only=nope"],
)
def test_run_suite_refuses_what_it_cannot_run(monkeypatch, kwargs):
    # a NaN tol would keep the pinned KS thresholds, an infinite one pass every KS row
    monkeypatch.setattr(validation, "_Run", None)  # refused before any row runs
    with pytest.raises(DomainError):
        validation.run_suite(**kwargs)
