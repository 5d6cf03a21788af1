"""Acceptance suite: fourteen numbered criteria, one test (one pass/fail
line under -v) per criterion. The criteria are measured once, by
`circlaw validate` (the table in circlaw.validation); each test reads its
rows of that report and checks that they passed at the thresholds pinned
here and measured the values pinned here. Monte Carlo criteria run on
validate's fixed streams."""

import json
import time

import pytest

from circlaw.cli import main
from circlaw.validation import run_suite

SEED = 314159

# pinned thresholds, by test; taken in test order, the ids are the
# report's rows in report order
PINNED = {
    1: {"1": 1e-12},
    2: {"2": 1e-6},
    3: {"3": 1e-8},
    4: {"4a": 1e-9, "4b": 1e-12},
    5: {"5a": 0.0, "5b": 1e-12, "5c": 1e-10},
    6: {"6": 1e-10},
    7: {"7a": 0.01, "7b": 0.015, "7c": 0.02, "7d": 0.015},
    8: {"8a": 1e-12, "8b": 1e-8, "8c": 1e-10},
    9: {"9a": 3.0, "9b": 1e-6, "9c": 0.0},
    10: {"10a": 1e-6, "10b": 1e-3, "10c": 0.0},
    11: {"11": 0.0},
    12: {"12": 1e-8},
    13: {"13": 1.0},
    14: {"14": 1e-5},
}

# what every row measures at SEED: a change of draw count, stream,
# parameter set or grid in a criterion shows up as a change of its pin
# here. The rows near roundoff move by whole factors when their last bits
# do, so a change that moves one re-pins it, with its old and new value
# in CHANGES.md.
MEASURED = {
    "1": 8.892886427247504e-14,
    "2": 8.931855255411847e-12,
    "3": 5.4145531539614485e-18,
    "4a": 1.1102230246251565e-15,
    "4b": 0.0,
    "5a": 0.0,
    "5b": 1.1102230246251565e-16,
    "5c": 7.929212841872868e-13,
    "6": 1.1102230246251565e-16,
    "7a": 0.004242751677601575,
    "7b": 0.0022061008364030466,
    "7c": 0.003511237568240455,
    "7d": 0.004109487644278542,
    "8a": 1.1102230246251565e-16,
    "8b": 5.551115123125783e-17,
    "8c": 3.469446951953614e-15,
    "9a": 2.156630724279105,
    "9b": 1.1441636527109722e-09,
    "9c": 0.0,
    "10a": 2.220446049250313e-16,
    "10b": 0.0,
    "10c": -0.0015829480032263843,
    "11": -0.005643296291875766,
    "12": 9.754839991327202e-11,
    "13": 0.0,
    "14": 3.347169191397127e-06,
}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """The bytes of two consecutive `validate --seed SEED` runs."""
    out = tmp_path_factory.mktemp("validate")
    runs = []
    for name in ("r1.json", "r2.json"):
        path = out / name
        assert main(["validate", "--seed", str(SEED), "--out", str(path)]) == 0
        runs.append(path.read_bytes())
    return runs


@pytest.fixture(scope="module")
def rows(reports):
    return {c["id"]: c for c in json.loads(reports[0])["criteria"]}


@pytest.fixture(scope="module")
def groups(rows):
    """run_suite(only=G) for each group G of the report: G -> (seconds, rows)."""
    runs = {}
    for group in dict.fromkeys(c["group"] for c in rows.values()):
        t0 = time.perf_counter()
        alone = run_suite(seed=SEED, only=group)
        runs[group] = (time.perf_counter() - t0, alone)
    return runs


def check(rows, test):
    """The rows of one test passed, each at its pinned threshold, and
    measured its pinned value."""
    for cid, threshold in PINNED[test].items():
        assert rows[cid]["threshold"] == threshold, cid
        assert rows[cid]["passed"] is True, cid
        assert rows[cid]["measured"] == pytest.approx(MEASURED[cid], rel=1e-9, abs=0.0), cid


def test_criterion_01_kernel_series_equals_closed_form(rows):
    """Even and odd kernel series match their closed forms below 1e-12
    on 64 angles at t in {0.25, 1, 4} (odd orders n in {1, 2, 5})."""
    check(rows, 1)


def test_criterion_02_dual_route_density_equivalence(rows, groups):
    """Spectral and wrapped-line routes for the even circle law agree
    below 1e-6 for n in {1,2,3}, t in {0.3, 1, 3}, 64 angles; the pseudo
    group, this criterion included, runs in under 10 s."""
    check(rows, 2)
    assert groups["pseudo"][0] < 10.0


def test_criterion_03_fourier_coefficient_oracle(rows):
    """Projecting the order-4 law at t=1 recovers a_k = e^{-k^4}/pi
    within 1e-8 for k <= 5 (sine parts vanish)."""
    check(rows, 3)


def test_criterion_04_mittag_leffler_identities(rows):
    """E_{1/2}(-x) = e^{x^2} erfc(x) to 1e-9 at x in {0.1,0.5,1,2,5};
    E_1(-x) = e^{-x} to 1e-12."""
    check(rows, 4)


def test_criterion_05_fractional_reductions(rows):
    """nu=1 time-fractional law equals the even law exactly at the
    coefficient level; beta=1 equals the circular BM density to 1e-12;
    beta=1/2 series equals the closed kernel form to 1e-10 at t in
    {0.5, 1}."""
    check(rows, 5)
    assert rows["5a"]["measured"] == 0.0


def test_criterion_06_wrapped_stable_equality_in_distribution(rows):
    """Wrapped stable law equals the space-fractional law at time
    2^beta t, to 1e-10, beta in {0.3, 0.5, 0.9}, 64 angles."""
    check(rows, 6)


def test_criterion_07_monte_carlo_vs_analytic(rows, groups):
    """Fixed-seed samplers match the analytic laws: (a) wrapped BM
    KS < 0.01 at 1e5 draws; (b) single subordination KS < 0.015;
    (c) double subordination KS < 0.02 at 1e5 draws; (d) planar exit
    angles from radius 1/e KS < 0.015 at 5e4 paths; the montecarlo
    group runs in under 20 s."""
    check(rows, 7)
    assert groups["montecarlo"][0] < 20.0


def test_criterion_08_probability_formulas(rows):
    """Even quadrant probability equals the CDF difference to 1e-12 at
    t in {0.2, 1, 5}; odd half-circle probability equals kernel
    quadrature to 1e-8 for n in {1,3}, t in {0.5, 1}; the odd quadrant
    probability P(0 < Theta < pi/2) from the exact CDF equals the series
    CDF to 1e-10 for (n, t) in {1,2} x {0.5, 1}."""
    check(rows, 8)


def test_criterion_09_circular_bm_functionals(rows, groups):
    """Max-distance CDF within 3 MC standard errors of a 1e5-path
    double-barrier simulation at (theta,t) in {(1,1), (2,0.5)};
    first-passage density matches -dCDF/dt central differences to 1e-6
    at (1,1); the quadrant bound 1/2 + (2/pi)e^{-t/2} holds on
    t in [0.21, 10]; the brownian group runs in under 10 s."""
    check(rows, 9)
    assert groups["brownian"][0] < 10.0
    assert rows["9c"]["measured"] <= 0.0


def test_criterion_10_positivity_time(rows):
    """Order 2 has onset exactly 0; order 4's detected onset matches the
    frozen regression constant to 1e-6, has its minimum at theta = pi
    (within 1e-3), and the minimum changes sign across the onset."""
    check(rows, 10)
    assert rows["10c"]["measured"] < 0.0


def test_criterion_11_odd_kernel_limit(rows):
    """kernel_limit_gap strictly decreases along n in {1,2,5,10,50} at
    t in {0.5, 1, 2}: the odd kernels converge to the even one."""
    check(rows, 11)
    assert rows["11"]["measured"] < 0.0


def test_criterion_12_wrapped_skewed_cauchy_route(rows):
    """The wrapped skewed Cauchy law (n=1, scale sqrt(3)/2, drift 1/2)
    equals the first odd kernel to 1e-8 at t in {0.5, 1}, 64 angles."""
    check(rows, 12)


def test_criterion_13_validate_determinism(reports, rows):
    """The validate command with a fixed seed produces byte-identical
    JSON across two consecutive runs, and the report is all-pass."""
    check(rows, 13)
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["all_passed"] is True
    assert len(report["criteria"]) == 26


def test_criterion_14_odd_law_atoms(rows):
    """At t = 2 pi a/q, (a, q) in {(1, 3), (1, 5), (2, 7)}, the n = 1 odd
    wrapped route's mass and modes 1..6 (one rfft on 128 nodes) equal
    those of the law's exact atoms within 1e-5."""
    check(rows, 14)


def test_every_report_row_is_checked(rows):
    assert list(PINNED) == list(range(1, 15))
    assert [cid for ids in PINNED.values() for cid in ids] == list(rows)


def test_each_group_alone_gives_the_full_runs_rows(rows, groups):
    for group, (_, alone) in groups.items():
        want = [c for c in rows.values() if c["group"] == group]
        assert json.dumps([vars(r) for r in alone]) == json.dumps(want), group
