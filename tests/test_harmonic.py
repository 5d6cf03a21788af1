"""HarmonicLaw carrier tests: evaluation and its roundoff certificate,
CDF, projection, sampling, and the truncation rule shared by every
series law."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import circlaw
from circlaw import (
    ConvergenceError,
    DomainError,
    SignedLawError,
    Tolerance,
    bm_law,
    even_circle_law,
    even_kernel_law,
    odd_kernel_law,
    space_fractional_law,
    space_time_fractional_cdf,
    time_fractional_law,
    wrapped_stable_law,
)
from circlaw import fractional
from circlaw.harmonic import (
    TWO_PI,
    HarmonicLaw,
    _POWER_TABLE,
    _grid_period,
    _trig_sum,
    certified_cutoff,
    cosine_law,
    fourier_coeffs,
    sample,
)
from circlaw.special import MAX_TERMS

EPS = np.finfo(float).eps


def make_law(a, b, a0=1.0 / TWO_PI, tail=0.0):
    return HarmonicLaw(a0=a0, cos_coeffs=np.asarray(a, float),
                       sin_coeffs=np.asarray(b, float), tail_bound=tail)


def certificate(a0, a, b, n_points):
    """Evaluation roundoff bound of the HarmonicLaw docstring."""
    log_n = math.ceil(math.log2(n_points)) if n_points > 1 else 0
    return 4 * (np.size(a) + log_n) * EPS * (abs(a0) + np.abs(a).sum() + np.abs(b).sum())


def direct_sum(a0, a, b, thetas):
    """a0 + sum_k (a_k cos k th + b_k sin k th), term by term in long double."""
    th = np.asarray(thetas, dtype=np.longdouble)
    k = np.arange(1, np.size(a) + 1, dtype=np.longdouble)
    a, b = np.asarray(a, np.longdouble), np.asarray(b, np.longdouble)
    out = np.empty(th.shape, dtype=np.longdouble)
    for idx in np.ndindex(th.shape):
        ang = k * th[idx]
        out[idx] = a0 + np.dot(np.cos(ang), a) + np.dot(np.sin(ang), b)
    return out


def random_coeffs(seed, K, power):
    """Signed coefficients of magnitude ~ k^power, modes 1..K."""
    rng = np.random.default_rng(seed)
    k = np.arange(1.0, K + 1.0)
    return (rng.uniform(-1, 1, K) * k**power, rng.uniform(-1, 1, K) * k**power)


def ks_against(sorted_samples, cdf_vals):
    n = sorted_samples.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - cdf_vals), np.max(cdf_vals - (i - 1) / n))


class TestHarmonicLaw:
    def test_uniform(self):
        law = make_law([], [])
        assert law.n_terms == 0
        assert law.density(1.234) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_mixed_series_value(self):
        law = make_law([0.1, 0.0, 0.02], [0.05, 0.0, 0.0])
        th = 0.9
        expect = (1.0 / TWO_PI + 0.1 * math.cos(th) + 0.02 * math.cos(3 * th)
                  + 0.05 * math.sin(th))
        assert law.density(th) == pytest.approx(expect, abs=1e-14)
        vals = law.density(np.array([0.0, th]))
        assert vals[1] == pytest.approx(expect, abs=1e-14)

    def test_periodicity(self):
        law = make_law([0.1, 0.03], [0.02, 0.0])
        for th in (0.0, 1.0, 4.0):
            assert law.density(th) == pytest.approx(law.density(th + TWO_PI), abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_law([0.1, 0.2], [0.1])
        with pytest.raises(DomainError):
            HarmonicLaw(a0=1.0, cos_coeffs=np.zeros((2, 2)),
                        sin_coeffs=np.zeros((2, 2)), tail_bound=0.0)
        with pytest.raises(DomainError):
            make_law([0.1], [0.0], tail=-1e-3)


class TestCdf:
    def test_endpoints(self):
        law = make_law([0.1, 0.02], [0.03, 0.01])
        assert law.cdf(0.0) == 0.0
        assert law.cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_of_even_law(self):
        # pure cosine series: cdf(pi) = a0 pi = 1/2, every sin(k pi) = 0
        law = make_law([0.2, -0.05, 0.01], [0.0, 0.0, 0.0])
        assert law.cdf(math.pi) == pytest.approx(0.5, abs=1e-13)

    def test_matches_quadrature(self):
        law = make_law([0.08, 0.01], [0.04, -0.02])
        for th in (0.7, 2.0, 5.5):
            oracle, _ = integrate.quad(law.density, 0.0, th, limit=200)
            assert law.cdf(th) == pytest.approx(oracle, abs=1e-10)

    def test_domain(self):
        law = make_law([0.1], [0.0])
        with pytest.raises(DomainError):
            law.cdf(-0.5)
        with pytest.raises(DomainError):
            law.cdf(TWO_PI + 0.5)


# angle sets: (builder from (n, rng), whether _trig_sum takes the grid path)
ANGLE_SETS = {
    "linspace": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1), True),
    "arange": (lambda n, rng: np.arange(n) * (TWO_PI / n), True),
    "scattered": (lambda n, rng: rng.uniform(-10.0, 10.0, n), False),
    "scalar": (lambda n, rng: float(rng.uniform(-10.0, 10.0)), False),
    "2-d": (lambda n, rng: rng.uniform(0.0, TWO_PI, (3, n)), False),
    "linspace + 1e-12": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1) + 1e-12, False),
    "reversed linspace": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1)[::-1], False),
    # past the baby-step table: plain Horner
    "many scattered": (lambda n, rng: rng.uniform(0.0, TWO_PI, _POWER_TABLE + n), False),
}


class TestTrigSum:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ANGLE_SETS)),
        n=st.integers(1, 130),
        K=st.integers(0, 700),
        power=st.floats(-2.0, 2.0),
        a0=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_double_sum_within_certificate(self, kind, n, K, power, a0, seed):
        build, on_grid = ANGLE_SETS[kind]
        rng = np.random.default_rng(seed)
        th = build(n, rng)
        a, b = random_coeffs(seed, K, power)
        assert (_grid_period(np.atleast_1d(th)) > 0) == on_grid
        got = _trig_sum(a0, a, b, th)
        assert got.shape == np.atleast_1d(th).shape
        checked = (slice(64),) if kind == "many scattered" else ...
        ref = direct_sum(a0, a, b, np.atleast_1d(th)[checked])
        err = np.max(np.abs(got[checked] - ref), initial=0.0)
        assert err <= certificate(a0, a, b, np.size(th))

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, TWO_PI, 65), np.arange(64) * (TWO_PI / 64)]
    )
    def test_folds_long_series_onto_64_nodes(self, grid):
        a, b = random_coeffs(7, 300_000, -1.0)
        assert _grid_period(grid) == 64
        got = _trig_sum(0.3, a, b, grid)
        nodes = np.r_[0:grid.size:8, grid.size - 1]
        err = np.max(np.abs(got[nodes] - direct_sum(0.3, a, b, grid[nodes])))
        assert err <= certificate(0.3, a, b, grid.size)

    def test_no_terms(self):
        empty = np.zeros(0)
        for th in (np.linspace(0.0, TWO_PI, 9), np.array([0.5, 7.0]), 2.0):
            assert np.all(_trig_sum(0.25, empty, empty, th) == 0.25)


class TestCdfCertificate:
    @settings(max_examples=100, deadline=None)
    @given(K=st.integers(0, 2000), power=st.floats(-2.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_endpoints_of_random_mass_one_series(self, K, power, seed):
        self._check_endpoints(make_law(*random_coeffs(seed, K, power)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: even_circle_law(2, 1.0),
            lambda: bm_law(1.5e-4).representation,
            lambda: odd_kernel_law(2, 0.7),
            lambda: space_fractional_law(0.25, 1.0),
            lambda: wrapped_stable_law(0.2, 1.0, Tolerance(abs_tol=1e-6)),
            lambda: time_fractional_law(2, 0.5, 0.5, Tolerance(abs_tol=1e-8)),
        ],
        ids=["even", "bm", "kernel-odd", "spacefrac", "wrappedstable", "timefrac"],
    )
    def test_endpoints_of_library_laws(self, build):
        self._check_endpoints(build())

    @staticmethod
    def _check_endpoints(law):
        k = np.arange(1.0, law.n_terms + 1.0)
        a, b = law.cos_coeffs / k, law.sin_coeffs / k
        bound = certificate(b.sum(), -b, a, 1) + 2 * EPS  # + a0 theta and the final sum
        assert law.cdf(0.0) == 0.0
        assert law.cdf(np.linspace(0.0, TWO_PI, 9))[0] == 0.0
        assert abs(law.cdf(TWO_PI) - 1.0) <= bound


class TestFourierCoeffs:
    def test_exact_recovery(self):
        law = make_law([0.1, 0.0, 0.02], [0.05, -0.01, 0.0])
        a, b = fourier_coeffs(law.density, 3)
        assert np.allclose(a, [0.1, 0.0, 0.02], atol=1e-13)
        assert np.allclose(b, [0.05, -0.01, 0.0], atol=1e-13)

    def test_uniform_density_projects_to_zero(self):
        a, b = fourier_coeffs(lambda th: np.full_like(np.asarray(th, float), 1.0 / TWO_PI), 4)
        assert np.all(np.abs(a) < 1e-10) and np.all(np.abs(b) < 1e-10)

    def test_scalar_callable_fallback(self):
        a, b = fourier_coeffs(lambda th: 1.0 / TWO_PI + 0.1 * math.cos(2 * th), 2)
        assert a[1] == pytest.approx(0.1, abs=1e-13)
        assert a[0] == pytest.approx(0.0, abs=1e-13)

    def test_node_validation(self):
        with pytest.raises(DomainError):
            fourier_coeffs(lambda th: th, 0)
        with pytest.raises(DomainError):
            fourier_coeffs(lambda th: th, 4, n_nodes=8)
        for K, n_nodes in ((2.5, None), (2, 300.5)):
            with pytest.raises(DomainError, match="positive integer"):
                fourier_coeffs(lambda th: th, K, n_nodes=n_nodes)


def unsqueezed_sample(law, gen, size):
    """sample() without its squeeze: every proposal evaluates the series."""
    grid_n = max(4096, 4 * law.n_terms)
    vals = law.density(np.arange(grid_n) * (TWO_PI / grid_n))
    k = np.arange(1, law.n_terms + 1)
    overshoot = (math.pi / grid_n) * float(
        (k * (np.abs(law.cos_coeffs) + np.abs(law.sin_coeffs))).sum()
    )
    envelope = float(vals.max()) + overshoot + law.tail_bound + 1e-12
    out = np.empty(size)
    got = 0
    while got < size:
        batch = max(4096, int(1.3 * (size - got) * TWO_PI * envelope) + 64)
        theta = gen.uniform(0.0, TWO_PI, batch)
        height = gen.uniform(0.0, envelope, batch)
        accept = theta[height <= law.density(theta)]
        take = min(accept.size, size - got)
        out[got : got + take] = accept[:take]
        got += take
    return out


SAMPLED_LAWS = {
    "bm": lambda: bm_law(1.2).representation,
    "spacefrac": lambda: space_fractional_law(0.35, 0.8),
    "wrappedstable": lambda: wrapped_stable_law(0.7, 1.0),
    "kernel-even": lambda: even_kernel_law(1.0),
    # peaks between the screening nodes: the grid values alone would
    # under-bound the density there
    "mode-1000": lambda: make_law(np.r_[np.zeros(999), 0.9 / TWO_PI], np.zeros(1000)),
}


class TestSample:
    @pytest.mark.parametrize("name", sorted(SAMPLED_LAWS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_squeeze_keeps_every_draw(self, name, seed):
        law = SAMPLED_LAWS[name]()
        drawn = sample(law, np.random.default_rng(seed), size=20_000)
        assert np.array_equal(drawn, unsqueezed_sample(law, np.random.default_rng(seed), 20_000))

    def test_squeeze_skips_most_evaluations(self, monkeypatch):
        law = SAMPLED_LAWS["spacefrac"]()
        points, drawn = [], []

        def counting(a0, a, b, thetas):
            points.append(np.size(thetas))
            return _trig_sum(a0, a, b, thetas)

        class Proposals:
            gen = np.random.default_rng(4)

            def uniform(self, low, high, size):
                drawn.append(size)
                return self.gen.uniform(low, high, size)

        monkeypatch.setattr(circlaw.harmonic, "_trig_sum", counting)
        sample(law, Proposals(), size=20_000)
        # the screening grid, then only the proposals the grid cannot decide
        assert points[0] == max(4096, 4 * law.n_terms)
        assert sum(points[1:]) < 0.05 * sum(drawn) / 2

    def test_too_close_to_call_decides_the_whole_batch(self, monkeypatch):
        # inflated rounding certificates leave every proposal between the
        # bounds and too close to call: the batch is evaluated whole
        monkeypatch.setattr(circlaw.harmonic, "_EPS", 1e-4)
        law = SAMPLED_LAWS["bm"]()
        points = []

        def counting(a0, a, b, thetas):
            points.append(np.size(thetas))
            return _trig_sum(a0, a, b, thetas)

        monkeypatch.setattr(circlaw.harmonic, "_trig_sum", counting)
        drawn = sample(law, np.random.default_rng(8), size=5_000)
        # after the screening grid: the undecided subset, then the whole batch
        assert len(points) == 3 and points[2] > points[1] > 0
        assert np.array_equal(drawn, unsqueezed_sample(law, np.random.default_rng(8), 5_000))

    def test_uniform_law_ks(self):
        law = make_law([], [])
        rng = np.random.default_rng(7)
        xs = np.sort(sample(law, rng, size=100_000))
        d = ks_against(xs, xs / TWO_PI)
        assert d < 0.01

    def test_matches_own_cdf(self):
        law = make_law([0.9 / TWO_PI, 0.2 / TWO_PI], [0.3 / TWO_PI, 0.0])
        # min over a fine grid stays positive, so this is a genuine density
        th = np.linspace(0.0, TWO_PI, 4096)
        assert law.density(th).min() > 0.0
        rng = np.random.default_rng(11)
        xs = np.sort(sample(law, rng, size=100_000))
        d = ks_against(xs, law.cdf(xs))
        assert d < 0.01

    def test_signed_law_refused(self):
        law = make_law([1.2 / TWO_PI], [0.0])  # dips negative near pi
        with pytest.raises(SignedLawError):
            sample(law, np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        law = make_law([0.5 / TWO_PI], [0.0])
        a = sample(law, np.random.default_rng(42), size=50)
        b = sample(law, np.random.default_rng(42), size=50)
        assert np.array_equal(a, b)

    def test_scalar_draw_in_range(self):
        law = make_law([], [])
        th = sample(law, np.random.default_rng(3))
        assert 0.0 <= th < TWO_PI

    def test_size_validation(self):
        law = make_law([], [])
        # a non-integral size is refused, not truncated to fewer draws
        for size in (0, -3, 2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                sample(law, np.random.default_rng(0), size=size)
        # an integral float or numpy integer draws exactly what the int does
        a = sample(law, np.random.default_rng(9), size=7)
        for size in (7.0, np.int64(7)):
            assert np.array_equal(sample(law, np.random.default_rng(9), size=size), a)

    def test_wrapper_law_samples_its_carrier(self):
        # BmLaw wraps a HarmonicLaw; sample draws from that carrier
        law = bm_law(0.7)
        a = sample(law, np.random.default_rng(5), size=300)
        b = sample(law.representation, np.random.default_rng(5), size=300)
        assert np.array_equal(a, b)


def _tail(kind, scale, rate):
    """A nonincreasing certified-tail model: geometric, algebraic or stretched."""
    if kind == "geometric":
        r = math.exp(-rate)
        return lambda K: scale * r**K
    if kind == "algebraic":
        return lambda K: scale * K ** (-rate)
    return lambda K: scale * math.exp(-rate * K**0.5)


class TestCertifiedCutoff:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["geometric", "algebraic", "stretched"]),
        scale=st.floats(1e-3, 1e3),
        rate=st.floats(1e-3, 3.0),
        tol_exp=st.floats(-13.0, -1.0),
    )
    def test_smallest_certified_k_or_advice(self, kind, scale, rate, tol_exp):
        tail = _tail(kind, scale, rate)
        tol = Tolerance(abs_tol=10.0**tol_exp)
        advice = f"{kind} advice"
        if tail(MAX_TERMS) > tol.abs_tol:
            with pytest.raises(ConvergenceError, match=re.escape(advice)):
                certified_cutoff(tail, tol, advice)
            return
        K = certified_cutoff(tail, tol, advice)
        assert 1 <= K <= MAX_TERMS
        assert tail(K) <= tol.abs_tol
        assert K == 1 or tail(K - 1) > tol.abs_tol

    def test_series_refusal_names_no_count(self):
        # the prefix is shared with image counts, so only the advice says what K counts
        with pytest.raises(
            ConvergenceError,
            match=r"^the cutoff needs more than 1000000 at tol=1e-10; "
            r"use the wrapped route \(even_circle_density_wrapped\) at t = 1e-12$",
        ):
            even_circle_law(1, 1e-12)

    def test_cosine_law_carrier(self):
        law = cosine_law(lambda k: 0.1 / k**2, lambda K: 0.1 / K, Tolerance(abs_tol=1e-3), "", "m")
        assert law.n_terms == 100 and law.tail_bound == 0.1 / 100
        assert law.a0 == 1.0 / TWO_PI and not law.sin_coeffs.any()
        assert law.cos_coeffs[1] == 0.1 / 4.0 and law.meta == "m"



class TestTruncationPins:
    """n_terms and tail_bound of each series law, frozen from the
    per-law cutoff searches this rule replaced."""

    @pytest.mark.parametrize(
        "build,n_terms,tail_bound",
        [
            (lambda: even_circle_law(2, 1.0), 2, 2.113474893695654e-36),
            (lambda: even_circle_law(1, 0.05, Tolerance(abs_tol=1e-13)), 24, 9.297048580016236e-15),
            (lambda: even_circle_law(3, 0.5, Tolerance(abs_tol=1e-6)), 1, 4.03112909454485e-15),
            (lambda: even_kernel_law(0.7), 32, 5.871130119307868e-11),
            (lambda: odd_kernel_law(2, 0.7), 33, 9.678319161124935e-11),
            (lambda: odd_kernel_law(1, 0.05, Tolerance(abs_tol=1e-12)), 684, 9.861635869624955e-13),
            (lambda: bm_law(1.5e-4).representation, 570, 9.305787761604352e-11),
            (lambda: bm_law(1.0).representation, 6, 7.295104655457098e-12),
            (lambda: bm_law(7.0, Tolerance(abs_tol=1e-4)).representation, 1, 2.6468403202878406e-07),
            (lambda: time_fractional_law(1, 0.6, 1.0, Tolerance(abs_tol=1e-6)), 284415, 9.999991882820338e-07),
            (lambda: time_fractional_law(2, 0.5, 0.5, Tolerance(abs_tol=1e-8)), 237, 9.989500502575442e-09),
            (lambda: space_fractional_law(0.5, 1.0), 32, 6.705061771182684e-11),
            (lambda: space_fractional_law(0.25, 1.0), 973, 9.951362987166099e-11),
            (lambda: wrapped_stable_law(0.6, 1.0), 13, 5.85595507631431e-11),
            (lambda: wrapped_stable_law(0.2, 1.0, Tolerance(abs_tol=1e-6)), 1376, 9.98075472925743e-07),
        ],
    )
    def test_pinned(self, build, n_terms, tail_bound):
        law = build()
        assert (law.n_terms, law.tail_bound) == (n_terms, tail_bound)

    def test_bm_keeps_one_term_at_large_t(self):
        # a zero-term carrier would already certify here; the rule's K >= 1
        # keeps the first harmonic, which only tightens the tail
        law = bm_law(10.0, Tolerance(abs_tol=1e-2)).representation
        assert law.n_terms == 1 and law.tail_bound == 6.560855763180183e-10

    def test_space_time_cdf_cutoff_of_criterion_7c(self, monkeypatch):
        built = []

        def spy(*args):
            built.append(cosine_law(*args))
            return built[-1]

        monkeypatch.setattr(fractional, "cosine_law", spy)
        space_time_fractional_cdf(0.5, 0.5, 1.0, 1.0, Tolerance(abs_tol=1e-4))
        assert built[0].n_terms == 3990


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: circlaw.even_kernel_density(NAN, 1.0),
        lambda: circlaw.even_kernel_density(np.array([0.5, NAN]), 1.0),
        lambda: circlaw.odd_kernel_density(1, NAN, 1.0),
        lambda: circlaw.even_circle_density(2, NAN, 1.0),
        lambda: circlaw.space_fractional_density(0.5, NAN, 1.0),
        lambda: circlaw.wrapped_stable_density(0.5, NAN, 1.0),
        lambda: even_circle_law(1, 1.0).cdf(NAN),
        lambda: circlaw.even_kernel_cdf(NAN, 1.0),
        lambda: circlaw.mittag_leffler(0.5, NAN),
        lambda: circlaw.mittag_leffler_many(0.5, [NAN, -1.0]),
        lambda: circlaw.space_fractional_half_closed(NAN, 1.0),
        lambda: circlaw.von_mises_density(NAN, 2.0),
    ],
    ids=[
        "kernel-even", "kernel-even-array", "kernel-odd", "even-circle", "space-fractional",
        "wrapped-stable", "series-cdf", "kernel-even-cdf", "mittag-leffler",
        "mittag-leffler-many", "space-fractional-half-closed", "von-mises",
    ],
)
def test_refuses_nan_arguments(call):
    """A NaN angle or Mittag-Leffler argument is a DomainError, never a NaN value."""
    with pytest.raises(DomainError):
        call()


def _finite_values(out):
    """The numbers a call hands back: a law's coefficients and tail, or its values."""
    out = getattr(out, "representation", out)
    if isinstance(out, HarmonicLaw):
        return np.concatenate([[out.a0, out.tail_bound], out.cos_coeffs, out.sin_coeffs])
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize(
    "call",
    [
        lambda: circlaw.line_density_even(600, 1.0, 1.0),
        lambda: circlaw.line_density_odd(600, 1.0, 1.0),
        lambda: circlaw.even_circle_density_wrapped(600, 1.0, 1.0),
        lambda: circlaw.even_circle_density_wrapped(100, 1.0, 1.0),
        lambda: even_circle_law(600, 1.0),
        lambda: even_circle_law(512, 1e-310),
        lambda: circlaw.min_value(600, 1.0),
        lambda: time_fractional_law(600, 0.5, 1.0),
        lambda: wrapped_stable_law(1e-3, 1e-3),
        lambda: wrapped_stable_law(0.5, 1e-310),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.5, 1e300),
        lambda: circlaw.skew_cauchy_density(1, np.array([0.0, 1e200]), 1e200),
        lambda: circlaw.skew_cauchy_density(1, -0.5e-300, 1e-300),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.0, 1e-300),
        lambda: circlaw.skew_cauchy_density(1, 0.0, 1e-320),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.0, 1e-320),
        lambda: circlaw.von_mises_density_series(np.array([0.0, 1.0]), 1e4),
        lambda: circlaw.sample_stable_subordinator(0.9999, 1.0, circlaw.RngStream(1), size=1000),
        lambda: circlaw.sample_inverse_subordinator(0.999, 1.0, circlaw.RngStream(1), size=1000),
        lambda: bm_law(5e-324),
        lambda: circlaw.bm_density_wrapped(1.0, 1e300),
    ],
    ids=[
        "line-even-600", "line-odd-600", "even-wrapped-600", "even-wrapped-100",
        "even-law-600", "even-law-512-subnormal-t", "min-value-600", "time-fractional-600",
        "wrapped-stable-tiny-beta", "wrapped-stable-subnormal-t", "wrapped-skew-cauchy-huge-t",
        "skew-cauchy-huge", "skew-cauchy-tiny", "wrapped-skew-cauchy-tiny-t",
        "skew-cauchy-subnormal-t", "wrapped-skew-cauchy-subnormal-t",
        "von-mises-series-large-kappa", "stable-subordinator-near-one",
        "inverse-subordinator-near-one", "bm-law-least-t", "bm-wrapped-huge-t",
    ],
)
def test_extreme_valid_calls_answer_or_refuse(call):
    """At extreme but valid parameters a call raises a CirclawError or returns
    finite values, and no raw warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except circlaw.CirclawError:
            return
    assert np.all(np.isfinite(_finite_values(out)))


def test_even_law_forms_large_powers_in_logs():
    # 2^1024 passes the largest double, but 2^1024 t = 0.018 at t = 1e-310:
    # the k = 2 coefficient is e^{-0.018}/pi, not 0 and not dropped
    t = 1e-310
    law = even_circle_law(512, t)
    assert law.n_terms == 2
    want = math.exp(-math.exp(1024 * math.log(2.0) + math.log(t))) / math.pi
    assert law.cos_coeffs[1] == pytest.approx(want, rel=1e-14)
