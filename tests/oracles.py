"""Test oracles that no CLI command or validate row needs.

line_density_gamma is the paper's generalized-gamma representation of
every line solution, evaluated by scipy.integrate.quad; the package's
routes (Airy at p = 3, the contour quadrature elsewhere) are checked
against it where it is well conditioned. mp_even_line and mp_odd_saddle
are the even-order line solution and the odd-order one at x < 0 to 30
digits by mpmath. complex_fold is the uniform-grid evaluation of a
HarmonicLaw from the whole complex coefficient array, the order the
blocked grid fold keeps; whole_array_sum is the scattered evaluation over
every point at once, on the path harmonic._scattered takes (Horner in z or
the Taylor tables), whose doubles the blocks of points keep. grid_period,
wrapped_bm_mod and ks_two_arrays are the grid test, the wrapped-BM sampler
and the KS statistic built on whole reference arrays and np.mod, whose
decisions and doubles the package's cheaper forms keep.
wrapped_route_digest hashes a seeded matrix of wrapped-route calls, values
and refusals alike, so that a change to their fixed cost is seen to keep
every double and every message. sampler_draws_digest hashes the draws of a
seeded sampler matrix and returns each KS distance with the evaluation
certificate of its CDF, so that a change to the series evaluation is seen
to keep every draw and to move each KS value within that certificate only.
"""

import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
from scipy import integrate

from circlaw import (
    ConvergenceError,
    DomainError,
    RngStream,
    bm_density_wrapped,
    bm_law,
    even_circle_density_wrapped,
    even_kernel_cdf,
    even_kernel_law,
    fractional,
    ks_statistic,
    sample,
    sample_inverse_subordinator,
    sample_stable_subordinator,
    sample_wrapped_bm,
    simulate_planar_hit,
    space_fractional_law,
    wrapped_stable_law,
)
from circlaw.errors import _check_finite, _check_t
from circlaw.harmonic import (
    _TWO_PI_PARTS,
    TWO_PI,
    _grid_period,
    _horner,
    _table_plan,
    _taylor_tables,
    _unit,
)
from circlaw.kernels import wrapped_skew_cauchy_density
from circlaw.line import _rotation
from circlaw.pseudo import _CANCEL_BUDGET
from circlaw.special import DEFAULT_TOL, Tolerance


def line_density_gamma(p: int, x: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x) for any order p >= 2.

    G is generalized gamma with shape p and rate t (density
    p g^{p-1} t e^{-g^p t}); deterministic quadrature, not Monte Carlo.
    x = 0 is a removable singularity and returns the limit a E[G] / pi.
    For odd p and x < 0 the integrand carries the growing factor
    e^{b|x|g} against the stretched-exponential tail; beyond a
    peak-exponent budget of _CANCEL_BUDGET the cancellation is
    unrepresentable in float64 and the call refuses. A quadrature error
    estimate above the requested epsabs raises ConvergenceError.
    """
    if not (p >= 2 and float(p).is_integer()):
        raise DomainError("p must be an integer >= 2")
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(p)
    eps = tol.abs_tol * math.pi * abs(x) / 4.0
    # x = 0, or |x| so small (~1e-313) that eps underflows: u(x) - u(0) = O(x)
    if eps == 0.0:
        return a * (math.gamma(1.0 + 1.0 / p) * t ** (-1.0 / p)) / math.pi
    L = math.log(1.0 / min(eps, 0.5)) + 3.0
    pts = None
    # at even p (b = 0) nothing grows, and the integrand is odd in x
    if x < 0.0 and b > 0.0:
        y_star = (b * abs(x) / (p * t)) ** (1.0 / (p - 1))
        peak_exponent = b * abs(x) * y_star * (1.0 - 1.0 / p)
        if peak_exponent > _CANCEL_BUDGET:
            raise ConvergenceError(
                "cancellation budget exceeded at strongly negative x "
                f"(peak exponent {peak_exponent:.1f} > {_CANCEL_BUDGET:g})"
            )
        g_max = max(2.0 * y_star, (4.0 * L / t) ** (1.0 / p))
        if y_star > 0.0:
            pts = [y_star]
    else:
        g_max = (L / t) ** (1.0 / p) + 1.0

    def f(u):
        return (
            math.exp(-b * x * u - (u**p) * t)
            * math.sin(a * x * u)
            * p
            * u ** (p - 1)
            * t
        )

    with warnings.catch_warnings():
        # the error estimate is enforced below, so quad's warning adds nothing
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, g_max, points=pts, epsabs=eps, epsrel=1e-12, limit=400)
    if err > eps:
        raise ConvergenceError(
            f"u_{p}({x:g}, {t:g}): quadrature error {err:.2e} exceeds {eps:.2e}"
        )
    return val / (math.pi * x)


def mp_even_line(p, X):
    """u_p(X, 1) = (1/2pi) int e^{i X xi - xi^p} dxi by mpmath (30 digits), on the
    line Im xi = Im xi* through the saddle points xi* = (X/p)^{1/(p-1)} e^{i pi/(2(p-1))}."""
    with mp.workdps(30):
        X = mp.mpf(X)
        if X == 0:
            return mp.gamma(1 + mp.mpf(1) / p) / mp.pi
        r = (X / p) ** (mp.mpf(1) / (p - 1))
        h, s0 = r * mp.sin(mp.pi / (2 * (p - 1))), r * mp.cos(mp.pi / (2 * (p - 1)))
        # conjugate-symmetric in s, so the real part doubles the half line
        edge = 2 * s0 + 2
        pts = [edge * k / 40 for k in range(41)] + [mp.inf]
        v = mp.quad(lambda s: mp.exp(1j * X * (s + 1j * h) - (s + 1j * h) ** p), pts)
        return (v / mp.pi).real


def mp_odd_saddle(p, X):
    """u_p(X, 1) = (1/pi) Re int_0^inf e^{i (X xi + xi^p)} dxi at odd p and X < 0
    by mpmath (30 digits): along the real axis to the saddle xi0 = (-X/p)^{1/(p-1)},
    then on the ray xi0 + s e^{3 i pi/(4p)}, where every term of f(xi0 + w) - f(xi0)
    decays (k 3pi/(4p) < pi for k <= p), and off the kernel's own ray pi/(2p)."""
    with mp.workdps(30):
        X = mp.mpf(X)
        xi0 = (-X / p) ** (mp.mpf(1) / (p - 1))
        f = lambda xi: X * xi + xi**p
        # about three radians of phase per piece of the real leg
        pieces = int(-X * xi0 / 3) + 4
        leg = mp.quad(lambda eta: mp.cos(f(eta)), mp.linspace(0, xi0, pieces + 1))
        turn = mp.expj(3 * mp.pi / (4 * p))
        ray = mp.quad(lambda s: mp.expj(f(xi0 + s * turn)) * turn, [0, 1, 2, 4, mp.inf])
        return (leg + ray.real) / mp.pi


def even_kernel_cdf_atan2(theta, t):
    """The even Poisson kernel's CDF (1/pi) atan2((1 + q) sin(th/2), (1 - q) cos(th/2)),
    q = e^{-t}: the odd kernels' atan2 form at (a, b) = (1, 0) with 1 - q
    cancelled from both arguments."""
    q = math.exp(-t)
    return np.arctan2((1.0 + q) * np.sin(theta / 2.0), -math.expm1(-t) * np.cos(theta / 2.0)) / math.pi


def _whole_coeffs(law, cdf):
    """c_0 = a0, c_k = a_k - i b_k from the whole coefficient arrays, or for
    the CDF series sum_k b_k/k, -b_k/k and -a_k/k from a/k and b/k formed whole."""
    a0, a, b = law.a0, law.cos_coeffs, law.sin_coeffs
    if cdf:
        k = np.arange(1.0, law.n_terms + 1.0)
        a, b = a / k, b / k
        a0, a, b = b.sum(), -b, a
    c = np.empty(a.size + 1, dtype=complex)
    c[0] = a0
    c[1:].real = a
    c[1:].imag = -b
    return c


def _cdf_from_series(law, th, out):
    out = law.a0 * th + out
    out[th == 0.0] = 0.0
    return out


def complex_fold(law, grid, cdf=False):
    """law.density(grid) (law.cdf(grid) with cdf) on a uniform grid of M
    nodes from whole arrays: c of _whole_coeffs zero-padded to whole rows
    of M, reshape(-1, M).sum(axis=0), one length-M inverse FFT."""
    th = np.asarray(grid, dtype=float)
    M = _grid_period(th)
    c = _whole_coeffs(law, cdf)
    folded = np.zeros(-(-c.size // M) * M, dtype=complex)
    folded[: c.size] = c
    vals = np.fft.ifft(folded.reshape(-1, M).sum(axis=0), norm="forward").real
    out = np.concatenate([vals, vals[: th.size - M]])
    return _cdf_from_series(law, th, out) if cdf else out


def whole_array_sum(law, theta, cdf=False):
    """law.density(theta) (law.cdf(theta) with cdf) at scattered 1-d angles
    from whole arrays, over every point at once: c of _whole_coeffs, then
    where harmonic._table_plan gives (M, J) the tables of
    harmonic._taylor_tables at m = rint(theta M / 2 pi), summed by Horner in
    delta = theta - m (2 pi / M), the three parts of 2 pi taken in turn;
    elsewhere one z = e^{i theta} (harmonic._unit) and one Horner sum
    (harmonic._horner)."""
    th = np.asarray(theta, dtype=float)
    c = _whole_coeffs(law, cdf)
    plan = _table_plan(c.size - 1, th)
    if plan is None:
        out = _horner(c, _unit(th)).real
    else:
        M, J = plan
        m = np.rint(th * (M / TWO_PI))
        delta = th
        for part in _TWO_PI_PARTS:
            delta = delta - m * (part / M)
        rows = _taylor_tables(c, M, J)[:, np.mod(m, M).astype(int)]
        out = rows[J]
        for j in range(J - 1, -1, -1):
            out = out * delta + rows[j]
    return _cdf_from_series(law, th, out) if cdf else out


def ks_two_arrays(samples, cdf):
    """montecarlo.ks_statistic as the max of the two whole arrays
    i/n - F and F - (i-1)/n over the sorted sample."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    F = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, x.size + 1, dtype=float)
    return float(max(np.max(i / x.size - F), np.max(F - (i - 1.0) / x.size)))


def grid_period(th) -> int:
    """harmonic._grid_period by comparing th with both whole grid forms,
    arange(N) * (2 pi / N) and np.linspace(0, 2 pi, N)."""
    N = th.size
    if th.ndim != 1 or N == 0 or th[0] != 0.0:
        return 0
    if np.array_equal(th, np.arange(N) * (TWO_PI / N)):
        return N
    if N > 1 and np.array_equal(th, np.linspace(0.0, TWO_PI, N)):
        return N - 1
    return 0


def wrapped_bm_mod(t, rng, size=None):
    """montecarlo.sample_wrapped_bm's draws reduced by np.mod(x, TWO_PI)."""
    tv = np.asarray(t, dtype=float)
    gen = rng.generator
    if tv.ndim == 0:
        out = np.mod(math.sqrt(float(tv)) * gen.standard_normal(1 if size is None else size), TWO_PI)
        return float(out[0]) if size is None else out
    return np.mod(np.sqrt(tv) * gen.standard_normal(tv.size), TWO_PI)


# the angles the wrapped routes treat apart: signed zeros, +-pi, the double
# TWO_PI and its neighbours (the last past the float path of line._centred)
_EDGES = [0.0, math.pi, TWO_PI, math.nextafter(TWO_PI, 0.0), math.nextafter(TWO_PI, 7.0)]
WRAPPED_EDGES = _EDGES + [-x for x in _EDGES]


def _wrapped_calls(count: int, seed: int):
    """count seeded calls of the wrapped routes as (route, args) pairs:
    even_circle_density_wrapped at n = 2..4, bm_density_wrapped and
    wrapped_skew_cauchy_density (n = 1..3); t = 10^U(-5, log10 30) (one call
    in ten 10^U(-8, 7), where the even route refuses below its floor and
    past 64 shells), tol = 10^U(-13, -3) and theta a Python float, an
    np.float64, a 0-d array or an array of 1-9 angles (a few 2 x 2), each
    angle an edge of WRAPPED_EDGES or U(-20, 20)."""
    rng = np.random.default_rng(seed)
    routes = [even_circle_density_wrapped] * 3 + [bm_density_wrapped, wrapped_skew_cauchy_density]

    def angle():
        return float(rng.choice(WRAPPED_EDGES)) if rng.random() < 0.3 else float(rng.uniform(-20.0, 20.0))

    for _ in range(count):
        route = routes[rng.integers(len(routes))]
        wide = rng.random() >= 0.9
        t = float(10.0 ** (rng.uniform(-8.0, 7.0) if wide else rng.uniform(-5.0, math.log10(30.0))))
        tol = Tolerance(float(10.0 ** rng.uniform(-13.0, -3.0)))
        kind = rng.integers(6)
        if kind < 3:
            theta = (float, np.float64, np.array)[kind](angle())
        else:
            theta = np.array([angle() for _ in range(4 if kind == 5 else rng.integers(1, 10))])
            theta = theta.reshape(2, 2) if kind == 5 else theta
        if route is even_circle_density_wrapped:
            yield route, (int(rng.integers(2, 5)), theta, t, tol)
        elif route is bm_density_wrapped:
            yield route, (theta, t, tol)
        else:
            yield route, (int(rng.integers(1, 4)), theta, t)


def wrapped_route_digest(count: int, seed: int) -> tuple[str, int]:
    """(sha256, refusals) over _wrapped_calls(count, seed): each answer's
    int64 words with its shape, or each refusal's type and message."""
    digest, refusals = hashlib.sha256(), 0
    for route, args in _wrapped_calls(count, seed):
        try:
            out = route(*args)
        except (ConvergenceError, DomainError) as exc:
            refusals += 1
            digest.update(f"{route.__name__} {type(exc).__name__}: {exc}".encode())
            continue
        words = np.asarray(out, dtype=float).view(np.int64)
        digest.update(f"{route.__name__} {type(out).__name__} {words.shape}".encode())
        digest.update(words.tobytes())
    return digest.hexdigest(), refusals


def cdf_certificate(law, n_points: int) -> float:
    """The evaluation certificate of law.cdf at n_points angles (HarmonicLaw
    docstring): 4 (K + ceil(log2 N)) eps over the 1/k-scaled series, whose
    constant term is sum_k b_k/k, plus the rounding of a0 theta on [0, 2 pi]."""
    eps = float(np.finfo(float).eps)
    k = np.arange(1.0, law.n_terms + 1.0)
    a, b = law.cos_coeffs / k, law.sin_coeffs / k
    log_n = math.ceil(math.log2(n_points)) if n_points > 1 else 0
    series = abs(float(b.sum())) + float(np.abs(a).sum() + np.abs(b).sum())
    return 4 * (law.n_terms + log_n) * eps * series + eps * abs(law.a0) * TWO_PI


def _sampler_matrix(seed: int):
    """(name, draws, law, cdf) of each seeded sampler: harmonic.sample of the
    bm, spacefrac (beta = 0.35 and 0.7), wrappedstable and kernel-even
    carriers; sample_wrapped_bm at a scalar t; Brownian motion at stable and
    inverse-stable subordinator times (sample_wrapped_bm at an array t, the
    subordinator draws first); simulate_planar_hit. law is the HarmonicLaw
    whose CDF the KS distance reads, None for the closed-form planar CDF."""
    carriers = {
        "bm": bm_law(0.7).representation,
        "spacefrac-0.35": space_fractional_law(0.35, 2.0),
        "spacefrac-0.7": space_fractional_law(0.7, 1.0),
        "wrappedstable": wrapped_stable_law(0.6, 1.0),
        "kernel-even": even_kernel_law(1.0),
    }
    for i, (name, law) in enumerate(carriers.items()):
        n = 4000 if name == "spacefrac-0.35" else 10_000
        yield name, sample(law, RngStream(seed, i), n), law, law.cdf
    law = bm_law(1.3).representation
    yield "wrapped_bm", sample_wrapped_bm(1.3, RngStream(seed, 10), 20_000), law, law.cdf
    rng = RngStream(seed, 11)
    H = sample_stable_subordinator(0.6, 1.0, rng, 20_000)
    law = space_fractional_law(0.6, 1.0)
    yield "stable-times", H, None, None
    yield "stable", sample_wrapped_bm(H, rng), law, law.cdf
    rng = RngStream(seed, 12)
    L = sample_inverse_subordinator(0.7, 1.0, rng, 5000)
    law = fractional._space_time_law(0.7, 1.0, 1.0, Tolerance(abs_tol=1e-3), True, L.size)
    yield "inverse-times", L, None, None
    yield "inverse", sample_wrapped_bm(L, rng), law, law.cdf
    draws = simulate_planar_hit(math.exp(-1.0), RngStream(seed, 13), step=1e-3, size=1000)
    yield "planar", draws, None, lambda th: even_kernel_cdf(th, 1.0)


def sampler_draws_digest(seed: int) -> tuple[str, dict[str, tuple[float, float]]]:
    """(sha256, {name: (ks, certificate)}) over _sampler_matrix(seed): the hash
    takes each name and the int64 words of its draws (subordinator times
    included); each sampler of angles gives its KS distance to its CDF and
    that CDF's evaluation certificate at the draws (0 for a closed form)."""
    digest, ks = hashlib.sha256(), {}
    for name, draws, law, cdf in _sampler_matrix(seed):
        digest.update(name.encode())
        digest.update(np.asarray(draws, dtype=float).view(np.int64).tobytes())
        if cdf is not None:
            ks[name] = (ks_statistic(draws, cdf), cdf_certificate(law, draws.size) if law else 0.0)
    return digest.hexdigest(), ks
