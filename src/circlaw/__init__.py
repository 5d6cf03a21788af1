"""Circular laws of pseudoprocesses, circular Brownian motion, and
fractional circular diffusions, with cross-validated numerics.

Every quantity is computable by at least two independent routes
(closed form / spectral series / wrapped quadrature / Monte Carlo);
the validation suite checks their agreement.
"""

from .errors import (
    CirclawError,
    ConvergenceError,
    DomainError,
    SignedLawError,
    SlowDecayWarning,
)
from .special import (
    DEFAULT_TOL,
    Tolerance,
    mittag_leffler,
    mittag_leffler_many,
)
from .harmonic import (
    HarmonicLaw,
    fourier_coeffs,
    sample,
)
from .line import (
    line_density_even,
    line_density_gamma,
    line_density_odd,
    line_density_third,
    skew_cauchy_density,
)
from .brownian import (
    BmLaw,
    bm_density_wrapped,
    bm_first_passage_density,
    bm_law,
    bm_maxdist_cdf,
    bm_quadrant_prob,
    von_mises_density,
    von_mises_density_series,
    von_mises_matched_kappa,
)
from .fractional import (
    space_fractional_density,
    space_fractional_half_closed,
    space_fractional_law,
    space_time_fractional_cdf,
    space_time_fractional_density,
    time_fractional_law,
    wrapped_stable_density,
    wrapped_stable_law,
)
from .pseudo import (
    even_circle_density,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_atoms,
    odd_circle_density_wrapped,
    positivity_time,
)
from .kernels import (
    even_kernel_cdf,
    even_kernel_density,
    even_kernel_law,
    even_quadrant_prob,
    kernel_limit_gap,
    odd_half_circle_prob,
    odd_kernel_cdf,
    odd_kernel_density,
    odd_kernel_law,
    wrapped_skew_cauchy_density,
)
from .montecarlo import (
    RngStream,
    ks_statistic,
    sample_inverse_subordinator,
    sample_stable_subordinator,
    sample_wrapped_bm,
    simulate_planar_hit,
)
from .validation import DEFAULT_SEED, GROUPS, CriterionResult, report_json, run_suite

__version__ = "0.1.0"
