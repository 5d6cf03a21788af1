"""Circular laws of pseudoprocesses, circular Brownian motion, and
fractional circular diffusions, with cross-validated numerics.

Every quantity is computable by at least two independent routes
(closed form / spectral series / wrapped quadrature / Monte Carlo);
the validation suite checks their agreement. Each module's __all__ is
the package surface; the command line (circlaw.cli) is not imported here.
"""

from .errors import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403
from .harmonic import *  # noqa: F401,F403
from .line import *  # noqa: F401,F403
from .brownian import *  # noqa: F401,F403
from .fractional import *  # noqa: F401,F403
from .pseudo import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .validation import *  # noqa: F401,F403

__version__ = "0.1.0"
