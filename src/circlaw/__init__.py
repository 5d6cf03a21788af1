"""Circular laws of pseudoprocesses, circular Brownian motion, and
fractional circular diffusions, with cross-validated numerics.

Every quantity is computable by at least two independent routes
(closed form / spectral series / wrapped quadrature / Monte Carlo);
the validation suite checks their agreement. Each module's __all__ is
the package surface. The command line (circlaw.cli) and the self-check
suite behind `circlaw validate` (circlaw.validation) are not imported
here; each stays importable as a submodule.
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

__version__ = "0.1.0"
