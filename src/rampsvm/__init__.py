"""Ramp-loss SVM toolkit.

Exact set-valued proximal operator of the ramp loss, P-stationarity and KKT
certification of candidate classifiers, a prox-based alternating trainer
whose outputs are always independently certified, support-vector margin
geometry checks, and a JSON-reporting CLI.
"""

__version__ = "0.1.0"

# Each submodule's __all__ is the one list of its public names; a stale
# entry there fails this import.
from .certify import *  # noqa: F401,F403
from .datasets import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .prox import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .support import *  # noqa: F401,F403
from . import certify, datasets, losses, problem, prox, solver, support

__all__ = ["__version__"] + [
    name
    for module in (certify, datasets, losses, problem, prox, solver, support)
    for name in module.__all__
]
