"""Variance-reduced stochastic optimization with snapshot averaging.

Corrected-gradient (svrg) and recursive-estimator (sarah) inner loops,
uniform / tail-weighted / last-iterate snapshot averaging with lazy inner
truncation, secant-based adaptive steps with safeguards, closed-form
per-loop rate calculators, and an equal-IFO-budget benchmark harness with
CSV and SVG emission. The package API is the union of the modules' __all__.
"""

from .averaging import *
from .dataset import *
from .harness import *
from .problems import *
from .rates import *
from .solvers import *
from .trace import *

__version__ = "0.1.0"

__all__ = (averaging.__all__ + dataset.__all__ + harness.__all__
           + problems.__all__ + rates.__all__ + solvers.__all__
           + trace.__all__ + ["__version__"])
