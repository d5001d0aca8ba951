"""Stochastic greedy recovery of jointly row-sparse signal matrices.

The package solves min F(X) subject to a row-sparsity budget, where
F is the mean squared misfit of multiple measurement vectors against a
shared sensing matrix.  It provides joint and per-column variants of
stochastic iterative hard thresholding and stochastic gradient matching
pursuit (with mini-batching), the contraction-coefficient formulas that
govern their convergence, and a reproducible benchmark harness.

The public names are each module's __all__.
"""

from .analysis import *
from .bench import *
from .linalg import *
from .matio import *
from .objective import *
from .solvers import *
from .sparsity import *

__version__ = "0.1.0"
