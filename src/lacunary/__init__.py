"""Exact witnesses for infinite-dimensional solution spaces of linear
difference equations with sequence coefficients.

The library decides nothing it cannot certify: every positive answer is a
finite object (a kernel basis, a set of disjoint-support solutions, a
partial lacunary solution) that can be re-verified from its serialized
form, and every budget-bounded search that comes up empty says
Inconclusive rather than "no".

The package exports what its layer modules export: each name is listed
once, in its own module's __all__.
"""

from . import engine, linalg, operators, sequences
from .engine import *
from .linalg import *
from .operators import *
from .sequences import *

__version__ = "0.1.0"

__all__ = [*engine.__all__, *linalg.__all__, *operators.__all__, *sequences.__all__]
