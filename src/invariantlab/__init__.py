"""Constrained invariant learning on synthetic multi-domain tasks.

The package trains small classifiers under an invariance constraint
enforced by primal-dual iteration, generates the synthetic covariate-
and concept-shift tasks used to evaluate them, and verifies the
underlying constrained-optimization theory exactly on finite grids.
"""

from . import (autodiff, cli, constraints, datagen, predictors, solvers,
               transforms, verify)

__all__ = ["autodiff", "cli", "constraints", "datagen", "predictors",
           "solvers", "transforms", "verify"]

__version__ = "0.1.0"
