"""Monte Carlo and exact analysis of fluid (liquid) democracy delegation mechanisms.

The package samples delegation instances (competence vectors plus delegation
graphs) under parametric mechanism families, computes exact and Monte Carlo
probabilities that weighted fluid voting and direct majority voting each pick
the better of two alternatives, and provides the reference stochastic
processes (urn growth, graph branching, multi-type Poisson branching) used to
bound concentration of delegated power empirically.
"""

__version__ = "0.1.0"

import os
import sys

# Replicates already run on fluiddem's own workers (--threads); a BLAS
# pool nested under them only oversubscribes the cores, and OpenBLAS workers
# spin for a while after every threaded call. OpenBLAS reads the variable
# once, when numpy loads, so it is set only if numpy is not loaded yet; a
# value the user sets wins. Child processes inherit it.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import (
    Uniform,
    TruncatedBeta,
    PiecewiseLinearDensity,
    sample,
    interval_mass,
    nondelegator_mean,
)
from .mechanisms import (
    Upward,
    ConfidenceBased,
    GeneralContinuous,
    ConstantQ,
    LinearQ,
    PiecewiseLinearQ,
    Indicator,
    Constant1,
    AffineInY,
    ExpInY,
    TabulatedPhi,
    normalize_phi,
)
from .delegation_graph import DelegationGraph, WeightProfile, sample_graph, compute_weights
from .tally import (
    GainReport,
    weighted_poisson_binomial_tail,
    direct_tail,
    exact_gain,
    monte_carlo_gain,
)
from .streams import substream
