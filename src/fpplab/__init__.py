"""First-passage percolation large-deviations laboratory."""

from fpplab.model import (
    EdgeDistribution,
    LatticeBox,
    WeightField,
    sample_weights,
    subcritical_atom_check,
    truncate,
)

__version__ = "0.1.0"
