"""Eddy-current forward modelling and sigma*D analysis for thin conductive plates."""

__version__ = "0.1.0"

from .model import (
    MU_0,
    CoilPair,
    InductanceSpectrum,
    Plate,
    SweepSpec,
    default_sensor,
    derive_alpha0,
    frequency_grid,
)
from .te_layered import generalized_reflection
from .thin_plate import equivalent_plate, normalized_response_thin
from .dodd_deeds import (
    QuadratureConvergenceError,
    QuadratureSpec,
    TruncationWarning,
    delta_L,
    delta_L_air,
)
from .analysis import EquivalenceReport, SigmaDFit, compare, fit_sigma_d, sweep

__all__ = [
    "MU_0",
    "CoilPair",
    "Plate",
    "SweepSpec",
    "InductanceSpectrum",
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "TruncationWarning",
    "EquivalenceReport",
    "SigmaDFit",
    "default_sensor",
    "derive_alpha0",
    "frequency_grid",
    "generalized_reflection",
    "normalized_response_thin",
    "equivalent_plate",
    "delta_L",
    "delta_L_air",
    "sweep",
    "compare",
    "fit_sigma_d",
]
