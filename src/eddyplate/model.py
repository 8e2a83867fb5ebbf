"""Domain types and sensor/sample descriptions shared by all solvers.

Everything is SI: metres, hertz, siemens/metre, henries, amperes. Unit
conversion (mm, MS/m, ...) belongs to the scenario parser, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

MU_0 = 4e-7 * np.pi  # vacuum permeability [H/m], exact by definition here


@dataclass(frozen=True)
class CoilPair:
    """Axisymmetric transmitter/receiver coil pair.

    The transmitter is the bottom coil; ``liftoff`` is the distance from its
    lower face to the top surface of the plate. The receiver sits above it,
    separated by ``gap``: its lower face is at liftoff + coil_height + gap.
    """

    inner_radius: float  # [m]
    outer_radius: float  # [m]
    coil_height: float   # [m], each coil
    gap: float           # [m], axial gap between the two coils
    liftoff: float       # [m], bottom coil face to plate top surface
    turns_tx: int
    turns_rx: int
    drive_current: float  # [A]

    def __post_init__(self):
        # Each check is written so that NaN fails it; the upper bound rejects inf.
        if not 0.0 < self.inner_radius < self.outer_radius < np.inf:
            raise ValueError("need 0 < inner_radius < outer_radius < inf")
        if not 0.0 < self.coil_height < np.inf:
            raise ValueError("coil_height must be positive and finite")
        if not 0.0 <= self.gap < np.inf:
            raise ValueError("gap must be non-negative and finite")
        if not 0.0 < self.liftoff < np.inf:
            raise ValueError("liftoff must be positive and finite")
        if not (1 <= self.turns_tx < np.inf and 1 <= self.turns_rx < np.inf):
            raise ValueError("turns_tx and turns_rx must be finite and at least 1")
        if not 0.0 < self.drive_current < np.inf:
            raise ValueError("drive_current must be positive and finite")


@dataclass(frozen=True)
class Plate:
    """A single laterally-infinite conductive layer."""

    conductivity: float            # [S/m]
    thickness: float               # [m]
    relative_permeability: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.conductivity < np.inf:
            raise ValueError("conductivity must be non-negative and finite")
        if not 0.0 < self.thickness < np.inf:
            raise ValueError("thickness must be positive and finite")
        if not 1.0 <= self.relative_permeability < np.inf:
            raise ValueError("relative_permeability must be finite and >= 1")

    @property
    def sigma_thickness_product(self) -> float:
        """sigma * D [S], the quantity conserved by the equivalence law."""
        return self.conductivity * self.thickness


@dataclass(frozen=True)
class SweepSpec:
    """Frequency grid definition."""

    f_min: float       # [Hz]
    f_max: float       # [Hz]
    n_points: int
    spacing: str = "logarithmic"  # "logarithmic" | "linear"

    def __post_init__(self):
        if not 0.0 < self.f_min <= self.f_max < np.inf:
            raise ValueError("need 0 < f_min <= f_max < inf")
        if not (isinstance(self.n_points, Integral) and self.n_points >= 1):
            raise ValueError("n_points must be an integer >= 1")
        if self.n_points == 1 and self.f_min != self.f_max:
            raise ValueError("n_points = 1 requires f_min == f_max")
        if self.spacing not in ("logarithmic", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")


@dataclass
class InductanceSpectrum:
    """Per-frequency complex delta-L values plus provenance metadata.

    ``normalized`` is True for dimensionless delta-L / L_air values
    (single-alpha0 models) and False for absolute henries (full integral
    solver). A spectrum read back from a CSV keeps the file's model_tag.
    """

    frequencies: np.ndarray        # [Hz], one or more, finite, > 0, strictly increasing
    delta_L: np.ndarray            # complex, same length
    normalized: bool
    model_tag: str                 # "thin_plate" | "thin_plate_exact" | "dodd_deeds"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.delta_L = np.asarray(self.delta_L, dtype=complex)
        if self.frequencies.shape != self.delta_L.shape:
            raise ValueError("frequencies and delta_L must have equal length")
        f = self.frequencies
        # NaN fails every comparison, so each frequency is finite and > 0 too
        if not (f.size and f[0] > 0.0 and f[-1] < np.inf and np.all(np.diff(f) > 0)):
            raise ValueError("need at least one frequency, each finite and > 0, strictly increasing")


def default_sensor() -> CoilPair:
    """The reference air-cored T-R sensor used throughout the test cases.

    Inner/outer diameters 12 / 12.63 mm are stored as radii; 8 mm coil
    height, 2 mm gap, 1 mm lift-off, 25/25 turns, 10 mA drive.
    """
    return CoilPair(
        inner_radius=6.0e-3,
        outer_radius=6.315e-3,
        coil_height=8.0e-3,
        gap=2.0e-3,
        liftoff=1.0e-3,
        turns_tx=25,
        turns_rx=25,
        drive_current=10.0e-3,
    )


def derive_alpha0(coil: CoilPair) -> float:
    """Representative spatial frequency: 1 over the smallest coil dimension.

    The smallest dimension is taken as min(inner_radius, coil_height); the
    radial winding thickness is deliberately excluded (it would put the
    single-alpha0 model outside its thin-plate validity regime).
    """
    return 1.0 / min(coil.inner_radius, coil.coil_height)


@lru_cache(maxsize=16)
def frequency_grid(spec: SweepSpec) -> np.ndarray:
    """Strictly increasing, endpoint-inclusive frequency grid [Hz].

    Cached per spec, so every sweep of one spec shares the array: it is
    read-only.
    """
    if spec.spacing == "logarithmic":
        grid = np.geomspace(spec.f_min, spec.f_max, spec.n_points)
    else:
        grid = np.linspace(spec.f_min, spec.f_max, spec.n_points)
    grid.flags.writeable = False
    return grid
