"""Domain types and sensor/sample descriptions shared by all solvers.

Everything is SI: metres, hertz, siemens/metre, henries, amperes. Unit
conversion (mm, MS/m, ...) belongs to the scenario parser, never here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from types import MappingProxyType

import numpy as np

MU_0 = 4e-7 * np.pi  # vacuum permeability [H/m], exact by definition here

# The range of each physical input, (lowest, highest, unit), both ends
# included, checked where the input enters: CoilPair, Plate, SweepSpec,
# InductanceSpectrum (freq_hz, alpha0), QuadratureSpec, analysis.sweep and
# fit_sigma_d (alpha0) and dodd_deeds.delta_L (omega, as 2 pi times a frequency).
# Millimetre coils over plates from micrometres to centimetres, at hertz to
# megahertz, lie decades inside. Within it the solvers' arithmetic holds:
# the reflection's domain (te_layered), a finite normal alpha_max^6 and
# kernel prefactor, a finite thin-plate c = j omega mu0 sigma D / (2 alpha0)
# and the fit's normal (omega mu0 / (2 alpha0))^2, by tens of decades.
RANGES = {
    "length": (1e-12, 1e6, "m"),  # radii, coil height, lift-off, plate thickness
    "gap": (0.0, 1e6, "m"),
    "conductivity": (0.0, 1e40, "S/m"),
    "relative_permeability": (1.0, 1e10, ""),
    "frequency": (1e-9, 1e15, "Hz"),
    "turns": (1, 1e12, ""),
    "spatial_frequency": (1e-9, 1e15, "1/m"),  # a set alpha_max, an alpha0
}


def require_range(name, value, quantity):
    """Raise ValueError naming ``name`` and the range unless ``value`` lies in
    RANGES[quantity]; NaN never does."""
    low, high, unit = RANGES[quantity]
    if not low <= value <= high:
        unit = f" {unit}" if unit else ""
        raise ValueError(f"{name} must be from {low:g} to {high:g}{unit}, got {float(value)!r}{unit}")


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
        for name in ("inner_radius", "outer_radius", "coil_height", "liftoff"):
            require_range(name, getattr(self, name), "length")
        require_range("gap", self.gap, "gap")
        require_range("turns_tx", self.turns_tx, "turns")
        require_range("turns_rx", self.turns_rx, "turns")
        if not self.inner_radius < self.outer_radius:
            raise ValueError("need inner_radius < outer_radius")
        if not 0.0 < self.drive_current < np.inf:  # NaN fails it
            raise ValueError("drive_current must be positive and finite")


@dataclass(frozen=True)
class Plate:
    """A single laterally-infinite conductive layer."""

    conductivity: float            # [S/m]
    thickness: float               # [m]
    relative_permeability: float = 1.0

    def __post_init__(self):
        require_range("conductivity", self.conductivity, "conductivity")
        require_range("thickness", self.thickness, "length")
        require_range("relative_permeability", self.relative_permeability, "relative_permeability")

    @property
    def sigma_thickness_product(self) -> float:
        """sigma * D [S], the quantity conserved by the equivalence law."""
        return self.conductivity * self.thickness


@dataclass(frozen=True)
class SweepSpec:
    """Frequency grid definition, whose grid strictly increases."""

    f_min: float       # [Hz]
    f_max: float       # [Hz]
    n_points: int
    spacing: str = "logarithmic"  # "logarithmic" | "linear"

    def __post_init__(self):
        require_range("f_min", self.f_min, "frequency")
        require_range("f_max", self.f_max, "frequency")
        if not (isinstance(self.n_points, Integral) and self.n_points >= 1):
            raise ValueError("n_points must be an integer >= 1")
        if self.n_points == 1 and self.f_min != self.f_max:
            raise ValueError("n_points = 1 requires f_min == f_max")
        if self.spacing not in ("logarithmic", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        grid = frequency_grid(self)  # f_min > f_max, or too many points for the range
        if not (grid[1:] > grid[:-1]).all():
            raise ValueError(
                f"f_min = {self.f_min!r} Hz, f_max = {self.f_max!r} Hz and n_points = "
                f"{self.n_points} give a grid that does not strictly increase"
            )


@dataclass(frozen=True)
class InductanceSpectrum:
    """Per-frequency complex delta-L values plus provenance metadata.

    ``normalized`` is True for dimensionless delta-L / L_air values
    (single-alpha0 models) and False for absolute henries (full integral
    solver). A CSV file's model and normalized lines are these two fields.

    Valid by construction: one or more frequencies, strictly increasing and
    in RANGES, each with a finite delta-L, or a ValueError naming the first
    bad freq_hz. The arrays are read-only; a writeable one is copied first.
    ``metadata`` is a read-only copy, whose alpha0, if any, is a float (text
    is converted) in RANGES, or a ValueError names alpha0.
    """

    frequencies: np.ndarray        # [Hz]
    delta_L: np.ndarray            # complex, same length
    normalized: bool
    model_tag: str                 # "thin_plate" | "thin_plate_exact" | "dodd_deeds"
    metadata: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        for name, dtype in (("frequencies", float), ("delta_L", complex)):
            array = np.asarray(getattr(self, name), dtype=dtype)
            if array.flags.writeable:
                array = array.copy()
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        f, values = self.frequencies, self.delta_L
        if f.shape != values.shape:
            raise ValueError("frequencies and delta_L must have equal length")
        # with both ends in range, so is every row: NaN fails the increase
        if not (f.ndim == 1 and f.size and (f[1:] > f[:-1]).all()):
            raise ValueError("need at least one frequency in a 1-D array, strictly increasing")
        require_range("freq_hz", f[0], "frequency")
        require_range("freq_hz", f[-1], "frequency")
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"non-finite delta_L at freq_hz = {f[finite.argmin()]:.17g}")
        metadata = dict(self.metadata)
        if "alpha0" in metadata:
            try:
                metadata["alpha0"] = float(metadata["alpha0"])
            except (TypeError, ValueError):
                raise ValueError(f"alpha0 must be a number, got {metadata['alpha0']!r}") from None
            require_range("alpha0", metadata["alpha0"], "spatial_frequency")
        object.__setattr__(self, "metadata", MappingProxyType(metadata))


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
