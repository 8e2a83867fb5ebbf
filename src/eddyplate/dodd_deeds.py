"""Full integral forward solver for the coaxial coil pair above a plate.

Absolute complex delta-L(omega) as a semi-infinite integral over spatial
frequency with a Bessel-function coil kernel:

    dL = pref * int_0^inf P(a)^2 / a^6 * axial(a) * phi(a, omega) da

where P(a) = int_{a r1}^{a r2} x J1(x) dx is the radial winding integral,
axial(a) carries the lift-off/height exponentials of both coils, and
phi(a, omega) is the generalized layer reflection evaluated at k1 = a.
The free-space mutual inductance L_air uses the same kernel with phi
replaced by the direct coil-to-coil propagation factor.

The kernel (P, axial factors) is frequency independent and cached per
(coil, quadrature grid), so a frequency sweep pays the Bessel evaluations
only once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import special

from .model import MU_0, CoilPair, Plate
from .te_layered import generalized_reflection

_GAUSS_ORDER = 16
_GAUSS = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
# Doublings the adaptive rule may make: from the default 16 panels, up to 4,096.
_MAX_REFINEMENTS = 8
# (frequency x node) elements per reflection call in delta_L: amortizes the
# call overhead while the temporaries stay in cache and peak memory flat.
_BLOCK_ELEMENTS = 4096


class QuadratureConvergenceError(RuntimeError):
    """Successive grid refinements failed to agree within tolerance."""


class TruncationWarning(UserWarning):
    """The estimated tail beyond alpha_max exceeds the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Semi-infinite integral discretization.

    ``alpha_max = None`` derives the truncation point from the coil geometry
    (40 / min(liftoff, inner_radius)), which puts the neglected tail far
    below double precision for the axial decay rates involved.

    The adaptive rule starts at 16 panels because delta_L already converges
    there: over f = 0.01 Hz - 100 MHz, sigma = 1 - 1e8 S/m, D = 1 um - 10 cm,
    mu_r up to 1000 and lift-offs of 0.1 - 10 mm it stops at the first check
    and the 32-panel value it returns agrees with a fixed 512-panel rule to
    <= 5e-14 relative. Starting at 64 panels costs 4x the reflection
    evaluations. delta_L_air, whose integrand decays only as exp(-alpha gap),
    needs the 64-panel level at some lift-offs and is within 1e-11 of the
    512-panel rule where it stops at 32.
    """

    alpha_max: float | None = None   # [1/m]
    n_panels: int = 16
    rule: str = "adaptive"           # "adaptive" | "fixed"
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.alpha_max is not None and not 0.0 < self.alpha_max < np.inf:
            raise ValueError("alpha_max must be positive and finite")
        if not 8 <= self.n_panels < np.inf:
            raise ValueError("n_panels must be finite and >= 8")
        if self.rule not in ("adaptive", "fixed"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError("rel_tolerance must be in (0, 1)")

    def resolve_alpha_max(self, coil: CoilPair) -> float:
        if self.alpha_max is not None:
            return self.alpha_max
        return 40.0 / min(coil.liftoff, coil.inner_radius)


class CoilKernel(NamedTuple):
    """Frequency-independent kernel samples at a set of alpha nodes."""

    p_radial: np.ndarray    # P(alpha), radial winding integral
    axial: np.ndarray       # reflected-wave lift-off/height factor
    air: np.ndarray         # direct coil-to-coil propagation factor
    prefactor: float        # [H] producing constant


def radial_integral(coil: CoilPair, alpha):
    """P(alpha) = int_{alpha r1}^{alpha r2} x J1(x) dx.

    Composite Gauss-Legendre quadrature with the module's one 16-point rule.
    Each alpha gets its own max(1, ceil(alpha (r2 - r1) / 8)) equal
    sub-panels, so no panel spans more than 8 radians of the J1 oscillation
    and a node's work and value do not depend on the other nodes of the call:
    every element is bitwise the scalar call's.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(a) & (a >= 0.0)):
        raise ValueError("alpha must be non-negative and finite")
    x, w = _GAUSS
    lo = a * coil.inner_radius
    width = a * coil.outer_radius - lo
    n_sub = np.maximum(1, np.ceil(width / 8.0)).astype(np.intp)
    # Flatten the ragged (node, sub-panel) set: panel k of its node.
    first = np.cumsum(n_sub) - n_sub
    k = np.arange(n_sub.sum()) - np.repeat(first, n_sub)
    step = np.repeat(width / n_sub, n_sub)
    half = 0.5 * step
    t = (np.repeat(lo, n_sub) + (k + 0.5) * step)[:, None] + half[:, None] * x
    panels = half * np.sum(w * t * special.j1(t), axis=-1)
    values = np.add.reduceat(panels, first)
    return values if np.ndim(alpha) else float(values[0])


def axial_factor(coil: CoilPair, alpha):
    """Product of the two coils' image-wave exponential windows."""
    a = np.asarray(alpha, dtype=float)
    tx = np.exp(-a * coil.tx_bottom) - np.exp(-a * coil.tx_top)
    rx = np.exp(-a * coil.rx_bottom) - np.exp(-a * coil.rx_top)
    return tx * rx


def air_factor(coil: CoilPair, alpha):
    """Direct propagation window between the two (non-overlapping) coils."""
    a = np.asarray(alpha, dtype=float)
    return (
        np.exp(-a * coil.gap)
        * (1.0 - np.exp(-a * coil.coil_height))
        * (1.0 - np.exp(-a * coil.coil_height))
    )


def kernel_prefactor(coil: CoilPair) -> float:
    dr = coil.outer_radius - coil.inner_radius
    h = coil.coil_height
    return np.pi * MU_0 * coil.turns_tx * coil.turns_rx / (dr * dr * h * h)


def coil_kernel(coil: CoilPair, alpha) -> CoilKernel:
    """Sample the full frequency-independent kernel at the given alphas."""
    return CoilKernel(
        p_radial=radial_integral(coil, alpha),
        axial=axial_factor(coil, alpha),
        air=air_factor(coil, alpha),
        prefactor=kernel_prefactor(coil),
    )


@lru_cache(maxsize=32)
def _kernel_table(coil: CoilPair, alpha_max: float, n_panels: int):
    """Gauss-Legendre nodes/weights on [0, alpha_max] plus kernel samples."""
    x, w = _GAUSS
    # Geometrically graded panels: the low-frequency reflection factor has a
    # boundary layer at alpha ~ omega mu sigma D that a uniform grid cannot
    # resolve, while the kernel tail needs reach up to alpha_max.
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-8 * alpha_max, alpha_max, n_panels)]
    )
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    kern = coil_kernel(coil, nodes)
    # P^2 / alpha^6 * weight, shared by every integrand below
    base = weights * kern.p_radial**2 / nodes**6
    return nodes, base, kern


@lru_cache(maxsize=32)
def _tail_density(coil: CoilPair, alpha_max: float):
    """Integrand density at alpha_max, (reflected, direct); |phi| <= 1 bounds the first."""
    kern = coil_kernel(coil, np.array([alpha_max]))
    # P oscillates and may have a node at alpha_max: take at least its envelope
    envelope = 2.0 * alpha_max / np.pi * (coil.inner_radius**0.5 + coil.outer_radius**0.5) ** 2
    weight = kern.prefactor * max(kern.p_radial[0] ** 2, envelope) / alpha_max**6
    return weight * kern.axial[0], weight * kern.air[0]


def _integrate(coil, quad, evaluate, omegas=None):
    """Adaptive (panel-doubling) or fixed evaluation of a batch of kernel integrals.

    One integral per angular frequency in ``omegas``, or one in all when it
    is None. ``evaluate(rows, nodes, base, kern)`` returns the weighted
    integrand sums of integrals ``rows`` on one grid level. Each integral
    compares level n against 2n and returns the refined value, so only the
    unconverged ones are evaluated on the next level.
    """
    alpha_max = quad.resolve_alpha_max(coil)
    n = quad.n_panels
    rows = np.arange(1 if omegas is None else omegas.size)
    value = evaluate(rows, *_kernel_table(coil, alpha_max, n))
    if quad.rule == "fixed":
        return value
    result = np.empty_like(value)
    for _ in range(_MAX_REFINEMENTS):
        n *= 2
        refined = evaluate(rows, *_kernel_table(coil, alpha_max, n))
        done = np.abs(refined - value) <= quad.rel_tolerance * np.abs(refined)
        result[rows[done]] = refined[done]
        rows, value = rows[~done], refined[~done]
        if rows.size == 0:
            return result
    where = "" if omegas is None else f" at f = {omegas[rows[0]] / (2.0 * np.pi):.6g} Hz"
    raise QuadratureConvergenceError(
        f"no convergence{where} to rel_tolerance={quad.rel_tolerance} "
        f"after {_MAX_REFINEMENTS} panel doublings (last n_panels={n})"
    )


def _check_tail(quad, tail_density, scale, values):
    """Warn when the neglected tail beyond alpha_max is non-negligible."""
    tail = abs(tail_density) * scale
    mag = np.abs(values)
    flagged = (tail > quad.rel_tolerance * mag) & (mag > 0.0)
    if np.any(flagged):
        warnings.warn(
            f"tail estimate {tail:.3g} exceeds rel_tolerance of the "
            f"integral {np.min(mag[flagged]):.3g}; increase alpha_max",
            TruncationWarning,
            stacklevel=3,
        )


def delta_L(coil: CoilPair, plate: Plate, omega, quad: QuadratureSpec):
    """Plate-induced change of the transmitter-receiver mutual inductance [H].

    ``omega`` is one angular frequency (gives a complex) or a 1-D array of
    them (gives a complex array, each element bitwise the scalar call's).
    """
    omegas = np.asarray(omega, dtype=float)
    if omegas.ndim > 1 or not np.all(np.isfinite(omegas) & (omegas > 0.0)):
        raise ValueError("omega must be a positive finite scalar or 1-D array")
    w = np.atleast_1d(omegas)

    def evaluate(rows, nodes, base, kern):
        weight = base * kern.axial
        step = max(1, _BLOCK_ELEMENTS // nodes.size)
        # alpha0 takes the block's shape: its size counts the evaluations made
        grid = np.broadcast_to(nodes, (step, nodes.size))
        out = np.empty(rows.size, dtype=complex)
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            phi = generalized_reflection(grid[: block.size], w[block, None], plate)
            out[start : start + step] = kern.prefactor * np.sum(weight * phi, axis=-1)
        return out

    values = _integrate(coil, quad, evaluate, w)
    tail_density, _ = _tail_density(coil, quad.resolve_alpha_max(coil))
    _check_tail(quad, tail_density, 1.0 / (coil.tx_bottom + coil.rx_bottom), values)
    return complex(values[0]) if omegas.ndim == 0 else values


def delta_L_air(coil: CoilPair, quad: QuadratureSpec) -> float:
    """Free-space mutual inductance of the coil pair [H]; frequency independent."""

    def evaluate(rows, nodes, base, kern):
        return np.array([kern.prefactor * np.sum(base * kern.air)])

    value = float(np.real(_integrate(coil, quad, evaluate)[0]))
    _, tail_density = _tail_density(coil, alpha_max := quad.resolve_alpha_max(coil))
    # exp(-alpha gap) decay, and alpha^-5 even at gap = 0 as P^2 = O(alpha)
    _check_tail(quad, tail_density, 1.0 / max(coil.gap, 4.0 / alpha_max), value)
    return value
