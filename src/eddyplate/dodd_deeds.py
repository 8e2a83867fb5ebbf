"""Full integral forward solver for the coaxial coil pair above a plate.

Absolute complex delta-L(omega) as a semi-infinite integral over spatial
frequency with a Bessel-function coil kernel:

    dL = pref * int_0^inf P(a)^2 / a^6 * axial(a) * phi(a, omega) da

where P(a) = int_{a r1}^{a r2} x J1(x) dx is the radial winding integral,
axial(a) carries the lift-off/height exponentials of both coils, and
phi(a, omega) is the generalized layer reflection evaluated at k1 = a.
The free-space mutual inductance L_air uses the same kernel with phi
replaced by the direct coil-to-coil propagation factor.

The integral over a runs on geometrically graded panels, each with the
21-point Gauss-Kronrod rule (K21). The 10-point Gauss rule (G10) embedded in
it reuses ten of those nodes, so |K21 - G10| estimates the error with no
extra reflection call. A frequency is accepted at the first panel count
where that estimate is within tolerance; only the others are evaluated
again with twice the panels.

The lift-off enters only through axial(a); neither the grid nor P depends
on it. So the nodes, their weights times P^2 / a^6 and the tail density at
alpha_max (the table's last node, for the truncation check) are cached per
coil cross-section (radii, coil height, gap, turns) and quadrature grid: a
frequency sweep, and every later lift-off of the same coils, reuses the
Bessel evaluations, and a call samples only the window of its own integral.
L_air is cached too, on its own grid set by the gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral
from typing import NamedTuple

import numpy as np
from scipy import special

from .model import MU_0, CoilPair, Plate
from .te_layered import generalized_reflection

# 21-point Gauss-Kronrod rule on [-1, 1] with its embedded 10-point Gauss
# rule (QUADPACK qk21; Piessens et al., Springer 1983). The non-negative
# Kronrod nodes, largest first; the odd-indexed ones are the Gauss nodes.
_K21_HALF_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_K21_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067485044, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_G10_HALF_WEIGHTS = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])


def _mirror(half, sign):
    """The 21 values in ascending-node order from the 11 at nodes >= 0."""
    return np.concatenate([sign * half[:-1], half[::-1]])


_KRONROD_NODES = _mirror(_K21_HALF_NODES, -1.0)
# Columns: K21 weights, and G10 weights (zero on the Kronrod-only nodes).
_KRONROD_WEIGHTS = np.stack(
    [_mirror(_K21_HALF_WEIGHTS, 1.0), _mirror(_G10_HALF_WEIGHTS, 1.0)], axis=-1
)
_GAUSS_NODES = _KRONROD_NODES[1::2]
_GAUSS_WEIGHTS = _KRONROD_WEIGHTS[1::2, 1]
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

    ``alpha_max = None`` derives the truncation point from the coil cross-
    section, 40 / min(coil_height + gap, inner_radius), which does not
    depend on the lift-off. The reflected integrand decays as exp(-alpha
    (tx_bottom + rx_bottom)), and tx_bottom + rx_bottom = 2 liftoff +
    coil_height + gap, so the neglected tail stays below exp(-40) of its
    envelope at every lift-off. The inner_radius bound keeps the truncation
    check, which bounds |phi| by 1, silent on weakly conducting plates at
    small lift-offs. delta_L_air derives its own alpha_max from the gap.

    The adaptive rule evaluates K21 and G10 on ``n_panels`` panels (21
    nodes each) and accepts an integral when |K21 - G10| <= rel_tolerance
    |K21|; the others are evaluated again on twice the panels. delta_L
    converges at the default 16 panels, 336 nodes per frequency: on the
    benchmark's plates, 10 Hz - 1 MHz and lift-offs of 0.5 - 3 mm the
    estimate is <= 3.9e-9 and the value within 9.5e-15 of a fixed 512-panel
    rule. Over f = 0.01 Hz - 100 MHz, sigma = 1 - 1e8 S/m, D = 1 um - 10 cm,
    mu_r up to 1000 and lift-offs of 0.1 - 10 mm it stops at 16 panels too,
    within 5.7e-14 of the 512-panel rule. delta_L_air, whose integrand decays
    only as exp(-alpha gap), is solved once per coil geometry: at the 2 mm
    gap it stops at 64 panels, 4e-16 off the 512-panel rule; over gaps of
    0.1 - 10 mm at 16 - 128 panels, within 1.6e-10 of it. The fixed rule
    returns K21 on ``n_panels`` panels.
    """

    alpha_max: float | None = None   # [1/m]
    n_panels: int = 16
    rule: str = "adaptive"           # "adaptive" | "fixed"
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.alpha_max is not None and not 0.0 < self.alpha_max < np.inf:
            raise ValueError("alpha_max must be positive and finite")
        if not (isinstance(self.n_panels, Integral) and self.n_panels >= 8):
            raise ValueError("n_panels must be an integer >= 8")
        if self.rule not in ("adaptive", "fixed"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if not 0.0 < self.rel_tolerance < 1.0:
            raise ValueError("rel_tolerance must be in (0, 1)")

    def resolve_alpha_max(self, coil: CoilPair) -> float:
        if self.alpha_max is not None:
            return self.alpha_max
        return 40.0 / min(coil.coil_height + coil.gap, coil.inner_radius)


class CoilKernel(NamedTuple):
    """Frequency-independent kernel samples at a set of alpha nodes."""

    p_radial: np.ndarray    # P(alpha), radial winding integral
    axial: np.ndarray       # reflected-wave lift-off/height factor
    air: np.ndarray         # direct coil-to-coil propagation factor
    prefactor: float        # [H] producing constant


def radial_integral(coil: CoilPair, alpha):
    """P(alpha) = int_{alpha r1}^{alpha r2} x J1(x) dx.

    Composite 10-point Gauss-Legendre quadrature, the Gauss half of the
    module's Kronrod rule. Each alpha gets its own max(1, ceil(alpha (r2 -
    r1) / 3)) equal sub-panels, so no panel spans more than 3 radians of the
    J1 oscillation and a node's work and value do not depend on the other
    nodes of the call: every element is bitwise the scalar call's.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(a) & (a >= 0.0)):
        raise ValueError("alpha must be non-negative and finite")
    x, w = _GAUSS_NODES, _GAUSS_WEIGHTS
    lo = a * coil.inner_radius
    width = a * coil.outer_radius - lo
    n_sub = np.maximum(1, np.ceil(width / 3.0)).astype(np.intp)
    # Flatten the ragged (node, sub-panel) set: panel k of its node.
    first = np.cumsum(n_sub) - n_sub
    k = np.arange(n_sub.sum()) - np.repeat(first, n_sub)
    step = np.repeat(width / n_sub, n_sub)
    half = 0.5 * step
    t = (np.repeat(lo, n_sub) + (k + 0.5) * step)[:, None] + half[:, None] * x
    panels = half * np.sum(w * t * special.j1(t), axis=-1)
    values = np.add.reduceat(panels, first)
    return values if np.ndim(alpha) else float(values[0])


def _height_window(coil: CoilPair, a):
    """(1 - exp(-alpha h))^2, the window that both coils' height makes."""
    window = -np.expm1(-a * coil.coil_height)
    return window * window


def axial_factor(coil: CoilPair, alpha):
    """Product of the two coils' image-wave exponential windows.

    (exp(-a tx_bottom) - exp(-a tx_top)) (exp(-a rx_bottom) - exp(-a rx_top)),
    evaluated as exp(-a (tx_bottom + rx_bottom)) (1 - exp(-a h))^2.
    """
    a = np.asarray(alpha, dtype=float)
    return np.exp(-a * (coil.tx_bottom + coil.rx_bottom)) * _height_window(coil, a)


def air_factor(coil: CoilPair, alpha):
    """Direct propagation window between the two (non-overlapping) coils."""
    a = np.asarray(alpha, dtype=float)
    return np.exp(-a * coil.gap) * _height_window(coil, a)


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


def _cross_section(coil: CoilPair) -> CoilPair:
    """The coil with its lift-off and drive current, which no cached data
    reads, set to 1: one cache key for every lift-off of the same coils."""
    return replace(coil, liftoff=1.0, drive_current=1.0)


@lru_cache(maxsize=32)
def _kernel_table(coil: CoilPair, alpha_max: float, n_panels: int):
    """Gauss-Kronrod nodes on [0, alpha_max], their weights and P samples.

    Keyed on a ``_cross_section`` coil. Returns (nodes, base, tail): ``base``
    has one column of K21 and one of G10 weights, each times P^2 / alpha^6,
    and ``tail`` is prefactor P^2 / alpha^6 at alpha_max, P sampled in the
    one radial_integral call, for the truncation check. An integral
    multiplies both by its own window (and ``base`` by the prefactor).
    """
    x, w = _KRONROD_NODES, _KRONROD_WEIGHTS
    # Geometrically graded panels: the low-frequency reflection factor has a
    # boundary layer at alpha ~ omega mu sigma D that a uniform grid cannot
    # resolve, while the kernel tail needs reach up to alpha_max.
    edges = np.concatenate(
        [[0.0], np.geomspace(1e-8 * alpha_max, alpha_max, n_panels)]
    )
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None, None] * w).reshape(-1, 2)
    p_radial = radial_integral(coil, np.append(nodes, alpha_max))
    # P^2 / alpha^6 * weight, shared by every integrand below
    base = weights * (p_radial[:-1] ** 2 / nodes**6)[:, None]
    # P oscillates and may have a node at alpha_max: take at least its envelope
    envelope = 2.0 * alpha_max / np.pi * (coil.inner_radius**0.5 + coil.outer_radius**0.5) ** 2
    tail = kernel_prefactor(coil) * max(p_radial[-1] ** 2, envelope) / alpha_max**6
    return nodes, base, tail


def _integrate(cross, quad, alpha_max, evaluate, omegas=None):
    """Adaptive or fixed Gauss-Kronrod evaluation of a batch of kernel integrals.

    One integral per angular frequency in ``omegas``, or one in all when it
    is None, on the kernel tables of the ``_cross_section`` coil ``cross``.
    ``evaluate(rows, nodes, base)`` returns the (K21, G10) weighted integrand
    sums of integrals ``rows`` on one grid level, shape (rows, 2). An
    integral is accepted at a level when |K - G| <= rel_tolerance |K|, and
    its K value is returned; only the others are evaluated again with twice
    the panels. The fixed rule returns K at ``n_panels``. Returns the
    integrals and the tail density of ``_kernel_table``.
    """
    n = quad.n_panels
    rows = np.arange(1 if omegas is None else omegas.size)
    nodes, base, tail = _kernel_table(cross, alpha_max, n)
    kronrod, gauss = evaluate(rows, nodes, base).T
    if quad.rule == "fixed":
        return kronrod, tail
    result = np.empty_like(kronrod)
    for level in range(_MAX_REFINEMENTS + 1):
        if level:
            n *= 2
            kronrod, gauss = evaluate(rows, *_kernel_table(cross, alpha_max, n)[:2]).T
        done = np.abs(kronrod - gauss) <= quad.rel_tolerance * np.abs(kronrod)
        result[rows[done]] = kronrod[done]
        rows = rows[~done]
        if rows.size == 0:
            return result, tail
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
    prefactor = kernel_prefactor(coil)

    def evaluate(rows, nodes, base):
        weight = prefactor * axial_factor(coil, nodes)[:, None] * base
        step = max(1, _BLOCK_ELEMENTS // nodes.size)
        # alpha0 takes the block's shape: its size counts the evaluations made
        grid = np.broadcast_to(nodes, (step, nodes.size))
        out = np.empty((rows.size, 2), dtype=complex)
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            phi = generalized_reflection(grid[: block.size], w[block, None], plate)
            # (Re, Im) x (K21, G10) sums as one real matrix product per
            # frequency, so a row's bits do not depend on its block's size
            sums = phi.view(float).reshape(block.size, -1, 2).transpose(0, 2, 1) @ weight
            out[start : start + step].real = sums[:, 0]
            out[start : start + step].imag = sums[:, 1]
        return out

    alpha_max = quad.resolve_alpha_max(coil)
    values, tail = _integrate(_cross_section(coil), quad, alpha_max, evaluate, w)
    scale = 1.0 / (coil.tx_bottom + coil.rx_bottom)
    _check_tail(quad, tail * axial_factor(coil, alpha_max), scale, values)
    return complex(values[0]) if omegas.ndim == 0 else values


@lru_cache(maxsize=32)
def _air_integral(coil: CoilPair, quad: QuadratureSpec):
    """(alpha_max, L_air, direct tail density) of ``delta_L_air``."""
    r1 = coil.inner_radius
    alpha_max = quad.alpha_max or 40.0 / max(min(coil.gap, r1), 0.1 * r1)
    prefactor = kernel_prefactor(coil)

    def evaluate(rows, nodes, base):
        return prefactor * (air_factor(coil, nodes) @ base)[None, :]

    values, tail = _integrate(coil, quad, alpha_max, evaluate)
    return alpha_max, float(values[0]), tail * air_factor(coil, alpha_max)


def delta_L_air(coil: CoilPair, quad: QuadratureSpec) -> float:
    """Free-space mutual inductance of the coil pair [H]; frequency independent.

    Cached without the lift-off and the drive current, which the direct
    integrand does not read, so it is bitwise the same at every lift-off. The
    integrand decays as exp(-alpha gap), and the default alpha_max is 40 /
    min(gap, inner_radius). A gap under a tenth of inner_radius counts as
    touching: alpha_max stops at 400 / inner_radius, the alpha^-5 tail sets
    the error, and a TruncationWarning reports it on every call.
    """
    alpha_max, value, tail = _air_integral(_cross_section(coil), quad)
    # exp(-alpha gap) decay, and alpha^-5 even at gap = 0 as P^2 = O(alpha)
    _check_tail(quad, tail, 1.0 / max(coil.gap, 4.0 / alpha_max), value)
    return value
