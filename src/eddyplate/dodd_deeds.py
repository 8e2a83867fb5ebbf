"""Full integral forward solver for the coaxial coil pair above a plate.

Absolute complex delta-L(omega) as a semi-infinite integral over spatial
frequency with a Bessel-function coil kernel:

    dL = pref * int_0^inf P(a)^2 / a^6 * exp(-a d) (1 - exp(-a h))^2 * phi(a, omega) da

where P(a) = int_{a r1}^{a r2} x J1(x) dx is the radial winding integral,
h the coil height, d = 2 liftoff + coil_height + gap the path between the
coils through the plate's image, and phi(a, omega) the generalized layer
reflection at k1 = a. The free-space mutual inductance L_air is the same
integral along the direct path, d = gap, with phi = 1.

The integral over a runs as a trapezoid rule in v, where u = ln(alpha_max /
a) = psi(v) is a smooth stretch, weights h psi'(v_j) a_j, over the nine
decades below alpha_max. The step in u is h at alpha_max and widens to 5 h
below about 0.02 / outer_radius, where the integrand is smooth, near
a^3 phi(a), so that the grid spends its nodes where P^2 oscillates. The
integrand in u, a times the one above, vanishes as a^2 or faster for a -> 0
and decays exponentially for a -> inf, and psi is analytic in a strip about
the real axis, so the rule converges exponentially in the step h (Trefethen
and Weideman, SIAM Review 56, 2014).
It is nested: T_2h, the same sum on every other node, estimates the error
with no extra reflection call, and a frequency that is not accepted is
refined on the midpoints alone, T_h/2 = T_h / 2 + (h / 2) sum g(mid).

The lift-off enters only through d; neither the grid, its stretch nor P
depends on it. So the nodes, their weights times P^2 / a^6 and the tail
density at alpha_max (the table's top node, for the truncation check) are
cached per coil cross-section (radii, coil height, gap, turns) and
quadrature grid: a frequency sweep, and every later lift-off of the same
coils, reuses the Bessel evaluations, and a call samples only the window of
its own integral. L_air is cached too, on its own grid set by the gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial, prod
from numbers import Integral

import numpy as np

from .model import MU_0, RANGES, CoilPair, Plate, require_range
from .te_layered import generalized_reflection

# 10-point Gauss-Legendre rule on [-1, 1] of radial_integral.
_GAUSS_NODES = np.array([
    -0.973906528517171720077964012084452, -0.865063366688984510732096688423493,
    -0.679409568299024406234327365114874, -0.433395394129247190799265943165784,
    -0.148874338981631210884826001129720, 0.148874338981631210884826001129720,
    0.433395394129247190799265943165784, 0.679409568299024406234327365114874,
    0.865063366688984510732096688423493, 0.973906528517171720077964012084452,
])
_GAUSS_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.295524224714752870173892994651338,
    0.269266719309996355091226921569469, 0.219086362515982043995534934228163,
    0.149451349150580593145776339657697, 0.066671344308688137593568809893332,
])
# sin(pi j / 32), j = 1 ... 15: the 64-point trapezoid rule of _j1 for x <= 25.
_J1_SINES = np.sin(np.pi * np.arange(1, 16) / 32.0)
# Hankel's expansion for x > 25, a_k = prod_{j <= k} (4 - (2j - 1)^2) / (k! 8^k),
# k < 30: P = sum (-1)^k a_2k z^k and Q x = sum (-1)^k a_(2k+1) z^k, z = 1 / x^2.
_HANKEL = [
    (-1) ** (k // 2) * prod(4 - (2 * j - 1) ** 2 for j in range(1, k + 1)) / (factorial(k) * 8**k)
    for k in range(30)
]
_HANKEL_P, _HANKEL_Q = _HANKEL[-2::-2], _HANKEL[::-2]  # highest power first, for np.polyval
# Decades of alpha below alpha_max that the trapezoid rule spans.
_DECADES = 9
# The grid's stretch (beta and kappa of _kernel_table): below about
# _KAPPA / outer_radius the steps in ln(alpha) widen to 1 + _BETA times the
# step at alpha_max: 82 nodes per frequency for the default sensor.
_BETA = 4.0
_KAPPA = 0.02
# Step halvings the adaptive rule may make: from the default 18 steps per
# decade at alpha_max, up to 4,608.
_MAX_REFINEMENTS = 8
# (frequency x node) elements per reflection call in delta_L: amortizes the
# kernel's call overhead (about 30 us); its five complex buffers take 80
# bytes an element, about 1.3 MB at 200 x 82. delta_L splits F rows of N
# nodes into max(1, round(F N / _BLOCK_ELEMENTS)) blocks of equal size, so a
# block holds at most about 1.5 x _BLOCK_ELEMENTS elements and a 400 x 82
# sweep makes 2 blocks of 200 rows. A block's sums are one matrix product
# whose rows have the same bits at every block height, so the output does
# not depend on this constant. Against 16,384, delta_L's thread time on
# dd_wideband's 400 x 82 grid is 7.5 - 10.0% longer at 8,192 and 2.5 - 5.4%
# longer at 32,768 (medians of 60 interleaved rounds, two sessions).
_BLOCK_ELEMENTS = 16384
# Nodes, and Gauss-Legendre sub-panels of radial_integral, that one level of a
# kernel table or one radial_integral call may hold: each takes about 300
# bytes at the peak of a table build, so a build stays below about 330 MB.
# delta_L's sums of one frequency take about 240 bytes a node, about 250 MB
# at 2^20.
_BUDGET = 1 << 20


class QuadratureConvergenceError(RuntimeError):
    """Successive step halvings of the trapezoid rule failed to agree within
    tolerance."""


class TruncationWarning(UserWarning):
    """A bound on the integral beyond alpha_max, or below the lowest node,
    exceeds the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Semi-infinite integral discretization.

    ``alpha_max = None`` derives the truncation point from the coil cross-
    section, 40 / min(coil_height + gap, inner_radius), which does not
    depend on the lift-off. The reflected integrand decays as exp(-alpha
    (2 liftoff + coil_height + gap)), so the neglected tail stays below
    exp(-40) of its envelope at every lift-off. The inner_radius bound keeps
    the truncation check, which bounds |phi| by 1, silent on weakly
    conducting plates at small lift-offs. delta_L_air derives its own
    alpha_max from the gap.

    ``n_panels`` is the number of trapezoid steps per decade of alpha at
    alpha_max. The rule is uniform in v, where ln(alpha_max / alpha) = psi(v)
    widens the step in ln(alpha) smoothly from h = ln(10) / n_panels at
    alpha_max to 5 h below about 0.02 / outer_radius, and it spans the nine
    decades below alpha_max: 82 nodes per frequency for the default sensor
    at the default 18 steps per decade, where a uniform step in ln(alpha)
    takes 163. The adaptive rule accepts an integral when |T_h - T_2h| <=
    rel_tolerance |T_h|, T_2h being the same rule on every other node; the
    others are evaluated again with the step halved, on the new midpoints
    only. The fixed rule returns T_h. delta_L converges at the first check
    at the default 18: on the benchmark's plates, 10 Hz - 1 MHz and
    lift-offs of 0.5 - 3 mm the estimate is <= 2.61e-9 and the value within
    7.8e-15 of the same rule at 512 steps per decade, and over lift-offs of
    0.1 - 10 mm within 5.1e-15 of a uniform step in ln(alpha) at 256 steps
    per decade. Over f = 0.01 Hz - 100 MHz, sigma = 1 - 1e8 S/m, D = 1 um -
    10 cm, mu_r up to 1000 and lift-offs of 0.1 - 10 mm, 1,019 of 1,035
    frequencies stop there too (estimate <= 3.1e-8). The other 16, all on
    10 cm of 1e8 S/m with mu_r = 1 at 5.3 Hz and below, take one halving.
    All are within 1.8e-14 of the 512-step rule. delta_L_air, whose
    integrand decays only as exp(-alpha gap), is solved once per coil
    geometry: over gaps of 0.1 - 10 mm it stops after 4 - 0 halvings, within
    2.2e-12 of the 512-step rule.

    A set alpha_max must lie in model.RANGES, 1e-9 to 1e15 1/m; one derived
    from a coil in its ranges lies from 4e-5 to 4e13 1/m (4e14 for L_air).
    Over those ranges the rule's nodes stay inside the reflection's domain,
    and the kernel prefactor and P^2 / alpha^5 finite. A level of the
    rule with more than 2^20 nodes, or sub-panels of radial_integral, is
    refused before it is built: a ValueError naming alpha_max or n_panels at
    level 0, a QuadratureConvergenceError later.

    The estimate overstates the error. The trapezoid rule converges
    exponentially in 1 / h, so where the step and not round-off sets the
    error of T_h (8 - 12 steps per decade on the benchmark's plates),
    |T_h - T_2h| is 8.8e2x to 1.1e7x that error. rel_tolerance is not tuned
    around this: it stays a bound on the estimate.
    """

    alpha_max: float | None = None   # [1/m]
    n_panels: int = 18               # trapezoid steps per decade of alpha at alpha_max
    rule: str = "adaptive"           # "adaptive" | "fixed"
    rel_tolerance: float = 1e-8

    def __post_init__(self):
        if self.alpha_max is not None:
            require_range("alpha_max", self.alpha_max, "spatial_frequency")
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


def _within_budget(count, unit, source, level=0):
    """Raise when ``count`` ``unit`` exceed _BUDGET: a ValueError naming the
    input ``source`` at level 0, a QuadratureConvergenceError on a halving."""
    if count > _BUDGET:
        message = f"{source} asks for {count:.3g} {unit}, more than the budget of {_BUDGET}"
        if level:
            raise QuadratureConvergenceError(f"no convergence by halving {level}: {message}")
        raise ValueError(message)


def _j1(x):
    """Bessel J1 on a 1-D array x >= 0, in two branches, each summed term by
    term into arrays of x's size.

    x <= 25: the 64-point trapezoid rule on J1(x) = (1 / 2 pi) int_0^2pi
    cos(tau - x sin tau) dtau, whose error is the aliased J63(x) (Trefethen
    and Weideman, SIAM Review 56, 2014); pairing tau with -tau and pi - tau
    leaves (sin x + 2 sum_j sin(tau_j) sin(x sin tau_j)) / 32, tau_j = pi j
    / 32, j = 1 ... 15. Below x = 2 every term is positive, so none cancels,
    and J1(0) is exactly 0. x > 25: Hankel's expansion, 30 terms, sqrt(2 /
    pi x) (P cos chi - Q sin chi) with chi = x - 3 pi / 4, written with sin x
    and cos x so that numpy reduces x itself. Measured against 30-digit
    mpmath, the error is at most 1.9e-15 of the envelope min(x / 2, sqrt(2 /
    pi x)) on the first branch (3.8e-16 below 2) and 3.8e-16 on the second
    (radial_integral lists the points).
    """
    out = np.empty_like(x)
    large = x > 25.0
    small = ~large
    if small.any():
        s = x[small]
        total = np.sin(s)
        for sine in _J1_SINES:
            total += 2.0 * sine * np.sin(sine * s)
        out[small] = total / 32.0
    if large.any():
        s = x[large]
        inverse = 1.0 / s
        z = inverse * inverse
        p, q = np.polyval(_HANKEL_P, z), np.polyval(_HANKEL_Q, z) * inverse
        out[large] = (np.sin(s) * (p + q) + np.cos(s) * (q - p)) / np.sqrt(np.pi * s)
    return out


def radial_integral(coil: CoilPair, alpha):
    """P(alpha) = int_{alpha r1}^{alpha r2} x J1(x) dx.

    Composite 10-point Gauss-Legendre quadrature. Each alpha gets its own
    max(1, ceil(alpha (r2 - r1) / 3)) equal sub-panels, so no panel spans
    more than 3 radians of the J1 oscillation and a node's work and value do
    not depend on the other nodes of the call: every element is bitwise the
    scalar call's. More than _BUDGET sub-panels in all raise ValueError.

    J1 is _j1's, on one Gauss point of every sub-panel at a time: the
    64-point trapezoid rule on Bessel's integral up to x = 25 and Hankel's
    expansion above. Against 30-digit mpmath at 5,406 points from 1e-12 to
    1e5 (4,606 log-spaced, 800 evenly on (0, 40]) its error is at most
    1.9e-15 of the envelope min(x / 2, sqrt(2 / pi x)) up to 25 (3.8e-16
    below 2) and 3.8e-16 above; a cephes-style j1, which subtracts 3 pi / 4
    from x itself, is 3.8e-12 off near x = 8.6e4.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all(np.isfinite(a) & (a >= 0.0)):
        raise ValueError("alpha must be non-negative and finite")
    lo = a * coil.inner_radius
    width = a * coil.outer_radius - lo
    n_sub = np.maximum(1, np.ceil(width / 3.0))
    _within_budget(n_sub.sum(), "radial sub-panels", f"alpha = {a.max():.6g} 1/m")
    n_sub = n_sub.astype(np.intp)
    # Flatten the ragged (node, sub-panel) set: panel k of its node.
    first = np.cumsum(n_sub) - n_sub
    k = np.arange(n_sub.sum()) - np.repeat(first, n_sub)
    step = np.repeat(width / n_sub, n_sub)
    half = 0.5 * step
    centre = np.repeat(lo, n_sub) + (k + 0.5) * step
    panels = np.zeros_like(centre)
    for x, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        t = centre + half * x
        panels += w * t * _j1(t)
    values = np.add.reduceat(half * panels, first)
    return values if np.ndim(alpha) else float(values[0])


def axial_factor(coil: CoilPair, alpha, distance):
    """exp(-a distance) (1 - exp(-a h))^2, both coils' windows along a path.

    Through the plate's image, distance = 2 liftoff + coil_height + gap, it
    is (exp(-a z1) - exp(-a (z1 + h))) (exp(-a z2) - exp(-a (z2 + h))), the
    lower faces being at z1 = liftoff and z2 = liftoff + coil_height + gap.
    """
    a = np.asarray(alpha, dtype=float)
    height = -np.expm1(-a * coil.coil_height)
    return np.exp(-a * distance) * (height * height)


def kernel_prefactor(coil: CoilPair) -> float:
    dr = coil.outer_radius - coil.inner_radius
    h = coil.coil_height
    return np.pi * MU_0 * coil.turns_tx * coil.turns_rx / (dr * dr * h * h)


def _cross_section(coil: CoilPair) -> CoilPair:
    """The coil with its lift-off and drive current, which no cached data
    reads, set to 1: one cache key for every lift-off of the same coils."""
    return replace(coil, liftoff=1.0, drive_current=1.0)


def _expit(x):
    """1 / (1 + exp(-x)) as exp(-softplus(-x)): finite for every x, and to a
    few ulp of its value on both sides of 0, where 0.5 (1 + tanh(x / 2))
    loses digits for x < 0."""
    return np.exp(-np.logaddexp(0.0, -x))


@lru_cache(maxsize=64)
def _kernel_table(coil: CoilPair, alpha_max: float, n_panels: int, level: int = 0):
    """Trapezoid nodes in v, their weights times P^2 / alpha^6.

    Keyed on a ``_cross_section`` coil. ln(alpha_max / alpha) = psi(v) = v +
    beta (softplus(v - v0) - softplus(-v0)), v0 = ln(alpha_max outer_radius
    / kappa): psi(0) = 0, and psi' = 1 + beta expit(v - v0) runs from about
    1 at alpha_max to 1 + beta well below kappa / outer_radius. psi is
    analytic for |Im v| < pi, so the rule in v keeps the trapezoid rule's
    exponential rate. The rule of ``level`` has the step h = ln(10) /
    (n_panels 2^level) in v and nodes alpha_max exp(-psi(j h)) down to
    alpha_max 1e-9 or below. Level 0 returns (nodes, base, tail) for all of
    them: ``base`` has the columns h psi'(v_j) alpha_j (T_h), 2 h psi'(v_j)
    alpha_j on even j (T_2h), both halved at alpha_max, and alpha_j / 2 on
    the lowest node (a bound on the part of the integral below it, where
    alpha times the integrand falls at least as alpha^2 in u = ln(alpha)),
    each times P^2 / alpha^6. ``tail`` bounds P^2 / alpha^5 at alpha_max,
    for the truncation check. A later level returns (nodes, base) for its
    new nodes, the midpoints in v of the level before, with the one column h
    psi'(v_j) alpha_j P^2 / alpha^6. An integral multiplies ``base`` by the
    prefactor and its own window, axial_factor along its path d: 2 liftoff +
    coil_height + gap for delta_L, the gap for L_air.
    """
    v0 = np.log(alpha_max * coil.outer_radius / _KAPPA)
    # psi(v) >= (1 + beta) v - beta (v0 + softplus(-v0)), so psi(N h) reaches
    # the nine decades at this N
    stretched = _DECADES * np.log(10.0) + _BETA * (v0 + np.logaddexp(0.0, -v0))
    n_steps = int(np.ceil(stretched * n_panels / ((1.0 + _BETA) * np.log(10.0)))) << level
    # the counts are checked before their arrays are allocated
    n_nodes = n_steps + 1 if level == 0 else n_steps >> 1
    _within_budget(n_nodes, "nodes", f"n_panels = {n_panels}", level)
    h = np.log(10.0) / (n_panels << level)
    v = h * (np.arange(n_steps + 1) if level == 0 else np.arange(1, n_steps, 2))
    psi = v + _BETA * (np.logaddexp(0.0, v - v0) - np.logaddexp(0.0, -v0))
    nodes = alpha_max * np.exp(-psi)
    # radial_integral's sum of max(1, ceil(alpha (r2 - r1) / 3)), bounded above
    sub_panels = nodes.size + nodes.sum() * (coil.outer_radius - coil.inner_radius) / 3.0
    _within_budget(sub_panels, "radial sub-panels", f"alpha_max = {alpha_max:.6g} 1/m", level)
    p_radial = radial_integral(coil, nodes)
    # alpha P^2 / alpha^6: the integrand's measure in u, shared by every window
    kernel = p_radial**2 / nodes**5
    weight = h * (1.0 + _BETA * _expit(v - v0)) * kernel  # h psi'(v) kernel
    if level:
        return nodes, weight[:, None]
    base = np.zeros((nodes.size, 3))
    base[:, 0] = weight
    base[::2, 1] = 2.0 * weight[::2]
    base[0, :2] *= 0.5  # the end of the trapezoid rule where the integral is cut
    base[-1, 2] = 0.5 * kernel[-1]
    # P oscillates and may have a node at alpha_max: take at least its envelope
    envelope = 2.0 * alpha_max / np.pi * (coil.inner_radius**0.5 + coil.outer_radius**0.5) ** 2
    tail = max(p_radial[0] ** 2, envelope) / alpha_max**5
    return nodes, base, tail


def _integrate(coil, quad, alpha_max, distance, row_sums, omegas=None):
    """Adaptive or fixed trapezoid rule for a batch of kernel integrals.

    pref int P^2 / a^6 axial_factor(a, d) phi da along the path d =
    ``distance`` (2 liftoff + coil_height + gap for delta_L, the gap for
    L_air), one per angular frequency in ``omegas``, or one when it is None.
    ``row_sums(rows, nodes, weight)`` returns, per integral in ``rows``, the
    sums over ``nodes`` of phi times each column of ``weight`` (3 columns at
    the first level, 1 at a halving), a row's bits not depending on the
    other rows of the call: an array call gives each integral the bits of
    its scalar call. An integral is accepted when |T_h -
    T_2h| <= rel_tolerance |T_h|, and T_h returned; only the others are
    evaluated on the midpoints that halve the step, T_h/2 = T_h / 2 + the
    midpoint sum. The fixed rule returns T_h at ``n_panels``. Returns the
    integrals, a bound beyond alpha_max, where the envelope decays as
    exp(-a d) and as a^-5 (P^2 = O(a)), of min(1 / d, alpha_max / 4) times
    its value there, and one per integral below the lowest node. Where that
    bound exceeds rel_tolerance, no convergence says "increase alpha_max".
    """
    prefactor = kernel_prefactor(coil)
    cross = _cross_section(coil)
    rows = np.arange(1 if omegas is None else omegas.size)

    def evaluate(rows, nodes, base):
        weight = prefactor * axial_factor(coil, nodes, distance)[:, None] * base
        return row_sums(rows, nodes, weight)

    nodes, base, tail = _kernel_table(cross, alpha_max, quad.n_panels)
    envelope = prefactor * axial_factor(coil, alpha_max, distance) * tail  # ordered not to overflow
    above = envelope / max(distance * alpha_max, 4.0)
    value, coarse, below = evaluate(rows, nodes, base).T
    if quad.rule == "fixed":
        return value, above, below
    result = np.empty_like(value)
    for level in range(_MAX_REFINEMENTS + 1):
        if level:
            coarse = value
            table = _kernel_table(cross, alpha_max, quad.n_panels, level)
            value = 0.5 * value + evaluate(rows, *table)[:, 0]
        done = np.abs(value - coarse) <= quad.rel_tolerance * np.abs(value)
        result[rows[done]] = value[done]
        rows, value = rows[~done], value[~done]
        if rows.size == 0:
            return result, above, below
    where = "" if omegas is None else f" at f = {omegas[rows[0]] / (2.0 * np.pi):.6g} Hz"
    cut = abs(above) > quad.rel_tolerance * abs(value[0])
    remedy = f"; {_tail_message(abs(above), abs(value[0]), 'increase alpha_max')}" if cut else ""
    raise QuadratureConvergenceError(
        f"no convergence{where} to rel_tolerance={quad.rel_tolerance} after "
        f"{_MAX_REFINEMENTS} step halvings ({quad.n_panels << _MAX_REFINEMENTS} steps per decade "
        f"at alpha_max){remedy}"
    )


def _tail_message(tail, mag, remedy):
    return f"tail estimate {tail:.3g} exceeds rel_tolerance of the integral {mag:.3g}; {remedy}"


def _check_tail(quad, values, above, below):
    """Warn when a neglected part of the integral is non-negligible.

    ``above`` bounds the tail beyond alpha_max and ``below`` (one per
    value) the part below the lowest node.
    """
    mag = np.abs(values)
    limit = quad.rel_tolerance * mag
    for bound, remedy in ((above, "increase alpha_max"), (below, "decrease alpha_max")):
        tail = np.abs(bound)
        flagged = tail > limit
        if flagged.any():
            worst = np.max(np.where(flagged, tail, 0.0)), np.min(np.where(flagged, mag, np.inf))
            warnings.warn(_tail_message(*worst, remedy), TruncationWarning, stacklevel=3)


def delta_L(coil: CoilPair, plate: Plate, omega, quad: QuadratureSpec):
    """Plate-induced change of the transmitter-receiver mutual inductance [H].

    ``omega`` is one angular frequency (gives a complex) or a 1-D array of
    them (gives a complex array, each element bitwise the scalar call's),
    each 2 pi times a frequency in model.RANGES.
    """
    omegas = np.asarray(omega, dtype=float)
    w = np.atleast_1d(omegas)
    f_low, f_high, _ = RANGES["frequency"]
    # an empty w reduces to inf and -inf, which the range test refuses
    w_low, w_high = w.min(initial=np.inf), w.max(initial=-np.inf)
    if omegas.ndim > 1 or not 2.0 * np.pi * f_low <= w_low <= w_high <= 2.0 * np.pi * f_high:
        raise ValueError(f"omega must be a scalar or 1-D array, each 2 pi x {f_low:g} to {f_high:g} Hz")
    alpha_max = quad.resolve_alpha_max(coil)

    def row_sums(rows, nodes, weight):
        alpha0 = nodes[None, :]
        columns = weight.shape[1]
        out = np.empty((rows.size, columns), dtype=complex)
        # phi's (Re, Im) pairs against the weights, interleaved so that a
        # block's Re sums fill the first ``columns`` columns of one real
        # matrix product and its Im sums the others
        parts = np.zeros((2 * nodes.size, 2 * columns))
        parts[0::2, :columns] = weight
        parts[1::2, columns:] = weight
        # blocks of equal size, as near _BLOCK_ELEMENTS as whole rows allow
        n_blocks = max(1, min(rows.size, round(rows.size * nodes.size / _BLOCK_ELEMENTS)))
        for k in range(n_blocks):
            start, stop = rows.size * k // n_blocks, rows.size * (k + 1) // n_blocks
            phi = generalized_reflection(alpha0, w[rows[start:stop], None], plate).view(float)
            if stop - start == 1:  # numpy gives one row to gemv, which rounds otherwise
                phi = phi.repeat(2, axis=0)
            # As (parts^T phi^T)^T, OpenBLAS 0.3.31's gemm gives a row the same
            # bits at every block height (the block-size and scalar-call tests
            # check it). phi @ parts does not with 2 columns, and it maps 64 KB
            # more of the library's code into memory.
            sums = (parts.T @ phi.T).T
            out[start:stop].real = sums[: stop - start, :columns]
            out[start:stop].imag = sums[: stop - start, columns:]
        return out

    # the image path: the lower faces of the transmitter and the receiver
    d = coil.liftoff + (coil.liftoff + coil.coil_height + coil.gap)
    values, above, below = _integrate(coil, quad, alpha_max, d, row_sums, w)
    # a plate that reflects nothing (sigma = 0, mu_r = 1) has delta_L = 0 and no tail
    if plate.conductivity > 0.0 or plate.relative_permeability != 1.0:
        _check_tail(quad, values, above, below)
    return complex(values[0]) if omegas.ndim == 0 else values


@lru_cache(maxsize=32)
def _air_integral(coil: CoilPair, quad: QuadratureSpec):
    """(L_air, bound beyond alpha_max, bound below the lowest node)."""
    r1 = coil.inner_radius
    alpha_max = quad.alpha_max or 40.0 / max(min(coil.gap, r1), 0.1 * r1)

    def row_sums(rows, nodes, weight):  # phi = 1
        return np.ones((1, nodes.size)) @ weight

    values, above, below = _integrate(coil, quad, alpha_max, coil.gap, row_sums)
    return float(values[0]), above, float(below[0])


def delta_L_air(coil: CoilPair, quad: QuadratureSpec) -> float:
    """Free-space mutual inductance of the coil pair [H]; frequency independent.

    Cached without the lift-off and the drive current, which the direct
    integrand does not read, so it is bitwise the same at every lift-off. The
    integrand decays as exp(-alpha gap), and the default alpha_max is 40 /
    min(gap, inner_radius). A gap under a tenth of inner_radius counts as
    touching: alpha_max stops at 400 / inner_radius and the alpha^-5 tail
    sets the error. For the default sensor's windings at gap 0, a
    TruncationWarning reports it on every call. On a thin flat winding (r2
    = 1.001 r1, coil height = gap = 1e-3 r1) P^2 oscillates faster than the
    step in ln(alpha) resolves: the fixed rule's value moves by 3%
    from 18 to 1,152 steps per decade, and the adaptive rule raises
    QuadratureConvergenceError, at 100 and 1,000 times alpha_max too.
    """
    value, above, below = _air_integral(_cross_section(coil), quad)
    _check_tail(quad, value, above, below)
    return value
