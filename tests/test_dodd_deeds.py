import dataclasses
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from eddyplate import (
    MU_0,
    CoilPair,
    Plate,
    QuadratureConvergenceError,
    QuadratureSpec,
    SweepSpec,
    TruncationWarning,
    default_sensor,
    delta_L,
    delta_L_air,
    dodd_deeds,
    frequency_grid,
    sweep,
)
from eddyplate.dodd_deeds import (
    axial_factor,
    kernel_prefactor,
    radial_integral,
)
from eddyplate.te_layered import generalized_reflection

from oracles import winding_mutual

COIL = default_sensor()
QUAD = QuadratureSpec()
# The five plates of the benchmark: copper, its brass sigma*D equivalent, an
# aluminium foil, the foil's 55 um equivalent and a magnetic steel plate.
PLATES = (
    Plate(59.8e6, 0.56e-3),
    Plate(16.744e6, 2.0e-3),
    Plate(36.9e6, 20e-6),
    Plate(36.9e6 * 20e-6 / 55e-6, 55e-6),
    Plate(5.0e6, 1.0e-3, 200.0),
)


def trapezoid_p(coil, alpha, n=200001):
    """Oracle: P(alpha) by brute-force trapezoid over [alpha r1, alpha r2]."""
    x = np.linspace(alpha * coil.inner_radius, alpha * coil.outer_radius, n)
    return np.trapezoid(x * special.j1(x), x)


def uniform_trapezoid(coil, alpha_max, distance, phi):
    """Oracle: pref int P^2 / a^6 axial_factor(a, distance) phi(a) da by a
    trapezoid rule with 256 uniform steps per decade of ln(a) over ten
    decades below alpha_max, built from the public kernel pieces alone: none
    of the solver's grid, its stretch or its weights. ``phi(nodes)`` returns
    one row of reflection values per integral.
    """
    h = np.log(10.0) / 256
    nodes = alpha_max * np.exp(-h * np.arange(2561))
    weight = h * nodes * radial_integral(coil, nodes) ** 2 / nodes**6
    weight[0] *= 0.5
    weight *= kernel_prefactor(coil) * axial_factor(coil, nodes, distance)
    return phi(nodes) @ weight


def blas():
    """numpy's BLAS, named in the failure messages of the bitwise tests:
    delta_L's row sums are its gemm kernel's, so their bits rest on it."""
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its configuration
        return "numpy's BLAS: unknown"
    return f"numpy's BLAS: {config.get('name')} {config.get('version')}"


def first_level_nodes(coil, quad=QUAD):
    """Nodes per frequency of the rule's first level, from the closed-form
    bound on its step count: with u = ln(alpha_max / alpha) = psi(v) and
    psi(v) >= (1 + beta) v - beta (v0 + softplus(-v0)), N steps of
    ln(10) / n_panels in v reach the nine decades below alpha_max.
    """
    beta = dodd_deeds._BETA
    v0 = np.log(quad.resolve_alpha_max(coil) * coil.outer_radius / dodd_deeds._KAPPA)
    stretched = 9 * np.log(10.0) + beta * (v0 + np.logaddexp(0.0, -v0))
    return int(np.ceil(stretched * quad.n_panels / ((1.0 + beta) * np.log(10.0)))) + 1


def test_radial_integral_rule_is_gauss_legendre():
    x, w = np.polynomial.legendre.leggauss(10)
    eps = np.finfo(float).eps
    assert np.all(np.abs(dodd_deeds._GAUSS_NODES - x) <= 4 * eps)
    assert np.all(np.abs(dodd_deeds._GAUSS_WEIGHTS - w) <= 4 * eps)


def test_radial_integral_small_alpha_expansion():
    # x J1(x) ~ x^2/2 for small x, so P(a) -> a^3 (r2^3 - r1^3) / 6 * ... :
    # int x*(x/2) dx = x^3/6 evaluated over [a r1, a r2].
    a = 1e-3
    expected = a**3 * (COIL.outer_radius**3 - COIL.inner_radius**3) / 6.0
    assert radial_integral(COIL, a) == pytest.approx(expected, rel=1e-9)


def test_radial_integral_against_trapezoid():
    for alpha in (166.67, 1000.0, 5000.0, 20000.0):
        assert radial_integral(COIL, alpha) == pytest.approx(
            trapezoid_p(COIL, alpha), rel=1e-6
        )


def test_radial_integral_frozen_value():
    # frozen from a 40-digit evaluation for the default sensor
    assert radial_integral(COIL, 166.67) == pytest.approx(
        0.0241659683517418411767335, rel=1e-12
    )


def test_radial_integral_against_struve_closed_form():
    # int_0^X x J1(x) dx = (pi X / 2) [J1(X) H0(X) - J0(X) H1(X)] (H: Struve)
    # at 40 digits. The error is gated against |P| or, near the zeros of P,
    # its large-alpha envelope sqrt(2 alpha / pi) (sqrt(r1) + sqrt(r2)).
    # 4e5 1/m is the default alpha_max at 0.1 mm lift-off.
    mpmath = pytest.importorskip("mpmath")
    wide = dataclasses.replace(COIL, inner_radius=1e-3, outer_radius=5e-3)
    for coil, alpha_max in ((COIL, 4e5), (wide, 4e4)):
        alphas = np.geomspace(1e-6, alpha_max, 200)
        with mpmath.workdps(40):
            r1, r2 = mpmath.mpf(coil.inner_radius), mpmath.mpf(coil.outer_radius)
            exact = np.array(
                [float(mp_winding(mpmath, a * r2) - mp_winding(mpmath, a * r1)) for a in map(mpmath.mpf, alphas)]
            )
        envelope = np.sqrt(2.0 * alphas / np.pi) * (coil.inner_radius**0.5 + coil.outer_radius**0.5)
        error = np.abs(radial_integral(coil, alphas) - exact)
        assert np.all(error <= 1e-12 * np.maximum(np.abs(exact), envelope)), coil


def test_j1_against_mpmath():
    # 2,304 points over the two branches: x <= 25 (trapezoid rule) and x > 25
    # (Hankel), with x = 0, the edge 25 and its neighbours 1 ulp away. The
    # error is gated against the envelope min(x / 2, sqrt(2 / pi x)) of |J1|,
    # since J1 itself has zeros; at x = 0 the envelope is 0, so J1(0) must be
    # exactly 0.
    mpmath = pytest.importorskip("mpmath")
    edges = [np.nextafter(25.0, toward) for toward in (0.0, 25.0, np.inf)]
    x = np.concatenate([[0.0], np.geomspace(1e-12, 1e5, 1500), np.linspace(0.0, 40.0, 801)[1:], edges])
    branches = (x <= 25.0, x > 25.0)
    assert x.size == 2304 and all(np.count_nonzero(b) > 500 for b in branches)
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.besselj(1, mpmath.mpf(v))) for v in x])
    with np.errstate(divide="ignore"):  # sqrt(2 / pi x) is inf at x = 0
        envelope = np.minimum(x / 2.0, np.sqrt(2.0 / (np.pi * x)))
    error = np.abs(dodd_deeds._j1(x) - exact)
    assert np.all(error <= 1e-14 * envelope)


def test_expit_matches_scipy():
    v = np.linspace(-50.0, 50.0, 100_001)
    reference = special.expit(v)
    assert np.all(np.abs(dodd_deeds._expit(v) - reference) <= 4e-15 * reference)


# radial_integral's tracemalloc peak on 1e5 sub-panels before _j1, when it
# called scipy's J1 on the whole (sub-panel x Gauss point) array: 29.6 MB on
# 1e5 one-panel nodes, 26.4 MB on one node of 1e5 sub-panels. The case
# "series" keeps the name of the power series _j1 once used for x < 2, a
# range its trapezoid rule now covers.
@pytest.mark.parametrize(
    "alphas, lo, hi, before",
    [
        (np.linspace(50.0, 300.0, 100_000), 0.0, 2.0, 29.6e6),  # trapezoid rule, x < 2
        (np.linspace(780.0, 830.0, 100_000), 2.0, 25.0, 29.6e6),  # trapezoid rule, x near 5
        (np.array([3e5 / (COIL.outer_radius - COIL.inner_radius)]), 25.0, np.inf, 26.4e6),  # Hankel
    ],
    ids=["series", "trapezoid", "hankel"],
)
def test_radial_integral_memory(alphas, lo, hi, before):
    sub_panels = np.maximum(1, np.ceil(alphas * (COIL.outer_radius - COIL.inner_radius) / 3.0))
    assert sub_panels.sum() == pytest.approx(1e5, rel=1e-4)
    assert lo <= alphas.min() * COIL.inner_radius and alphas.max() * COIL.outer_radius <= hi
    tracemalloc.start()
    try:
        radial_integral(COIL, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * before


def test_zero_integral_is_not_exempt_from_the_tail_check():
    # A zero integral whose tail is not zero warns: its tolerance is 0.
    with pytest.warns(TruncationWarning, match="of the integral 0; increase alpha_max"):
        dodd_deeds._check_tail(QUAD, np.zeros(1), 1e-300, np.zeros(1))
    # At the bottom of alpha_max's range, 1e-9 1/m, L_air and the copper
    # plate's delta_L are far below the tail beyond alpha_max. A plate that
    # reflects nothing gives exactly 0 with no tail, and its nodes, down to
    # about 1e-18 1/m, are inside the reflection's domain.
    quad = QuadratureSpec(alpha_max=1e-9, n_panels=8, rule="fixed")
    with pytest.warns(TruncationWarning, match="increase alpha_max"):
        assert 0.0 < delta_L_air(COIL, quad) < 1e-30 * delta_L_air(COIL, QUAD)
    with pytest.warns(TruncationWarning, match="increase alpha_max"):
        assert abs(delta_L(COIL, PLATES[0], 1e4, quad)) < 1e-30 * abs(delta_L(COIL, PLATES[0], 1e4, QUAD))
    assert delta_L(COIL, Plate(0.0, 1e-3), 1e4, quad) == 0.0


def test_radial_integral_vectorized_matches_scalar():
    # One call mixes nodes of one sub-panel (alpha (r2 - r1) <= 8) with
    # nodes of up to 40, in shuffled order: each node's value is its own.
    alphas = np.array([10.0, 166.67, 3000.0])
    alphas = np.concatenate([alphas, np.random.default_rng(5).permutation(np.geomspace(1e-6, 1e6, 97))])
    vec = radial_integral(COIL, alphas)
    assert vec.shape == alphas.shape
    for i, a in enumerate(alphas):
        assert vec[i] == radial_integral(COIL, float(a))


def test_radial_integral_rejects_bad_alpha():
    for bad in (-1.0, np.nan, np.inf, np.array([1.0, -1e-9]), np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="alpha must be non-negative and finite"):
            radial_integral(COIL, bad)
    assert radial_integral(COIL, 0.0) == 0.0


def test_axial_factor_zero_at_origin_and_decaying():
    image_path = 2.0 * COIL.liftoff + COIL.coil_height + COIL.gap
    assert axial_factor(COIL, 0.0, image_path) == 0.0
    a = np.geomspace(1.0, 1e5, 50)
    vals = axial_factor(COIL, a, image_path)
    assert np.all(vals >= 0.0)
    assert vals[-1] < 1e-30  # decays like exp(-a * image_path)


def test_air_factor_limits():
    # alpha -> 0: factor -> 0 (the two windows vanish); large alpha: gap decay
    assert axial_factor(COIL, 0.0, COIL.gap) == 0.0
    big = 1e4
    assert axial_factor(COIL, big, COIL.gap) == pytest.approx(np.exp(-big * COIL.gap), rel=1e-6)


def test_kernel_prefactor_positive_and_scaling():
    base = kernel_prefactor(COIL)
    assert base > 0.0
    doubled = COIL.__class__(**{**COIL.__dict__, "turns_tx": COIL.turns_tx * 2})
    assert kernel_prefactor(doubled) == pytest.approx(2.0 * base, rel=1e-15)


def test_delta_L_zero_conductivity_is_exactly_zero():
    value = delta_L(COIL, Plate(0.0, 1e-3), 2 * np.pi * 1e4, QUAD)
    assert value == 0.0


def test_delta_L_sign_conventions():
    # Lenz's law: the eddy currents oppose the coupling, Im(dL * j) < 0 ->
    # Im(dL) <= 0 and (at high frequency) Re(dL) < 0.
    plate = Plate(59.8e6, 0.56e-3)
    for f in (1e3, 10e3, 100e3, 500e3):
        v = delta_L(COIL, plate, 2 * np.pi * f, QUAD)
        assert v.imag <= 0.0
    assert delta_L(COIL, plate, 2 * np.pi * 500e3, QUAD).real < 0.0


def test_delta_L_half_space_thickness_invariant():
    # Once the plate is many skin depths thick, more thickness changes nothing.
    omega = 2 * np.pi * 100e3
    a = delta_L(COIL, Plate(59.8e6, 5e-2), omega, QUAD)
    b = delta_L(COIL, Plate(59.8e6, 1.0), omega, QUAD)
    assert a == pytest.approx(b, rel=1e-12)


def test_delta_L_self_convergence():
    # Halving the step of a fixed rule reproduces the adaptive value.
    plate = Plate(16.744e6, 2.0e-3)
    omega = 2 * np.pi * 50e3
    coarse = delta_L(COIL, plate, omega, QuadratureSpec(n_panels=128, rule="fixed"))
    fine = delta_L(COIL, plate, omega, QuadratureSpec(n_panels=256, rule="fixed"))
    assert abs(fine - coarse) / abs(fine) < 1e-8


def test_delta_L_air_positive_and_frequency_free():
    value = delta_L_air(COIL, QUAD)
    assert value > 0.0
    # the signature has no omega at all; assert the cache gives bitwise repeats
    assert delta_L_air(COIL, QUAD) == value


def test_delta_L_perfect_conductor_limit():
    # sigma -> inf on a non-magnetic plate gives phi -> -1: the plate acts as
    # a mirror, and dL is minus the mutual inductance of the transmit coil
    # with the receive coil mirrored in the plate surface. At sigma = 1e30,
    # 1 + phi ~ 2 alpha / sqrt(j omega mu0 sigma) is below 1e-13 on the grid:
    # 2.2e-13 measured for both, so 1e-12 is a 4.5x margin (sigma = 1e20
    # would leave 2.2e-8).
    value = delta_L(COIL, Plate(1e30, 1e-2), 2 * np.pi * 100e3, QUAD)
    image = winding_mutual(COIL, n=32, mirrored=True)
    assert abs(value.real + image) <= 1e-12 * image
    assert abs(value.imag) <= 1e-12 * abs(value.real)


def test_delta_L_magnetostatic_half_space():
    # A non-conducting half-space of permeability mu_r images the receiver
    # with the factor r = (mu_r - 1) / (mu_r + 1) at every alpha: phi = r.
    # Measured within 2.6e-15 for each mu_r, so 1e-14 is a 3.8x margin; with
    # c = 0 the response has no imaginary part at all.
    image = winding_mutual(COIL, n=32, mirrored=True)
    for mu_r in (2.0, 200.0, 1000.0):
        value = delta_L(COIL, Plate(0.0, 1e4, mu_r), 2 * np.pi * 100e3, QUAD)
        expected = (mu_r - 1.0) / (mu_r + 1.0) * image
        assert abs(value.real - expected) <= 1e-14 * expected, mu_r
        assert value.imag == 0.0


def test_delta_L_air_turns_scaling():
    base = delta_L_air(COIL, QUAD)
    doubled = COIL.__class__(**{**COIL.__dict__, "turns_rx": COIL.turns_rx * 2})
    assert delta_L_air(doubled, QUAD) == pytest.approx(2.0 * base, rel=1e-10)


def test_delta_L_air_against_winding_oracle():
    # Independent spatial-domain oracle: both rectangular windings at uniform
    # turn density, a 32-point Gauss-Legendre rule in r and z on each, and
    # Maxwell's filament formula. 0 to 2.1e-15 apart for n = 16 to 48, so
    # 1e-14 is a 4.7x margin.
    oracle = winding_mutual(COIL, n=32)
    value = delta_L_air(COIL, QUAD)
    assert abs(value - oracle) <= 1e-14 * oracle


def test_delta_L_air_short_gap_against_winding_oracle():
    # As the gap closes, the integrand of the spatial rule nears the
    # filaments' logarithmic singularity and it needs more points: at a
    # 0.2 mm gap, n = 32 is 1.5e-12 off and n = 48 and 64 agree with the
    # solver to 9.0e-13, so 5e-12 is a 5.6x margin.
    short = CoilPair(3e-3, 5e-3, 2e-3, 0.2e-3, 1e-3, 25, 25, 10e-3)
    oracle = winding_mutual(short, n=48)
    assert abs(delta_L_air(short, QUAD) - oracle) <= 5e-12 * oracle


def test_delta_L_air_touching_coils():
    # At gap = 0 the direct integrand decays only algebraically, and the tail
    # beyond the default alpha_max is about 7.5e-8 of the value, above
    # rel_tolerance: finite, and reported like the 1 nm gap it approaches.
    touching = CoilPair(6e-3, 6.315e-3, 8e-3, 0.0, 1e-3, 25, 25, 10e-3)
    with pytest.warns(TruncationWarning):
        value = delta_L_air(touching, QUAD)
    with pytest.warns(TruncationWarning):
        near = delta_L_air(CoilPair(6e-3, 6.315e-3, 8e-3, 1e-9, 1e-3, 25, 25, 10e-3), QUAD)
    assert np.isfinite(value) and value > 0.0
    assert abs(value - near) <= 1e-4 * near
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        delta_L_air(COIL, QUAD)


def test_flat_windings_do_not_converge():
    # P^2 oscillates with period about 2 pi / (r2 - r1) in alpha, faster than
    # the rule's step in ln(alpha) resolves near alpha_max on flat windings:
    # the adaptive rule halves until it gives up, and returns no value.
    # L_air of a thin flat winding, r2 = 1.001 r1 and coil height = gap =
    # lift-off = 1e-3 r1, at its derived alpha_max of 400 / r1:
    thin = CoilPair(1.0, 1.001, 1e-3, 1e-3, 1e-3, 25, 25, 10e-3)
    with pytest.raises(QuadratureConvergenceError, match="after 8 step halvings"):
        delta_L_air(thin, QUAD)
    # delta_L of a wide flat winding, r2 = 10 r1 and coil height = gap =
    # lift-off = 0.01 r1, on copper at 1 kHz (alpha_max = 2,000 / r1): its
    # halvings reach the sub-panel budget first.
    wide = CoilPair(1.0, 10.0, 1e-2, 1e-2, 1e-2, 25, 25, 10e-3)
    with pytest.raises(QuadratureConvergenceError, match="radial sub-panels, more than the budget"):
        delta_L(wide, PLATES[0], 2 * np.pi * 1e3, QUAD)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(alpha_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_panels=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=0.0)
    # 40 / min(coil_height + gap, inner_radius): 40 / 6 mm for the default
    # sensor, 40 / 3 mm for a coil whose height and gap add up to less
    assert QuadratureSpec().resolve_alpha_max(COIL) == pytest.approx(40.0 / 6e-3)
    short = dataclasses.replace(COIL, coil_height=2e-3, gap=1e-3)
    assert QuadratureSpec().resolve_alpha_max(short) == pytest.approx(40.0 / 3e-3)
    assert QuadratureSpec(alpha_max=123.0).resolve_alpha_max(COIL) == 123.0


def test_quadrature_convergence_error(monkeypatch):
    # One halving allowed: the |T_h - T_2h| estimates are 1.6e-6 at 8 steps
    # per decade and 6.3e-11 at 16, far above the tolerance, so the outcome
    # does not rest on round-off.
    monkeypatch.setattr(dodd_deeds, "_MAX_REFINEMENTS", 1)
    quad = QuadratureSpec(n_panels=8, rel_tolerance=1e-16)
    with pytest.raises(QuadratureConvergenceError):
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * 10.0, quad)


def test_truncation_warning_for_small_alpha_max():
    quad = QuadratureSpec(alpha_max=300.0, rule="fixed")
    with pytest.warns(TruncationWarning):
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * 100e3, quad)
    # and the default truncation point stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * 100e3, QUAD)


def test_truncation_warning_below_lowest_node(monkeypatch):
    # Two decades below alpha_max leave out the peak of the integrand, near
    # alpha = 1 / inner_radius: the bound on the part below warns.
    monkeypatch.setattr(dodd_deeds, "_DECADES", 2)
    dodd_deeds._kernel_table.cache_clear()
    try:
        with pytest.warns(TruncationWarning, match="decrease alpha_max"):
            delta_L(COIL, PLATES[0], 2 * np.pi * 1e4, QuadratureSpec(rule="fixed"))
    finally:
        dodd_deeds._kernel_table.cache_clear()


@pytest.mark.parametrize(
    "call, message",
    [
        # about 1.05e8 sub-panels x 10 points, 8 GB, at the top node alone
        (lambda: radial_integral(COIL, 1e12), r"alpha = 1e\+12 1/m asks for 1.05e\+08 radial"),
        (lambda: radial_integral(COIL, 1e20), r"alpha = 1e\+20 1/m asks for 1.05e\+16 radial"),
        # past the intp cast, which would wrap
        (lambda: radial_integral(COIL, 1e300), r"alpha = 1e\+300 1/m asks for 1.05e\+296 radial"),
        (
            lambda: delta_L(COIL, PLATES[0], 1e4, QuadratureSpec(alpha_max=1e12)),
            r"alpha_max = 1e\+12 1/m asks for .* radial sub-panels, more than the budget",
        ),
        (
            lambda: delta_L_air(COIL, QuadratureSpec(alpha_max=1e12)),
            r"alpha_max = 1e\+12 1/m asks for .* radial sub-panels, more than the budget",
        ),
        (
            lambda: delta_L(COIL, PLATES[0], 1e4, QuadratureSpec(n_panels=10**9)),
            r"n_panels = 1000000000 asks for 4.46e\+09 nodes, more than the budget",
        ),
    ],
)
def test_quadrature_over_budget_fails_fast(call, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_step_halving_over_budget_is_no_convergence(monkeypatch):
    # Level 0 holds 37 nodes at 8 steps per decade; the third halving adds
    # 144 midpoints, more than a budget of 100. The estimates do not reach
    # 1e-16 before (test_quadrature_convergence_error).
    monkeypatch.setattr(dodd_deeds, "_BUDGET", 100)
    dodd_deeds._kernel_table.cache_clear()
    try:
        quad = QuadratureSpec(n_panels=8, rel_tolerance=1e-16)
        assert first_level_nodes(COIL, quad) == 37
        with pytest.raises(QuadratureConvergenceError, match="halving 3: n_panels = 8 asks for 144"):
            delta_L(COIL, PLATES[0], 2 * np.pi * 10.0, quad)
    finally:
        dodd_deeds._kernel_table.cache_clear()


def test_omega_validation():
    for omega in (0.0, np.array([])):
        with pytest.raises(ValueError, match="^omega must be a scalar or 1-D array"):
            delta_L(COIL, Plate(59.8e6, 0.56e-3), omega, QUAD)


def test_quadrature_spec_rejects_non_finite():
    for kwargs in (
        dict(alpha_max=np.nan),
        dict(alpha_max=np.inf),
        dict(alpha_max=0.0),
        dict(n_panels=np.nan),
        dict(n_panels=np.inf),
        dict(n_panels=16.5),
        dict(rel_tolerance=np.nan),
    ):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureSpec(**kwargs)
    # alpha_max's range is 1e-9 to 1e15 1/m: QuadratureSpec refuses a value
    # beyond it, before any solve.
    for alpha_max in (1e-100, np.nextafter(1e-9, 0.0), np.nextafter(1e15, np.inf), 1e60):
        message = f"alpha_max must be from 1e-09 to 1e+15 1/m, got {float(alpha_max)!r} 1/m"
        with pytest.raises(ValueError, match=re.escape(message)):
            QuadratureSpec(alpha_max=alpha_max)


def test_delta_L_array_matches_scalar_calls(monkeypatch):
    # At 13 steps per decade the |T_h - T_2h| estimates of these frequencies
    # run from at most 1.3e-8 to at least 1.5e-7 on each plate, and after
    # one halving they are below 1.1e-13, so at this tolerance each plate
    # stops some frequencies at the first check and the rest at the second:
    # the array call refines a masked subset.
    quad = QuadratureSpec(n_panels=13, rel_tolerance=4.5e-8)
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 24)
    reflection = dodd_deeds.generalized_reflection
    for plate in PLATES:
        batched = delta_L(COIL, plate, omegas, quad)
        levels = []

        def counting(*args):
            levels[-1] += 1
            return reflection(*args)

        monkeypatch.setattr(dodd_deeds, "generalized_reflection", counting)
        scalar = []
        for omega in omegas:
            levels.append(0)
            scalar.append(delta_L(COIL, plate, omega, quad))
        monkeypatch.undo()
        assert len(set(levels)) > 1, "every frequency stopped at the same level"
        assert all(type(v) is complex for v in scalar)
        assert batched.dtype == complex and batched.shape == omegas.shape
        # a pair whose halving refines exactly one row
        pair = [levels.index(1), levels.index(2)]
        assert np.array_equal(delta_L(COIL, plate, omegas[pair], quad), batched[pair]), (plate, blas())
        assert np.array_equal(batched, np.array(scalar)), (plate, blas())


def test_delta_L_bits_do_not_depend_on_block_size(monkeypatch):
    # The default sweep of 400 x 82 elements goes to the kernel in 2 blocks
    # of 200 rows. Blocks of one row, an uneven split of 1 - 2 rows, blocks
    # of 2, 3 and 5 rows, 4 blocks of 100 rows, and one block of the whole
    # grid, past numpy's 256 KiB temporary elision, give the same bits. So
    # they do at a tolerance of 3e-10, where one halving refines 123 - 400
    # rows of each plate and sums a single weight column.
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 400)
    reflection = dodd_deeds.generalized_reflection
    shapes = []

    def recording(alpha0, omega, plate):
        shapes.append(np.broadcast(alpha0, omega).shape)
        return reflection(alpha0, omega, plate)

    monkeypatch.setattr(dodd_deeds, "generalized_reflection", recording)
    delta_L(COIL, PLATES[0], omegas, QUAD)
    assert shapes == [(200, first_level_nodes(COIL))] * 2
    for quad in (QUAD, QuadratureSpec(rel_tolerance=3e-10)):
        monkeypatch.undo()
        blocked = [delta_L(COIL, plate, omegas, quad) for plate in PLATES]
        for elements in (1, 97, 164, 246, 410, 8192, 16384, 1 << 16):
            monkeypatch.setattr(dodd_deeds, "_BLOCK_ELEMENTS", elements)
            for plate, value in zip(PLATES, blocked):
                other = delta_L(COIL, plate, omegas, quad)
                assert np.array_equal(other.view(np.uint64), value.view(np.uint64)), (
                    elements, quad, plate, blas()
                )


def test_delta_L_array_validation():
    plate = Plate(59.8e6, 0.56e-3)
    for omegas in ([1e3, 0.0], [1e3, np.nan], [1e3, np.inf], [[1e3, 2e3]]):
        with pytest.raises(ValueError):
            delta_L(COIL, plate, np.array(omegas), QUAD)


def test_truncation_warning_for_array_call():
    quad = QuadratureSpec(alpha_max=300.0, rule="fixed")
    with pytest.warns(TruncationWarning):
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * np.array([1e3, 100e3]), quad)


def test_sweep_error_names_first_unconverged_frequency(monkeypatch):
    # With no halving allowed, the first |T_h - T_2h| estimates decide:
    # 5.1e-12 - 9.9e-11 up to 5.3 kHz and 3.7e-10 - 4.9e-10 above, so some
    # frequencies fail and others do not. Scalar calls tell which, and the
    # sweep must name the first of them.
    monkeypatch.setattr(dodd_deeds, "_MAX_REFINEMENTS", 0)
    quad = QuadratureSpec(rel_tolerance=1.7e-10)
    spec = SweepSpec(10.0, 1e6, 12)
    plate = Plate(59.8e6, 0.56e-3)
    freqs = frequency_grid(spec)
    failed = []
    for f in freqs:
        try:
            delta_L(COIL, plate, 2 * np.pi * f, quad)
        except QuadratureConvergenceError:
            failed.append(f)
    assert 0 < len(failed) < freqs.size
    with pytest.raises(QuadratureConvergenceError, match=f"f = {failed[0]:.6g} Hz"):
        sweep("dodd_deeds", COIL, plate, spec, quad=quad)


def mp_winding(mpmath, x):
    """int_0^X x J1(x) dx = (pi X / 2) [J1(X) H0(X) - J0(X) H1(X)] (H: Struve)."""
    return mpmath.pi * x / 2 * (
        mpmath.besselj(1, x) * mpmath.struveh(0, x) - mpmath.besselj(0, x) * mpmath.struveh(1, x)
    )


# P(alpha)^2 / alpha^6 of the 25-digit oracles per (radii, node): the Struve
# form is their costly part, and the tanh-sinh nodes recur across integrands.
_MP_P2 = {}


def mp_kernel(mpmath, coil):
    """(prefactor, breakpoints, P^2 / alpha^6) of the 25-digit oracles below.

    The tanh-sinh intervals are half decades from 1e-4 to 10^4.5 1/m (the
    decades below 1e-3 need their own breakpoints).
    """
    r1, r2, h = (mpmath.mpf(v) for v in (coil.inner_radius, coil.outer_radius, coil.coil_height))
    prefactor = mpmath.pi * mpmath.mpf(MU_0) * coil.turns_tx * coil.turns_rx / ((r2 - r1) ** 2 * h * h)
    breakpoints = [0] + [mpmath.mpf(10) ** (k / 2) for k in range(-8, 10)]

    def p2(a):
        key = (coil.inner_radius, coil.outer_radius, a)
        if key not in _MP_P2:
            p = mp_winding(mpmath, a * r2) - mp_winding(mpmath, a * r1)
            _MP_P2[key] = p * p / a**6
        return _MP_P2[key]

    return prefactor, breakpoints, p2


def mp_delta_L(coil, cases):
    """Oracle: dL for each (plate, f) in ``cases`` by mpmath quadrature at 25 digits.

    Independent of the solver's trapezoid grid, scipy Bessel calls and
    real-arithmetic reflection: P(alpha) uses the Struve closed form, and
    tanh-sinh quadrature runs over the intervals of ``mp_kernel``. Returns
    (value, quad's own relative error estimate) per case.
    """
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(25):
        prefactor, breakpoints, p2 = mp_kernel(mpmath, coil)
        mu0 = mpmath.mpf(MU_0)
        h = mpmath.mpf(coil.coil_height)
        z1 = mpmath.mpf(coil.liftoff)
        z3 = z1 + h + mpmath.mpf(coil.gap)

        for plate, f in cases:
            mu2 = mu0 * plate.relative_permeability
            c = 2 * mpmath.pi * mpmath.mpf(f) * plate.conductivity * mu2
            d = mpmath.mpf(plate.thickness)

            def integrand(a):
                k2 = mpmath.sqrt(a * a + 1j * c)
                # r = (mu2 a - mu0 k2) / (mu2 a + mu0 k2), cancellation-free
                r = ((mu2 * mu2 - mu0 * mu0) * a * a - 1j * c * mu0 * mu0) / (mu2 * a + mu0 * k2) ** 2
                e = mpmath.exp(-2 * k2 * d)
                tx = mpmath.exp(-a * z1) - mpmath.exp(-a * (z1 + h))
                rx = mpmath.exp(-a * z3) - mpmath.exp(-a * (z3 + h))
                return p2(a) * tx * rx * r * (1 - e) / (1 - r * r * e)

            value, error = mpmath.quad(integrand, breakpoints, error=True)
            out.append((complex(prefactor * value), float(error / abs(value))))
    return out


def mp_delta_L_air(coil):
    """Oracle: L_air by the quadrature of ``mp_delta_L``; (value, its error estimate)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(25):
        prefactor, breakpoints, p2 = mp_kernel(mpmath, coil)
        h, gap = mpmath.mpf(coil.coil_height), mpmath.mpf(coil.gap)

        def integrand(a):
            return p2(a) * mpmath.exp(-a * gap) * mpmath.expm1(-a * h) ** 2

        value, error = mpmath.quad(integrand, breakpoints, error=True)
        return float(prefactor * value), float(error / abs(value))


def test_delta_L_against_mpmath():
    cases = (
        (PLATES[0], 1e4),                   # copper
        (PLATES[4], 1e3),                   # magnetic steel, mu_r = 200
        (PLATES[2], 1e5),                   # aluminium foil
        (Plate(1e8, 0.1, 1000.0), 1e5),     # thick, mu_r = 1000, half-space regime
        (PLATES[1], 1e6),                   # brass at the top of the benchmark's band
        (Plate(1.0, 1e-6, 1000.0), 10.0),   # a weakly conducting magnetic film
    )
    for (plate, f), (exact, error) in zip(cases, mp_delta_L(COIL, cases)):
        # quad returns an unconverged value without complaint (at 25 digits it
        # does so for sigma = 1 S/m x 1 um at 10 Hz, estimate 1.5e-4): check it.
        assert error < 1e-10, f"mpmath quadrature did not converge for {plate} at {f} Hz"
        value = delta_L(COIL, plate, 2 * np.pi * f, QUAD)
        assert abs(value - exact) <= 1e-10 * abs(exact), (plate, f, value, exact)


def test_delta_L_air_against_mpmath():
    # The gap sets L_air's default grid, 40 / min(gap, inner_radius).
    for gap in (0.5e-3, 2e-3, 5e-3):
        coil = dataclasses.replace(COIL, gap=gap)
        exact, error = mp_delta_L_air(coil)
        assert error < 1e-10, f"mpmath quadrature did not converge at gap {gap}"
        value = delta_L_air(coil, QUAD)
        assert abs(value - exact) <= 1e-12 * exact, (gap, value, exact)


def test_default_rule_against_uniform_trapezoid():
    # The default rule against a uniform step in ln(alpha), which shares with
    # it only the kernel pieces, not its stretched grid or its weights (the
    # accuracy audit's reference, the same rule at 512 steps per decade,
    # shares both): delta_L on the benchmark's plates at three lift-offs, and
    # L_air, whose default alpha_max is 40 / gap here, at three gaps. At 64
    # steps per decade the oracle is itself 3e-9 off L_air at a 0.5 mm gap;
    # at 256 it agrees with the default rule to 2.5e-14 or better.
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 7)
    for liftoff in (0.1e-3, 1e-3, 10e-3):
        coil = dataclasses.replace(COIL, liftoff=liftoff)
        alpha_max, path = QUAD.resolve_alpha_max(coil), 2.0 * liftoff + coil.coil_height + coil.gap
        for plate in PLATES:
            value = delta_L(coil, plate, omegas, QUAD)
            exact = uniform_trapezoid(
                coil, alpha_max, path, lambda nodes: generalized_reflection(nodes, omegas[:, None], plate)
            )
            assert np.all(np.abs(value - exact) <= 1e-13 * np.abs(exact)), (liftoff, plate)
    for gap in (0.5e-3, 2e-3, 5e-3):
        coil = dataclasses.replace(COIL, gap=gap)
        exact = uniform_trapezoid(coil, 40.0 / gap, gap, lambda nodes: np.ones((1, nodes.size)))[0]
        assert abs(delta_L_air(coil, QUAD) - exact) <= 1e-12 * exact, gap


def test_default_rule_on_extreme_plates_against_uniform_trapezoid():
    # The accuracy audit's extreme plates, frequencies and lift-offs against
    # the uniform step in ln(alpha), which shares no grid with the rule: the
    # audit's reference, the same stretch at 512 steps per decade, would not
    # see a stretch too wide below kappa / outer_radius.
    plates = (
        Plate(1.0, 1e-6),
        Plate(1.0, 1e-6, 1000.0),
        Plate(1e8, 0.1),
        Plate(1e8, 0.1, 1000.0),
    )
    omegas = 2 * np.pi * np.geomspace(0.01, 1e8, 11)
    for liftoff in (0.1e-3, 10e-3):
        coil = dataclasses.replace(COIL, liftoff=liftoff)
        alpha_max, path = QUAD.resolve_alpha_max(coil), 2.0 * liftoff + coil.coil_height + coil.gap
        for plate in plates:
            value = delta_L(coil, plate, omegas, QUAD)
            exact = uniform_trapezoid(
                coil, alpha_max, path, lambda nodes: generalized_reflection(nodes, omegas[:, None], plate)
            )
            assert np.all(np.abs(value - exact) <= 1e-13 * np.abs(exact)), (liftoff, plate)


def test_delta_L_air_same_bits_at_every_liftoff():
    # Neither the lift-off nor the drive current enters L_air, its grid or its
    # cache key.
    value = delta_L_air(COIL, QUAD)
    for liftoff in np.geomspace(0.1e-3, 10e-3, 9):
        coil = dataclasses.replace(COIL, liftoff=liftoff, drive_current=0.5)
        assert delta_L_air(coil, QUAD) == value, liftoff


def test_liftoff_scan_builds_one_kernel_table(monkeypatch):
    # With L_air cached, the first lift-off's L_air and short sweep sample P
    # once: one table of the first level's nodes, whose top node is
    # alpha_max, from which the truncation check takes its tail density. A
    # later lift-off of the same coils reuses that table and does no Bessel
    # work at all.
    delta_L_air(COIL, QUAD)
    dodd_deeds._kernel_table.cache_clear()
    calls = []

    def counting(name, fn):
        def wrapped(coil, alpha):
            calls.append((name, np.size(alpha)))
            return fn(coil, alpha)

        return wrapped

    monkeypatch.setattr(dodd_deeds, "radial_integral", counting("radial_integral", radial_integral))
    for k, liftoff in enumerate((1.2345e-3, 0.5e-3, 0.1e-3, 3e-3, 10e-3)):
        calls.clear()
        coil = dataclasses.replace(COIL, liftoff=liftoff)
        delta_L_air(coil, QUAD)
        sweep("dodd_deeds", coil, PLATES[k], SweepSpec(1e3, 1e5, 4), quad=QUAD)
        assert calls == ([("radial_integral", first_level_nodes(COIL))] if k == 0 else []), liftoff


def test_kernel_table_same_bits_at_every_liftoff(monkeypatch):
    # The delta_L grid and its P samples do not depend on the lift-off: built
    # afresh at each of nine lift-offs, they are bitwise the same.
    tables = []
    reflection = dodd_deeds.generalized_reflection

    def sampling(coil, alpha):
        p = radial_integral(coil, alpha)
        tables[-1]["p"] = p.tobytes()
        return p

    def recording(alpha0, omega, plate):
        tables[-1]["nodes"] = alpha0[0].tobytes()
        return reflection(alpha0, omega, plate)

    monkeypatch.setattr(dodd_deeds, "radial_integral", sampling)
    monkeypatch.setattr(dodd_deeds, "generalized_reflection", recording)
    for liftoff in np.geomspace(0.1e-3, 10e-3, 9):
        dodd_deeds._kernel_table.cache_clear()
        tables.append({})
        delta_L(dataclasses.replace(COIL, liftoff=liftoff), PLATES[0], 2 * np.pi * 1e4, QUAD)
        assert set(tables[-1]) == {"p", "nodes"}, liftoff
        assert tables[-1] == tables[0], liftoff
    dodd_deeds._kernel_table.cache_clear()


# delta_L at 10 Hz, 316 Hz, 10 kHz, 316 kHz and 1 MHz on the benchmark's
# plates (numpy 2.4, x86-64), frozen from the solver after the reflection
# kernel took the half-angle form of 1 - E and 1 + E. They agree to 2.8e-16 of
# |delta_L| with the values frozen before from the kernel with sin b, which
# agreed to 3.6e-16 with those from the one-division kernel on the same
# 82-node grid, those to 1.9e-15 with those on the 93-node grid, those to
# 3.0e-16 with those of the reflection kernel with hypot, and those to 3.6e-16
# with those of _j1's power series.
FROZEN_DELTA_L = (
    (
        (-7.031203347622569e-11-2.606690205623624e-09j), (-1.3234719970067276e-08-3.867036469571213e-08j),
        (-1.6416859635900706e-07-5.1435634891308584e-08j), (-1.8724429333723146e-07-6.638248929748476e-09j),
        (-1.928223161130032e-07-1.7112523289472513e-09j),
    ),
    (
        (-6.443848236945203e-11-2.309110945857678e-09j), (-1.179337141216581e-08-3.398699918079809e-08j),
        (-1.4412129289928286e-07-4.8772509390396183e-08j), (-1.8079881266421823e-07-1.2575949686443769e-08j),
        (-1.912822976992422e-07-3.200717268265168e-09j),
    ),
    (
        (-3.678712357737013e-14-6.048963319845181e-11j), (-1.1456591280914677e-11-1.07518430857609e-09j),
        (-2.8802896762021574e-09-1.819428724472048e-08j), (-1.210228700349794e-07-8.245889107563602e-08j),
        (-1.9364731481234236e-07-9.08079743848056e-09j),
    ),
    (
        (-3.670515750190954e-14-6.02925907752212e-11j), (-1.1430688374899325e-11-1.0716806870625678e-09j),
        (-2.8726362106993667e-09-1.8133453805042966e-08j), (-1.205811368691013e-07-8.218133219338699e-08j),
        (-1.9303057858170547e-07-9.07974124546338e-09j),
    ),
    (
        (1.7668902938228723e-07-5.109970428702505e-10j), (1.7535333857320107e-07-8.786709202245896e-09j),
        (1.2945125173630885e-07-4.422936905421374e-08j), (1.1303333481733772e-08-7.330247250574365e-08j),
        (-1.1792421910892156e-07-5.080399510394753e-08j),
    ),
)
# The same at HALVING_QUAD, whose coarse first level halves its step until
# the tighter tolerance holds: the sums of the refined levels.
HALVING_QUAD = QuadratureSpec(n_panels=9, rel_tolerance=1e-12)
FROZEN_DELTA_L_HALVED = (
    (
        (-7.031203347622581e-11-2.606690205623624e-09j), (-1.3234719970067278e-08-3.8670364695712124e-08j),
        (-1.6416859635900698e-07-5.143563489130857e-08j), (-1.8724429333723138e-07-6.63824892974847e-09j),
        (-1.9282231611300313e-07-1.7112523289472509e-09j),
    ),
    (
        (-6.443848236945213e-11-2.309110945857678e-09j), (-1.179337141216581e-08-3.39869991807981e-08j),
        (-1.441212928992828e-07-4.877250939039616e-08j), (-1.807988126642181e-07-1.2575949686443752e-08j),
        (-1.9128229769924208e-07-3.2007172682651687e-09j),
    ),
    (
        (-3.678712357730928e-14-6.04896331984518e-11j), (-1.1456591280914488e-11-1.0751843085760896e-09j),
        (-2.8802896762021566e-09-1.8194287244720474e-08j), (-1.2102287003497933e-07-8.245889107563595e-08j),
        (-1.9364731481234217e-07-9.08079743848055e-09j),
    ),
    (
        (-3.670515750184899e-14-6.029259077522123e-11j), (-1.1430688374899131e-11-1.0716806870625666e-09j),
        (-2.8726362106993663e-09-1.8133453805042953e-08j), (-1.2058113686910128e-07-8.218133219338694e-08j),
        (-1.9303057858170528e-07-9.079741245463371e-09j),
    ),
    (
        (1.766890293822872e-07-5.109970428702529e-10j), (1.75353338573201e-07-8.78670920224589e-09j),
        (1.2945125173630877e-07-4.422936905421372e-08j), (1.130333348173374e-08-7.33024725057436e-08j),
        (-1.1792421910892145e-07-5.080399510394752e-08j),
    ),
)


def test_delta_L_frozen_bits():
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 5)
    for plate, frozen in zip(PLATES, FROZEN_DELTA_L):
        value = delta_L(COIL, plate, omegas, QUAD)
        assert value.tobytes() == np.array(frozen).tobytes(), (plate, blas())


def test_delta_L_frozen_bits_after_halvings():
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 5)
    first_level = dataclasses.replace(HALVING_QUAD, rule="fixed")
    for plate, frozen in zip(PLATES, FROZEN_DELTA_L_HALVED):
        value = delta_L(COIL, plate, omegas, HALVING_QUAD)
        assert value.tobytes() == np.array(frozen).tobytes(), (plate, blas())
        # every value comes from a refined level, not from the first
        assert np.all(value != delta_L(COIL, plate, omegas, first_level)), plate


def test_default_rule_raises_no_truncation_warning():
    # The default alpha_max leaves out less than exp(-40) of the tail's
    # envelope at every lift-off. The check bounds |phi| by 1, so a smaller
    # alpha_max, 40 / (coil_height + gap), would warn for the weakly
    # conducting plates at 0.1 mm lift-off; this one must stay silent.
    plates = (
        Plate(1.0, 1e-6),
        Plate(1.0, 1e-6, 1000.0),
        Plate(1e8, 0.1),
        Plate(1e8, 0.1, 1000.0),
    )
    omegas = 2 * np.pi * np.geomspace(0.01, 1e8, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        for liftoff in np.geomspace(0.1e-3, 10e-3, 9):
            coil = dataclasses.replace(COIL, liftoff=liftoff)
            for plate in plates:
                delta_L(coil, plate, omegas, QUAD)


def test_default_rule_accuracy_audit(monkeypatch):
    # The default adaptive rule against a fixed rule with a 28x finer step
    # than the level it returns, on extreme plates, frequencies and lift-offs.
    reference = QuadratureSpec(rule="fixed", n_panels=512)
    plates = (
        Plate(1.0, 1e-6),
        Plate(1.0, 1e-6, 1000.0),
        Plate(1e8, 0.1),
        Plate(1e8, 0.1, 1000.0),
    )
    omegas = 2 * np.pi * np.geomspace(0.01, 1e8, 11)
    for liftoff in (0.1e-3, 10e-3):
        coil = dataclasses.replace(COIL, liftoff=liftoff)
        for plate in plates:
            value = delta_L(coil, plate, omegas, QUAD)
            exact = delta_L(coil, plate, omegas, reference)
            assert np.all(np.abs(value - exact) <= 1e-12 * np.abs(exact)), (liftoff, plate)
    # L_air does not depend on the lift-off (bitwise, as the test above
    # shows) but on the gap, which sets its grid and its decay.
    for gap in np.geomspace(0.1e-3, 10e-3, 9):
        coil = dataclasses.replace(COIL, gap=gap)
        air = delta_L_air(coil, QUAD)
        assert abs(air - delta_L_air(coil, reference)) <= 1e-10 * air, gap

    # The benchmark's inputs converge at the first check: one evaluation of
    # every frequency on the first level's nodes (82 for the default sensor,
    # where a uniform step in ln(alpha) takes 9 x 18 + 1 = 163).
    nodes_per_level = {}
    reflection = dodd_deeds.generalized_reflection

    def counting(alpha0, omega, plate):
        n = alpha0.shape[-1]
        nodes_per_level[n] = nodes_per_level.get(n, 0) + np.broadcast(alpha0, omega).size
        return reflection(alpha0, omega, plate)

    monkeypatch.setattr(dodd_deeds, "generalized_reflection", counting)
    inputs = [(COIL, SweepSpec(10.0, 1e6, 400))]
    inputs += [(dataclasses.replace(COIL, liftoff=x), SweepSpec(1e3, 1e5, 4)) for x in (0.5e-3, 3e-3)]
    for coil, spec in inputs:
        for plate in PLATES:
            nodes_per_level.clear()
            sweep("dodd_deeds", coil, plate, spec, quad=QUAD)
            n, first = spec.n_points, first_level_nodes(coil)
            assert nodes_per_level == {first: first * n}, (coil.liftoff, plate)


def _log_uniform(lo, hi):
    """Floats from lo to hi, drawn uniformly in the exponent."""
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    inner_radius=_log_uniform(0.3e-3, 30e-3),
    width=_log_uniform(0.05e-3, 2e-3),
    coil_height=_log_uniform(0.1e-3, 30e-3),
    gap=st.one_of(st.just(0.0), _log_uniform(0.03e-3, 30e-3)),
    liftoff=_log_uniform(0.1e-3, 10e-3),
    plate=st.sampled_from((PLATES[0], PLATES[2], PLATES[4])),
    frequencies=st.lists(_log_uniform(10.0, 1e6), min_size=1, max_size=3, unique=True),
)
def test_default_rule_on_drawn_coils(inner_radius, width, coil_height, gap, liftoff, plate, frequencies):
    # The adaptive rule against a fixed rule with a 4x finer step than the
    # finest level it evaluated, with no truncation warning. Wide coils over
    # small lift-offs need several halvings: P^2 oscillates with a period of
    # about pi / inner_radius in alpha.
    coil = CoilPair(inner_radius, inner_radius + width, coil_height, gap, liftoff, 25, 25, 1e-2)
    omegas = 2 * np.pi * np.sort(frequencies)
    levels = []
    table = dodd_deeds._kernel_table

    def recording(*args):
        levels.append(args[3] if len(args) > 3 else 0)
        return table(*args)

    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        with mock.patch.object(dodd_deeds, "_kernel_table", recording):
            value = delta_L(coil, plate, omegas, QUAD)
    reference = QuadratureSpec(rule="fixed", n_panels=4 * QUAD.n_panels << max(levels))
    exact = delta_L(coil, plate, omegas, reference)
    assert np.all(np.abs(value - exact) <= 1e-10 * np.abs(exact)), max(levels)
