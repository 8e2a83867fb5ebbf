import warnings

import numpy as np
import pytest
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
from eddyplate.analysis import SweepError
from eddyplate.dodd_deeds import (
    air_factor,
    axial_factor,
    coil_kernel,
    kernel_prefactor,
    radial_integral,
)

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


def filament_mutual(r_a, r_b, z):
    """Oracle: Neumann mutual inductance of two coaxial circular filaments.

    M = mu0 sqrt(ra rb) [(2/k - k) K(k^2) - (2/k) E(k^2)]   (scipy's m = k^2
    convention for the complete elliptic integrals).
    """
    m = 4.0 * r_a * r_b / ((r_a + r_b) ** 2 + z * z)
    k = np.sqrt(m)
    return (
        MU_0
        * np.sqrt(r_a * r_b)
        * ((2.0 / k - k) * special.ellipk(m) - (2.0 / k) * special.ellipe(m))
    )


def filament_stack_mutual(coil, n=25):
    """Oracle: coil pair as two stacks of n filaments at the mean radius."""
    r = 0.5 * (coil.inner_radius + coil.outer_radius)
    z_tx = coil.tx_bottom + (np.arange(n) + 0.5) * coil.coil_height / n
    z_rx = coil.rx_bottom + (np.arange(n) + 0.5) * coil.coil_height / n
    per_filament_tx = coil.turns_tx / n
    per_filament_rx = coil.turns_rx / n
    total = 0.0
    for za in z_tx:
        for zb in z_rx:
            total += filament_mutual(r, r, zb - za)
    return total * per_filament_tx * per_filament_rx


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


def test_radial_integral_vectorized_matches_scalar():
    alphas = np.array([10.0, 166.67, 3000.0])
    vec = radial_integral(COIL, alphas)
    assert vec.shape == (3,)
    for i, a in enumerate(alphas):
        assert vec[i] == radial_integral(COIL, float(a))


def test_axial_factor_zero_at_origin_and_decaying():
    assert axial_factor(COIL, 0.0) == 0.0
    a = np.geomspace(1.0, 1e5, 50)
    vals = axial_factor(COIL, a)
    assert np.all(vals >= 0.0)
    assert vals[-1] < 1e-30  # decays like exp(-a*(l1_tx + l1_rx))


def test_air_factor_limits():
    # alpha -> 0: factor -> 0 (the two windows vanish); large alpha: gap decay
    assert air_factor(COIL, 0.0) == 0.0
    big = 1e4
    assert air_factor(COIL, big) == pytest.approx(np.exp(-big * COIL.gap), rel=1e-6)


def test_kernel_prefactor_positive_and_scaling():
    base = kernel_prefactor(COIL)
    assert base > 0.0
    doubled = COIL.__class__(**{**COIL.__dict__, "turns_tx": COIL.turns_tx * 2})
    assert kernel_prefactor(doubled) == pytest.approx(2.0 * base, rel=1e-15)


def test_coil_kernel_bundles_components():
    alphas = np.geomspace(1.0, 1e4, 10)
    kern = coil_kernel(COIL, alphas)
    assert np.array_equal(kern.p_radial, radial_integral(COIL, alphas))
    assert np.array_equal(kern.axial, axial_factor(COIL, alphas))
    assert np.array_equal(kern.air, air_factor(COIL, alphas))
    assert kern.prefactor == kernel_prefactor(COIL)


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
    # Doubling the panel count of a fixed rule reproduces the adaptive value.
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


def test_delta_L_air_turns_scaling():
    base = delta_L_air(COIL, QUAD)
    doubled = COIL.__class__(**{**COIL.__dict__, "turns_rx": COIL.turns_rx * 2})
    assert delta_L_air(doubled, QUAD) == pytest.approx(2.0 * base, rel=1e-10)


def test_delta_L_air_against_filament_oracle():
    # Independent Neumann-formula oracle: each coil as 25 coaxial filaments
    # at the mean winding radius. The finite radial build (0.315 mm on a
    # 6 mm radius) limits the agreement; 2% is comfortably above the
    # observed 0.03% discrepancy yet far below any kernel bug.
    oracle = filament_stack_mutual(COIL, n=25)
    value = delta_L_air(COIL, QUAD)
    assert abs(value - oracle) / oracle < 0.02


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


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(alpha_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(n_panels=4)
    with pytest.raises(ValueError):
        QuadratureSpec(rule="simpson")
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tolerance=0.0)
    assert QuadratureSpec().resolve_alpha_max(COIL) == pytest.approx(40.0 / 1e-3)
    assert QuadratureSpec(alpha_max=123.0).resolve_alpha_max(COIL) == 123.0


def test_quadrature_convergence_error():
    # An absurdly tight tolerance cannot be met by panel doubling alone.
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


def test_omega_validation():
    with pytest.raises(ValueError):
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 0.0, QUAD)


def test_quadrature_spec_rejects_non_finite():
    for kwargs in (
        dict(alpha_max=np.nan),
        dict(alpha_max=np.inf),
        dict(n_panels=np.nan),
        dict(n_panels=np.inf),
        dict(rel_tolerance=np.nan),
    ):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureSpec(**kwargs)


def test_delta_L_array_matches_scalar_calls(monkeypatch):
    # At this tolerance round-off decides the level at which each frequency
    # stops, so the array call refines a masked subset of its frequencies.
    quad = QuadratureSpec(n_panels=16, rel_tolerance=1e-15)
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
        assert np.array_equal(batched, np.array(scalar))


def test_delta_L_array_validation():
    plate = Plate(59.8e6, 0.56e-3)
    for omegas in ([1e3, 0.0], [1e3, np.nan], [1e3, np.inf], [[1e3, 2e3]]):
        with pytest.raises(ValueError):
            delta_L(COIL, plate, np.array(omegas), QUAD)


def test_truncation_warning_for_array_call():
    quad = QuadratureSpec(alpha_max=300.0, rule="fixed")
    with pytest.warns(TruncationWarning):
        delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * np.array([1e3, 100e3]), quad)


def test_sweep_error_names_first_unconverged_frequency():
    # Round-off at this tolerance defeats some frequencies and not others;
    # scalar calls tell which, and the sweep must name the first of them.
    quad = QuadratureSpec(n_panels=8, rel_tolerance=2e-16)
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
    with pytest.raises(SweepError, match=f"f = {failed[0]:.6g} Hz") as info:
        sweep("dodd_deeds", COIL, plate, spec, quad=quad)
    assert isinstance(info.value.__cause__, QuadratureConvergenceError)
