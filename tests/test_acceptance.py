"""Acceptance suite: one pass/fail line per criterion at the stated tolerance.

Each test prints ``ACCEPTANCE <n> PASS|FAIL: <statistic vs tolerance>`` to the
live terminal (bypassing capture) and then asserts.
"""

import time
import warnings

import numpy as np
import pytest

from eddyplate import (
    MU_0,
    InductanceSpectrum,
    Plate,
    QuadratureSpec,
    SweepSpec,
    compare,
    default_sensor,
    delta_L,
    delta_L_air,
    derive_alpha0,
    fit_sigma_d,
    fresnel,
    generalized_reflection,
    normalized_response_exact,
    normalized_response_thin,
    sweep,
    wavenumber,
)
from eddyplate.thin_plate import ThinRegimeWarning

from test_dodd_deeds import filament_stack_mutual
from test_te_layered import series_reflection

COIL = default_sensor()
A0 = derive_alpha0(COIL)

COPPER = Plate(59.8e6, 0.56e-3)
BRASS = Plate(16.744e6, 2.00e-3)
ALUMINIUM = Plate(36.9e6, 20e-6)
ALU_EQUIVALENT = Plate(13.418181818181818e6, 55e-6)
ALU_ROUNDED = Plate(13.5e6, 55e-6)


@pytest.fixture()
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(criterion, ok, detail):
        line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return _announce


def test_criterion_1_copper_brass_equivalence(announce):
    spec = SweepSpec(1e3, 500e3, 40)
    start = time.perf_counter()
    cu = sweep("dodd_deeds", COIL, COPPER, spec)
    br = sweep("dodd_deeds", COIL, BRASS, spec)
    runtime = time.perf_counter() - start
    report = compare(cu, br, band=(100e3, 500e3))
    ok = report.max_rel_error <= 0.05 and runtime <= 60.0
    announce(
        1,
        ok,
        f"copper/brass dodd_deeds over 100-500 kHz: max_rel_error "
        f"{report.max_rel_error:.4%} <= 5%, runtime {runtime:.2f} s <= 60 s",
    )


def test_criterion_2_aluminium_equivalence(announce):
    spec = SweepSpec(10.0, 1e6, 40)
    alu = sweep("dodd_deeds", COIL, ALUMINIUM, spec)
    eq = sweep("dodd_deeds", COIL, ALU_EQUIVALENT, spec)
    rounded = sweep("dodd_deeds", COIL, ALU_ROUNDED, spec)
    exact = compare(alu, eq)
    secondary = compare(alu, rounded)
    ok = exact.max_rel_error <= 0.03 and secondary.max_rel_error <= 0.03
    announce(
        2,
        ok,
        f"aluminium 20 um vs 13.418 MS/m / 55 um full band: "
        f"{exact.max_rel_error:.4%} <= 3% (rounded 13.5 MS/m: "
        f"{secondary.max_rel_error:.4%} <= 3%)",
    )


def test_criterion_3_sigma_d_bitwise_invariance(announce):
    rng = np.random.default_rng(17)
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 20)
    mismatches = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinRegimeWarning)
        for _ in range(100):
            sigma = rng.uniform(1e5, 6e7)
            d = 10 ** rng.uniform(-6, -4)
            scale = 2.0 ** rng.integers(-8, 9)  # exact in floats
            v1 = normalized_response_thin(A0, omegas, Plate(sigma, d))
            v2 = normalized_response_thin(A0, omegas, Plate(sigma * scale, d / scale))
            mismatches += int(np.any(v1 != v2))
    announce(
        3,
        mismatches == 0,
        f"bitwise sigma*D invariance: {mismatches}/100 plate pairs differ "
        f"(20 frequencies each), required 0",
    )


def test_criterion_4_series_oracle_equivalence(announce):
    rng = np.random.default_rng(23)
    worst = 0.0
    checked = 0
    while checked < 200:
        plate = Plate(
            conductivity=rng.uniform(1e6, 60e6),
            thickness=10 ** rng.uniform(np.log10(10e-6), np.log10(5e-3)),
        )
        a0 = rng.uniform(50, 5000)
        omega = 2 * np.pi * 10 ** rng.uniform(1, 6)
        # skip cases where the naive geometric series itself barely converges
        k2 = wavenumber(a0, omega, plate.conductivity, MU_0)
        r21, _ = fresnel(k2, wavenumber(a0, omega, 0.0, MU_0), MU_0, MU_0)
        if abs(r21 * r21 * np.exp(-2 * k2 * plate.thickness)) >= 0.99:
            continue
        oracle, _ = series_reflection(a0, omega, plate)
        closed = generalized_reflection(a0, omega, plate)
        worst = max(worst, abs(closed - oracle) / abs(oracle))
        checked += 1
    announce(
        4,
        worst <= 1e-9,
        f"closed form vs multiple-reflection series over 200 random "
        f"(sigma, D, f): worst rel {worst:.3g} <= 1e-9",
    )


def test_criterion_5_fresnel_identities(announce):
    rng = np.random.default_rng(29)
    worst_t = 0.0
    worst_anti = 0.0
    for _ in range(1000):
        a0 = rng.uniform(10, 5e3)
        omega = 2 * np.pi * 10 ** rng.uniform(1, 6)
        k_i = wavenumber(a0, omega, rng.uniform(0, 60e6), MU_0 * rng.uniform(1, 100))
        k_j = wavenumber(a0, omega, rng.uniform(0, 60e6), MU_0 * rng.uniform(1, 100))
        mu_i = MU_0 * rng.uniform(1, 100)
        mu_j = MU_0 * rng.uniform(1, 100)
        r, t = fresnel(k_i, k_j, mu_i, mu_j)
        worst_t = max(worst_t, abs(t - (1.0 + r)))
        r_fwd, _ = fresnel(k_i, k_j, mu_i, mu_i)
        r_rev, _ = fresnel(k_j, k_i, mu_i, mu_i)
        worst_anti = max(worst_anti, abs(r_fwd + r_rev))
    k = wavenumber(166.67, 2 * np.pi * 1e5, 1e7, MU_0)
    r_m, t_m = fresnel(k, k, MU_0, MU_0)
    matched = r_m == 0.0 and t_m == 1.0
    ok = worst_t == 0.0 and worst_anti < 1e-14 and matched
    announce(
        5,
        ok,
        f"Fresnel identities on 10^3 grid: worst |T-(1+R)| {worst_t:.3g} "
        f"(machine precision), worst antisymmetry {worst_anti:.3g}, "
        f"matched media (0, 1): {matched}",
    )


def test_criterion_6_quadrature_robustness(announce):
    base = QuadratureSpec(rule="fixed")
    alpha_max = base.resolve_alpha_max(COIL)
    fine = QuadratureSpec(
        alpha_max=2.0 * alpha_max, n_panels=4 * base.n_panels, rule="fixed"
    )
    worst = 0.0
    for plate in (COPPER, BRASS, ALUMINIUM, ALU_EQUIVALENT):
        for f in (1e3, 50e3, 500e3):
            a = delta_L(COIL, plate, 2 * np.pi * f, base)
            b = delta_L(COIL, plate, 2 * np.pi * f, fine)
            worst = max(worst, abs(a - b) / abs(b))
    oracle = filament_stack_mutual(COIL, n=25)
    air = delta_L_air(COIL, QuadratureSpec())
    air_err = abs(air - oracle) / oracle
    ok = worst < 1e-6 and air_err < 0.02
    announce(
        6,
        ok,
        f"self-convergence (2x alpha_max, 4x steps per decade) worst rel {worst:.3g} < 1e-6; "
        f"delta_L_air vs Neumann filament oracle {air_err:.4%} <= 2%",
    )


def test_criterion_7_thin_limit_consistency(announce):
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 60)
    worst = 0.0
    for d_alpha in (1e-4, 1e-3, 1e-2):
        for sigma in (1e6, 16.744e6, 36.9e6, 59.8e6):
            plate = Plate(sigma, d_alpha / A0)
            ex = normalized_response_exact(A0, omegas, plate)
            th = normalized_response_thin(A0, omegas, plate)
            rel = np.abs(ex - th) / np.maximum(np.abs(ex), np.abs(th))
            worst = max(worst, float(np.max(rel)))
    announce(
        7,
        worst <= 0.01,
        f"thin vs exact for D*alpha0 <= 1e-2 over 10 Hz-1 MHz: "
        f"worst rel {worst:.4%} <= 1%",
    )


def test_criterion_8_inversion_round_trip(announce):
    freqs = np.geomspace(10.0, 1e6, 50)
    omegas = 2 * np.pi * freqs
    sigma_d = 33488.0
    c = 1j * omegas * MU_0 * sigma_d / (2.0 * A0)
    clean = -c / (1.0 + c)

    def spectrum(values):
        return InductanceSpectrum(
            frequencies=freqs,
            delta_L=values,
            normalized=True,
            model_tag="synthetic",
            metadata={},
        )

    noiseless_err = abs(fit_sigma_d(spectrum(clean), A0).sigma_d - sigma_d) / sigma_d

    worst_noisy = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        noisy = clean * (1.0 + 0.01 * g / np.sqrt(2.0))
        fit = fit_sigma_d(spectrum(noisy), A0)
        worst_noisy = max(worst_noisy, abs(fit.sigma_d - sigma_d) / sigma_d)

    # objective gradient g = 2 J^T r vs central finite differences
    from eddyplate.analysis import _thin_slope
    from eddyplate.thin_plate import _thin_response

    theta = sigma_d * 1.05  # near but not at the optimum
    resid = _thin_response(A0, omegas, theta) - clean
    jac = _thin_slope(1j * omegas * MU_0 / (2.0 * A0), theta)
    grad = 2.0 * float(np.sum(jac.real * resid.real + jac.imag * resid.imag))
    h = theta * 1e-6

    def cost(p):
        d = _thin_response(A0, omegas, p) - clean
        return float(np.sum(d.real**2 + d.imag**2))

    grad_fd = (cost(theta + h) - cost(theta - h)) / (2.0 * h)
    grad_err = abs(grad - grad_fd) / abs(grad_fd)

    ok = noiseless_err <= 1e-6 and worst_noisy <= 0.01 and grad_err <= 1e-6
    announce(
        8,
        ok,
        f"sigma*D round trip: noiseless rel {noiseless_err:.3g} <= 1e-6; "
        f"1% noise over 100 seeds worst {worst_noisy:.4%} <= 1%; "
        f"gradient vs central FD rel {grad_err:.3g} <= 1e-6",
    )


def test_criterion_9_out_of_scope_declaration(announce):
    # Measured hardware curves, FEM mesh studies, and curved-plate spectra
    # are not reproducible here; their equivalence-transform arithmetic is.
    from eddyplate import equivalent_plate, equivalent_thickness

    brass_eq = equivalent_plate(COPPER, 2.00e-3)
    bent = equivalent_thickness(Plate(59.8e6, 20e-6), 17.3e6)
    ok = (
        abs(brass_eq.conductivity - 16.744e6) / 16.744e6 < 1e-12
        and abs(bent.thickness - 69.13e-6) / 69.13e-6 < 1e-3
    )
    announce(
        9,
        ok,
        "measured/FEM/curved-plate curves declared out of scope; covered "
        f"equivalence arithmetic: {brass_eq.conductivity/1e6:.3f} MS/m "
        f"(16.744 expected), {bent.thickness*1e6:.2f} um (69.13 expected)",
    )
