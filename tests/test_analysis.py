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
    derive_alpha0,
    fit_sigma_d,
    sweep,
)
from eddyplate.analysis import SweepError, initial_sigma_d

COIL = default_sensor()
A0 = derive_alpha0(COIL)

pytestmark = pytest.mark.filterwarnings("ignore::eddyplate.thin_plate.ThinRegimeWarning")


def synthetic_spectrum(sigma_d, alpha0, freqs, noise=0.0, seed=None):
    omegas = 2 * np.pi * freqs
    c = 1j * omegas * MU_0 * sigma_d / (2.0 * alpha0)
    values = -c / (1.0 + c)
    if noise:
        # multiplicative complex noise with total std `noise`
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        values = values * (1.0 + noise * g / np.sqrt(2.0))
    return InductanceSpectrum(
        frequencies=freqs,
        delta_L=values,
        normalized=True,
        model_tag="synthetic",
        metadata={},
    )


# ---------------------------------------------------------------- sweep


def test_sweep_thin_plate_matches_direct_call():
    from eddyplate import normalized_response_thin

    spec = SweepSpec(1e3, 500e3, 20)
    s = sweep("thin_plate", COIL, Plate(36.9e6, 20e-6), spec)
    assert s.normalized is True
    assert s.model_tag == "thin_plate"
    assert s.metadata["alpha0"] == pytest.approx(A0)
    omegas = 2 * np.pi * s.frequencies
    direct = normalized_response_thin(A0, omegas, Plate(36.9e6, 20e-6))
    assert np.array_equal(s.delta_L, direct)


def test_sweep_thin_plate_exact_model_tag():
    spec = SweepSpec(1e3, 500e3, 5)
    s = sweep("thin_plate_exact", COIL, Plate(36.9e6, 20e-6), spec)
    assert s.model_tag == "thin_plate_exact"
    assert s.normalized is True


def test_sweep_alpha0_override():
    spec = SweepSpec(1e3, 500e3, 5)
    s = sweep("thin_plate", COIL, Plate(36.9e6, 20e-6), spec, alpha0=500.0)
    assert s.metadata["alpha0"] == 500.0
    for bad in (np.nan, np.inf, 0.0, -166.67):
        for model in ("thin_plate", "thin_plate_exact", "dodd_deeds"):
            with pytest.raises(ValueError, match="alpha0"):
                sweep(model, COIL, Plate(36.9e6, 20e-6), spec, alpha0=bad)


def test_sweep_dodd_deeds_single_point_consistency():
    from eddyplate import delta_L

    spec = SweepSpec(50e3, 50e3, 1, spacing="linear")
    quad = QuadratureSpec()
    s = sweep("dodd_deeds", COIL, Plate(59.8e6, 0.56e-3), spec, quad=quad)
    assert s.normalized is False
    assert s.delta_L[0] == delta_L(COIL, Plate(59.8e6, 0.56e-3), 2 * np.pi * 50e3, quad)


def test_sweep_unknown_model():
    with pytest.raises(ValueError):
        sweep("fem", COIL, Plate(1e6, 1e-3), SweepSpec(1e3, 1e4, 3))


def test_sweep_error_names_frequency():
    quad = QuadratureSpec(n_panels=8, rel_tolerance=1e-16)
    spec = SweepSpec(10.0, 20.0, 2)
    with pytest.raises(SweepError, match="f = 10"):
        sweep("dodd_deeds", COIL, Plate(59.8e6, 0.56e-3), spec, quad=quad)


# ---------------------------------------------------------------- compare


def test_compare_identical_is_zero():
    freqs = np.geomspace(1e3, 5e5, 30)
    s = synthetic_spectrum(33488.0, A0, freqs)
    report = compare(s, s)
    assert report.max_rel_error == 0.0
    assert report.n_excluded == 0
    assert report.max_rel_error_band == (freqs[0], freqs[-1])


def test_compare_band_restriction():
    freqs = np.geomspace(1e3, 5e5, 30)
    a = synthetic_spectrum(33488.0, A0, freqs)
    b = synthetic_spectrum(33488.0 * 1.02, A0, freqs)
    full = compare(a, b)
    banded = compare(a, b, band=(1e5, 5e5))
    assert banded.band_filter == (1e5, 5e5)
    assert banded.max_rel_error <= full.max_rel_error
    # per-frequency errors are reported over the whole grid regardless of band
    assert banded.per_frequency_rel_error.shape == freqs.shape


def test_compare_normalization_uses_first_argument():
    freqs = np.geomspace(1e3, 5e5, 10)
    a = synthetic_spectrum(33488.0, A0, freqs)
    b = synthetic_spectrum(33000.0, A0, freqs)
    fwd = compare(a, b)
    rev = compare(b, a)
    # same difference, different denominator -> close but not equal
    assert fwd.max_rel_error != rev.max_rel_error
    assert fwd.max_rel_error == pytest.approx(rev.max_rel_error, rel=0.05)


def test_compare_rejects_grid_mismatch():
    a = synthetic_spectrum(1e3, A0, np.geomspace(1e3, 1e5, 10))
    b = synthetic_spectrum(1e3, A0, np.geomspace(2e3, 1e5, 10))
    with pytest.raises(ValueError, match="grids"):
        compare(a, b)


def test_compare_rejects_flag_mismatch():
    freqs = np.geomspace(1e3, 1e5, 10)
    a = synthetic_spectrum(1e3, A0, freqs)
    b = synthetic_spectrum(1e3, A0, freqs)
    b.normalized = False
    with pytest.raises(ValueError, match="normalized"):
        compare(a, b)


def test_compare_near_zero_guard_counts_exclusions():
    freqs = np.geomspace(1e3, 1e5, 10)
    a = synthetic_spectrum(1e3, A0, freqs)
    b = synthetic_spectrum(1e3, A0, freqs)
    # force the two lowest reference magnitudes below the 1e-3 peak fraction
    a.delta_L[:2] = 1e-9 * np.max(np.abs(a.delta_L))
    report = compare(a, b)
    assert report.n_excluded == 2
    assert np.isnan(report.per_frequency_rel_error[0])
    assert np.isfinite(report.per_frequency_rel_error[2])


# ---------------------------------------------------------------- fit


def test_initial_guess_within_factor_two():
    # the slope heuristic needs the first grid point in the linear regime
    freqs = np.geomspace(10.0, 1e6, 40)
    for sigma_d in (1e2, 1e3, 33488.0, 1e5):
        s = synthetic_spectrum(sigma_d, A0, freqs)
        guess = initial_sigma_d(s, A0)
        assert 0.5 < guess / sigma_d < 2.0


def test_fit_noiseless_recovers_sigma_d():
    freqs = np.geomspace(1e3, 5e5, 40)
    for sigma_d in (738.0, 33488.0):
        s = synthetic_spectrum(sigma_d, A0, freqs)
        fit = fit_sigma_d(s, A0)
        assert fit.converged
        assert abs(fit.sigma_d - sigma_d) / sigma_d < 1e-6
        assert fit.residual_norm < 1e-9


def test_fit_noisy_one_percent_over_seeds():
    freqs = np.geomspace(10.0, 1e6, 50)
    sigma_d = 33488.0
    worst = 0.0
    for seed in range(100):
        s = synthetic_spectrum(sigma_d, A0, freqs, noise=0.01, seed=seed)
        fit = fit_sigma_d(s, A0)
        assert fit.converged
        worst = max(worst, abs(fit.sigma_d - sigma_d) / sigma_d)
    assert worst < 0.01


def test_fit_with_alpha0_round_trip():
    freqs = np.geomspace(1e3, 5e5, 40)
    s = synthetic_spectrum(33488.0, A0, freqs)
    fit = fit_sigma_d(s, A0, fit_alpha0=True)
    assert fit.converged
    assert fit.alpha0_fit == pytest.approx(A0, rel=1e-6)
    assert fit.sigma_d == pytest.approx(33488.0, rel=1e-6)


def test_fit_jacobian_matches_finite_differences():
    from eddyplate.analysis import _thin_model, _thin_model_jacobian

    omegas = 2 * np.pi * np.geomspace(1e3, 5e5, 7)
    sigma_d, alpha0 = 33488.0, A0
    jac = _thin_model_jacobian(omegas, sigma_d, alpha0, fit_alpha0=True)
    h_s = sigma_d * 1e-6
    fd_s = (_thin_model(omegas, sigma_d + h_s, alpha0) - _thin_model(omegas, sigma_d - h_s, alpha0)) / (2 * h_s)
    h_a = alpha0 * 1e-6
    fd_a = (_thin_model(omegas, sigma_d, alpha0 + h_a) - _thin_model(omegas, sigma_d, alpha0 - h_a)) / (2 * h_a)
    assert np.allclose(jac[:, 0], fd_s, rtol=1e-6)
    assert np.allclose(jac[:, 1], fd_a, rtol=1e-6)


def test_fit_residual_increases_for_corrupted_data():
    freqs = np.geomspace(1e3, 5e5, 40)
    clean = synthetic_spectrum(33488.0, A0, freqs)
    corrupted = synthetic_spectrum(33488.0, A0, freqs)
    corrupted.delta_L = corrupted.delta_L * np.exp(0.2j)  # phase no model reaches
    fit_clean = fit_sigma_d(clean, A0)
    fit_bad = fit_sigma_d(corrupted, A0)
    assert fit_bad.residual_norm > 100 * max(fit_clean.residual_norm, 1e-12)


def test_fit_rejects_bad_inputs():
    freqs = np.geomspace(1e3, 5e5, 10)
    absolute = synthetic_spectrum(33488.0, A0, freqs)
    absolute.normalized = False
    with pytest.raises(ValueError):
        fit_sigma_d(absolute, A0)

    short = synthetic_spectrum(33488.0, A0, np.array([1e3, 2e3]))
    with pytest.raises(ValueError):
        fit_sigma_d(short, A0)

    zero = synthetic_spectrum(33488.0, A0, freqs)
    zero.delta_L = np.zeros_like(zero.delta_L)
    with pytest.raises(ValueError):
        fit_sigma_d(zero, A0)

    good = synthetic_spectrum(33488.0, A0, freqs)
    for bad in (np.nan, np.inf, 0.0, -A0):
        with pytest.raises(ValueError, match="alpha0"):
            fit_sigma_d(good, bad)
