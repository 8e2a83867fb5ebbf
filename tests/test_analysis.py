import re
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
    derive_alpha0,
    dodd_deeds,
    fit_sigma_d,
    sweep,
    thin_plate,
)
from eddyplate.analysis import _linear_start, _thin_slope
from eddyplate.thin_plate import _thin_response

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


def test_sweep_calls_the_thin_model_through_its_module(monkeypatch):
    # A wrapper bound in the module, as a profiler installs one, sees every call.
    from eddyplate import thin_plate

    calls = []
    model = thin_plate.normalized_response_thin

    def counting(*args):
        calls.append(args)
        return model(*args)

    monkeypatch.setattr(thin_plate, "normalized_response_thin", counting)
    for n in (1, 2):
        sweep("thin_plate", COIL, Plate(36.9e6, 20e-6), SweepSpec(1e3, 500e3, 5))
        assert len(calls) == n


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


@pytest.mark.parametrize("model", ["thin_plate", "thin_plate_exact"])
def test_sweep_rejects_alpha0_where_c_overflows(model):
    # c = j omega mu0 sigma D / (2 alpha0) of the thin model overflowed on
    # copper from 1 kHz at 1e-320 and from 1463 Hz at 1e-306, and the exact
    # bracket left the reflection's domain above mu_r alpha0 = 1e75: alpha0's
    # range, 1e-9 to 1e15 1/m, refuses them all, and one float beyond it.
    # At its ends every value is finite, with no numpy warning.
    plate, spec = Plate(59.8e6, 0.56e-3), SweepSpec(1e3, 5e5, 50)
    for alpha0 in (1e-320, 1e-306, np.nextafter(1e-9, 0.0), np.nextafter(1e15, np.inf), 1e76, 1e160):
        message = f"alpha0 must be from 1e-09 to 1e+15 1/m, got {float(alpha0)!r} 1/m"
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(model, COIL, plate, spec, alpha0=alpha0)
    for alpha0 in (1e-9, 1e15):
        assert np.all(np.isfinite(sweep(model, COIL, plate, spec, alpha0=alpha0).delta_L))


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


def test_sweep_error_names_frequency(monkeypatch):
    # One halving, 8 -> 16 steps per decade (|T_h - T_2h| about 1.6e-6, then
    # 6e-11): no frequency converges.
    monkeypatch.setattr(dodd_deeds, "_MAX_REFINEMENTS", 1)
    quad = QuadratureSpec(n_panels=8, rel_tolerance=1e-16)
    spec = SweepSpec(10.0, 20.0, 2)
    with pytest.raises(dodd_deeds.QuadratureConvergenceError, match="f = 10"):
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


def test_compare_rejects_empty_spectra():
    # no spectrum has zero frequencies, so compare never meets one
    with pytest.raises(ValueError, match="at least one frequency"):
        InductanceSpectrum([], [], normalized=True, model_tag="synthetic")


@pytest.mark.parametrize("band", [(5e4, 2e4), (np.nan, 1e5), (1e3, np.inf), (-np.inf, 1e5)])
def test_compare_rejects_bad_band(band):
    s = synthetic_spectrum(1e3, A0, np.geomspace(1e3, 1e5, 10))
    with pytest.raises(ValueError, match="band must be finite"):
        compare(s, s, band=band)
    assert np.isnan(compare(s, s, band=(2.0, 2.0)).max_rel_error)  # empty, but valid


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


def test_linear_start_exact_on_noiseless_spectra():
    # the grid starts where c is no longer small, so the spectrum is far from
    # linear in omega; s = -u sigma_d (1 + s) still holds exactly
    freqs = np.geomspace(1e5, 1e6, 40)
    u = 1j * 2 * np.pi * freqs * MU_0 / (2.0 * A0)
    for sigma_d in (1e2, 1e3, 33488.0, 1e5):
        s = synthetic_spectrum(sigma_d, A0, freqs)
        assert abs(_linear_start(u, s.delta_L) - sigma_d) / sigma_d <= 1e-12


def test_fit_noiseless_recovers_sigma_d():
    freqs = np.geomspace(1e3, 5e5, 40)
    for sigma_d in (738.0, 33488.0):
        s = synthetic_spectrum(sigma_d, A0, freqs)
        fit = fit_sigma_d(s, A0)
        assert fit.converged
        assert abs(fit.sigma_d - sigma_d) / sigma_d < 1e-6
        assert fit.residual_norm < 1e-9


def _count_misfits(monkeypatch):
    """A list that grows by one at each misfit evaluation of the fit."""
    calls = []
    response = thin_plate._thin_response

    def counted(*args):
        calls.append(None)
        return response(*args)

    monkeypatch.setattr(thin_plate, "_thin_response", counted)
    return calls


def test_fit_noisy_one_percent_over_seeds(monkeypatch):
    freqs = np.geomspace(10.0, 1e6, 50)
    sigma_d = 33488.0
    fits = []
    calls = _count_misfits(monkeypatch)
    for seed in range(100):
        s = synthetic_spectrum(sigma_d, A0, freqs, noise=0.01, seed=seed)
        calls.clear()
        fit = fit_sigma_d(s, A0)
        assert fit.converged
        assert len(calls) <= 8, seed  # no line search runs out its halvings
        fits.append(fit)
    fitted = np.array([f.sigma_d for f in fits])
    assert np.max(np.abs(fitted - sigma_d)) / sigma_d < 0.01
    # the reported standard error matches the spread it predicts
    reported = np.median([f.sigma_d_std for f in fits])
    assert abs(reported / np.std(fitted, ddof=1) - 1.0) < 0.1


def test_fit_jacobian_matches_finite_differences():
    omegas = 2 * np.pi * np.geomspace(1e3, 5e5, 7)
    u = 1j * omegas * MU_0 / (2.0 * A0)
    sigma_d = 33488.0
    h = sigma_d * 1e-6
    upper, lower = (_thin_response(A0, omegas, sigma_d + dx) for dx in (h, -h))
    assert np.allclose(_thin_slope(u, sigma_d), (upper - lower) / (2 * h), rtol=1e-6)


def test_fit_residual_increases_for_corrupted_data():
    freqs = np.geomspace(1e3, 5e5, 40)
    clean = synthetic_spectrum(33488.0, A0, freqs)
    corrupted = synthetic_spectrum(33488.0, A0, freqs)
    corrupted.delta_L = corrupted.delta_L * np.exp(0.2j)  # phase no model reaches
    fit_clean = fit_sigma_d(clean, A0)
    fit_bad = fit_sigma_d(corrupted, A0)
    assert fit_bad.residual_norm > 100 * max(fit_clean.residual_norm, 1e-12)


def test_fit_unconstrained_is_not_converged():
    # Data no sigma*D reaches: no step lowers the cost from the linear
    # start's 1 S fallback, and the standard error is infinite.
    huge = InductanceSpectrum([1.0, 2.0, 3.0], [1e150] * 3, True, "synthetic")
    fit = fit_sigma_d(huge, 200.0)
    assert fit.converged is False
    assert fit.sigma_d == 1.0 and fit.sigma_d_std == np.inf


def _relative_full_step(spectrum, alpha0, sigma_d):
    """The Gauss-Newton step from sigma_d, over sigma_d."""
    omegas = 2 * np.pi * spectrum.frequencies
    jac = _thin_slope(1j * omegas * MU_0 / (2.0 * alpha0), sigma_d)
    r = _thin_response(alpha0, omegas, sigma_d) - spectrum.delta_L
    return -np.vdot(jac, r).real / np.vdot(jac, jac).real / sigma_d


def test_fit_stalled_out_of_reach_is_not_converged():
    # From the 1 S fallback no step lowers the cost, which the full step
    # would lower by only 1e-14 of itself: as flat as at an optimum, but that
    # step is 2e20 S and the standard error finite.
    far = InductanceSpectrum([1.0, 2.0, 3.0], [1e20] * 3, True, "synthetic")
    fit = fit_sigma_d(far, 166.67)
    assert abs(_relative_full_step(far, 166.67, fit.sigma_d)) > 1e20
    assert fit.converged is False
    assert fit.sigma_d == 1.0 and fit.sigma_d_std < np.inf


def test_fit_stalled_by_round_off_is_converged(monkeypatch):
    # A plate and noise (1e-3 per part) of the CLI benchmark's round trip.
    # After one step no step lowers the cost, though the full step is
    # 1.1e-9 of sigma*D, over the step tolerance: round-off in the cost
    # hides that last digit, and the fit is at its optimum. The predicted
    # drop stops it there, before a line search.
    plate = Plate(55223501.766835175, 0.00020837952763270504)
    clean = sweep("thin_plate", COIL, plate, SweepSpec(10.0, 1e6, 50))
    noise = np.random.default_rng([1006, 2, 719]).normal(0.0, 1e-3, (2, 50))
    noisy = InductanceSpectrum(clean.frequencies, clean.delta_L + noise[0] + 1j * noise[1], True, "synthetic")
    calls = _count_misfits(monkeypatch)
    fit = fit_sigma_d(noisy, A0)
    assert len(calls) <= 2  # the start and one step, no futile halvings
    assert fit.iterations == len(fit.history) == 2  # the second iteration judged its step negligible
    assert 1e-9 < abs(_relative_full_step(noisy, A0, fit.sigma_d)) < 2e-9
    assert fit.converged


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

    # |data|^2 overflows: a nan cost would stop the search and read as converged
    huge = InductanceSpectrum([1.0, 2.0, 3.0], [1e200] * 3, True, "synthetic")
    with pytest.raises(ValueError, match="misfit overflows"):
        fit_sigma_d(huge, 200.0)

    good = synthetic_spectrum(33488.0, A0, freqs)
    for bad in (np.nan, np.inf, 0.0, -A0):
        with pytest.raises(ValueError, match="alpha0"):
            fit_sigma_d(good, bad)


# The thin_plate spectrum of copper_brass.ini's copper plate, at alpha0 = 166.67 1/m.
COPPER_THIN = sweep("thin_plate", COIL, Plate(59.8e6, 0.56e-3), SweepSpec(1e3, 5e5, 50))


@pytest.mark.parametrize("alpha0", [1e-306, 1e-200, 1e-160, 1e160, 1e200])
def test_fit_rejects_alpha0_out_of_range(alpha0):
    # (omega mu0 / (2 alpha0))^2 overflows at 500 kHz below about 1.5e-154 1/m
    # and is subnormal at 1 kHz above about 2.6e151 1/m
    alpha0_text = re.escape(f"{alpha0:.6g}")
    with pytest.raises(ValueError, match=rf"^alpha0 = {alpha0_text} 1/m: .* not a normal number"):
        fit_sigma_d(COPPER_THIN, alpha0)


@pytest.mark.parametrize("freq", [-5.0, 0.0])
def test_fit_spectrum_rejects_frequencies_not_above_zero(freq):
    # The copper spectrum with one row prepended: the spectrum refuses the
    # row, so the fit neither uses it nor blames alpha0 for it.
    with pytest.raises(ValueError, match="each finite and > 0"):
        InductanceSpectrum(
            np.insert(COPPER_THIN.frequencies, 0, freq),
            np.insert(COPPER_THIN.delta_L, 0, COPPER_THIN.delta_L[0]),
            normalized=True,
            model_tag="thin_plate",
        )


def test_fit_sigma_d_scales_with_alpha0():
    # The model depends on sigma*D / alpha0 only, across the admitted range.
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha0 in (1e-150, 1e-100, 1.0, 1e100, 1e150):
            fit = fit_sigma_d(COPPER_THIN, alpha0)
            assert fit.converged
            ratios.append(fit.sigma_d / alpha0)
    np.testing.assert_allclose(ratios, fit_sigma_d(COPPER_THIN, A0).sigma_d / A0, rtol=1e-12)
