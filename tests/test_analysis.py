import dataclasses
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
from eddyplate.analysis import NEAR_ZERO_FRACTION, _linear_start, _thin_slope
from eddyplate.model import RANGES
from eddyplate.thin_plate import _thin_response

COIL = default_sensor()
ALPHA_MIN, ALPHA_MAX, _ = RANGES["spatial_frequency"]
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
    b = dataclasses.replace(synthetic_spectrum(1e3, A0, freqs), normalized=False)
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
    b = synthetic_spectrum(1e3, A0, freqs)
    # force the two lowest reference magnitudes below the 1e-3 peak fraction
    values = b.delta_L.copy()
    values[:2] = 1e-9 * np.max(np.abs(values))
    a = dataclasses.replace(b, delta_L=values)
    report = compare(a, b)
    assert report.n_excluded == 2
    assert np.isnan(report.per_frequency_rel_error[0])
    assert np.isfinite(report.per_frequency_rel_error[2])


def test_compare_zero_reference_excludes_every_row():
    # A sigma = 0 plate's delta-L is exactly 0 at every frequency: no row is
    # compared, every row is counted, no 0 / 0 warns, and the maximum is nan.
    spec = SweepSpec(1e3, 1e5, 10)
    zero = sweep("thin_plate", COIL, Plate(0.0, 20e-6), spec)
    assert not zero.delta_L.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(zero, sweep("thin_plate", COIL, Plate(1e6, 20e-6), spec))
    assert np.isnan(report.max_rel_error)
    assert np.isnan(report.per_frequency_rel_error).all()
    assert report.n_excluded == spec.n_points
    # Every row compared, each ratio past the largest double: the maximum is
    # inf, not nan as if no row were compared.
    a = InductanceSpectrum([1.0, 2.0, 3.0], [1e-10] * 3, True, "synthetic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(a, dataclasses.replace(a, delta_L=[1e300] * 3))
    assert report.per_frequency_rel_error.tolist() == [np.inf] * 3
    assert report.max_rel_error == np.inf and report.n_excluded == 0


def test_compare_difference_overflow_is_scaled():
    # |a - b| = 2.8e308 overflowed to inf, with a warning, and the report
    # read nan; on both spectra scaled by 1/4 the ratio is 2.
    a = InductanceSpectrum([1.0, 2.0], [1e308 + 1e308j, 1 + 1j], True, "synthetic")
    b = InductanceSpectrum([1.0, 2.0], [-1e308 - 1e308j, 1 + 1j], True, "synthetic")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(a, b)
    assert report.max_rel_error == 2.0
    assert report.per_frequency_rel_error[0] == 2.0 and np.isnan(report.per_frequency_rel_error[1])
    assert report.n_excluded == 1
    # Only the row with a part past 2^1021 is scaled: the other row's
    # subnormal difference keeps its bits (scaled, it read 1.235e-320).
    a = InductanceSpectrum([1.0, 2.0], [1.0, 1.0], True, "synthetic")
    b = dataclasses.replace(a, delta_L=[1e308, 1 + 1.2345e-320j])
    assert compare(a, b).per_frequency_rel_error.tolist() == [1e308, 1.2345e-320]


def test_compare_modulus_overflow_is_scaled():
    # |1.7e308 + 1.7e308j| overflowed to inf, so a row of 1e308 lay below
    # 1e-3 of the peak and was excluded; scaled, both rows are compared.
    a = InductanceSpectrum([1.0, 2.0], [1.7e308 + 1.7e308j, 1e308], True, "synthetic")
    b = dataclasses.replace(a, delta_L=a.delta_L * 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = compare(a, b)
    assert report.n_excluded == 0
    assert report.per_frequency_rel_error.tolist() == [0.5, 0.5]
    assert report.max_rel_error == 0.5
    # The near-zero test takes a scaled and an unscaled row on one scale:
    # 1e304 lies below 1e-3 of 3e307, which alone is past 2^1021.
    a = InductanceSpectrum([1.0, 2.0], [3e307, 1e304], True, "synthetic")
    report = compare(a, dataclasses.replace(a, delta_L=a.delta_L * 0.5))
    assert report.n_excluded == 1 and report.per_frequency_rel_error[0] == 0.5


def test_compare_unscaled_reports_keep_their_bits():
    # Below 2^1021 nothing is scaled, and past it a quarter changes no ratio
    # of normal parts: each ratio is |a - b| / |a| as numpy computes it.
    freqs = np.geomspace(1e3, 5e5, 30)
    a, b = synthetic_spectrum(33488.0, A0, freqs), synthetic_spectrum(33000.0, A0, freqs, 0.01, 3)
    pairs = [(a, b)]
    rng = np.random.default_rng(35)
    for _ in range(20):
        # parts log-uniform from 1e-300 to 1e300, of either sign
        parts = 10.0 ** rng.uniform(-300.0, 300.0, (2, 8, 2)) * rng.choice([-1.0, 1.0], (2, 8, 2))
        a_parts, b_parts = parts.view(complex)[..., 0]
        pairs.append(tuple(InductanceSpectrum(freqs[:8], x, True, "synthetic") for x in (a_parts, b_parts)))
    # a part of 2^1021 and beyond, with |a| and |a - b| still finite: scaled
    huge = InductanceSpectrum([1.0, 2.0], [2.0**1021 + 1e307j, -3e307 + 5e306j], True, "synthetic")
    pairs.append((huge, dataclasses.replace(huge, delta_L=[1e300 - 2e307j, -3.5e307])))
    for a, b in pairs:
        with np.errstate(over="ignore"):  # a ratio past the largest double is inf
            expected = np.abs(a.delta_L - b.delta_L) / np.abs(a.delta_L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = compare(a, b)
        mag = np.abs(a.delta_L)
        usable = mag >= NEAR_ZERO_FRACTION * mag.max()
        assert np.array_equal(np.isnan(report.per_frequency_rel_error), ~usable)
        assert report.per_frequency_rel_error[usable].tobytes() == expected[usable].tobytes()
        assert report.max_rel_error == expected[usable].max()


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
    corrupted = dataclasses.replace(clean, delta_L=clean.delta_L * np.exp(0.2j))  # phase no model reaches
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
    absolute = dataclasses.replace(synthetic_spectrum(33488.0, A0, freqs), normalized=False)
    with pytest.raises(ValueError):
        fit_sigma_d(absolute, A0)

    short = synthetic_spectrum(33488.0, A0, np.array([1e3, 2e3]))
    with pytest.raises(ValueError):
        fit_sigma_d(short, A0)

    zero = dataclasses.replace(synthetic_spectrum(33488.0, A0, freqs), delta_L=np.zeros(freqs.size))
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


def _bits(fit):
    """Each field of a SigmaDFit, every float (in history too) as its hex form."""

    def hexed(value):
        return value.hex() if isinstance(value, float) else value

    return [[hexed(v) for v in f] if isinstance(f, list) else hexed(f) for f in dataclasses.astuple(fit)]


def test_fit_takes_alpha0_from_the_spectrum():
    # Without an alpha0 the fit runs at the spectrum's own, to the same bits.
    assert COPPER_THIN.metadata["alpha0"] == A0
    assert _bits(fit_sigma_d(COPPER_THIN)) == _bits(fit_sigma_d(COPPER_THIN, COPPER_THIN.metadata["alpha0"]))
    assert _bits(fit_sigma_d(COPPER_THIN, 2 * A0)) != _bits(fit_sigma_d(COPPER_THIN))


def test_fit_without_alpha0_names_it():
    bare = dataclasses.replace(COPPER_THIN, metadata={})
    with pytest.raises(ValueError, match="^alpha0 required: none given and none in the spectrum's metadata$"):
        fit_sigma_d(bare)
    # an absolute spectrum is refused for that first, with or without alpha0
    for alpha0 in (None, 1e-300):
        with pytest.raises(ValueError, match="normalized"):
            fit_sigma_d(dataclasses.replace(bare, normalized=False), alpha0)


@pytest.mark.parametrize("alpha0", [1e-306, 1e-200, 1e-160, 1e160, 1e200])
def test_fit_rejects_alpha0_out_of_range(alpha0):
    # alpha0's range in model.RANGES, 1e-9 to 1e15 1/m, refuses these; the
    # fit once refused them only where (omega mu0 / (2 alpha0))^2 was not a
    # normal number, below about 1.5e-154 or above about 2.6e151 1/m here
    message = rf"^alpha0 must be from 1e-09 to 1e\+15 1/m, got {re.escape(repr(alpha0))} 1/m$"
    with pytest.raises(ValueError, match=message):
        fit_sigma_d(COPPER_THIN, alpha0)


@pytest.mark.parametrize("freq", [-5.0, 0.0])
def test_fit_spectrum_rejects_frequencies_not_above_zero(freq):
    # The copper spectrum with one row prepended: the spectrum refuses the
    # row, so the fit neither uses it nor blames alpha0 for it.
    with pytest.raises(ValueError, match=rf"^freq_hz must be from .* got {freq!r} Hz$"):
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
        for alpha0 in (ALPHA_MIN, 1e-3, 1.0, 1e8, ALPHA_MAX):
            fit = fit_sigma_d(COPPER_THIN, alpha0)
            assert fit.converged
            ratios.append(fit.sigma_d / alpha0)
    np.testing.assert_allclose(ratios, fit_sigma_d(COPPER_THIN, A0).sigma_d / A0, rtol=1e-12)
