import warnings

import numpy as np
import pytest

from eddyplate import (
    MU_0,
    Plate,
    equivalent_plate,
    equivalent_thickness,
    normalized_response_exact,
    normalized_response_thin,
)
from eddyplate.thin_plate import ThinRegimeWarning

A0 = 1.0 / 0.006
FREQS = np.geomspace(10.0, 1e6, 60)

# Several tests deliberately evaluate thick plates with the thin model.
pytestmark = pytest.mark.filterwarnings("ignore::eddyplate.thin_plate.ThinRegimeWarning")


def test_zero_conductivity_gives_zero():
    plate = Plate(0.0, 1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinRegimeWarning)
        assert normalized_response_exact(A0, 2 * np.pi * 1e5, plate) == 0.0
        assert normalized_response_thin(A0, 2 * np.pi * 1e5, plate) == 0.0


def test_thin_depends_only_on_sigma_d_bitwise():
    """Power-of-two rescalings keep sigma*D bitwise equal in floats."""
    rng = np.random.default_rng(3)
    omegas = 2 * np.pi * np.geomspace(10, 1e6, 20)
    for _ in range(100):
        sigma = rng.uniform(1e5, 6e7)
        d = 10 ** rng.uniform(-6, -4)
        scale = 2.0 ** rng.integers(-6, 7)
        p1 = Plate(sigma, d)
        p2 = Plate(sigma * scale, d / scale)
        assert p1.sigma_thickness_product == p2.sigma_thickness_product
        v1 = normalized_response_thin(A0, omegas, p1)
        v2 = normalized_response_thin(A0, omegas, p2)
        assert np.all(v1 == v2)


def test_equal_sigma_d_paper_pair_identical():
    # 59.8 MS/m * 0.56 mm vs 16.744 MS/m * 2.00 mm: products match to a few
    # ulp but not bitwise, so the thin responses match to machine precision.
    cu = Plate(59.8e6, 0.56e-3)
    br = Plate(16.744e6, 2.00e-3)
    omegas = 2 * np.pi * FREQS
    v1 = normalized_response_thin(A0, omegas, cu)
    v2 = normalized_response_thin(A0, omegas, br)
    assert np.allclose(v1, v2, rtol=1e-12)


def test_thin_matches_exact_in_regime():
    """Symmetric relative deviation stays below D*alpha0 + O((D*alpha0)^2)."""
    omegas = 2 * np.pi * FREQS
    for d_alpha in (1e-3, 3e-3, 1e-2):
        for sigma in (1e6, 36.9e6, 60e6):
            plate = Plate(sigma, d_alpha / A0)
            ex = normalized_response_exact(A0, omegas, plate)
            th = normalized_response_thin(A0, omegas, plate)
            rel = np.abs(ex - th) / np.maximum(np.abs(ex), np.abs(th))
            assert np.max(rel) < 1.01 * d_alpha


def test_thin_vs_exact_aluminium_one_percent():
    plate = Plate(36.9e6, 20e-6)  # D*alpha0 = 3.3e-3
    omegas = 2 * np.pi * FREQS
    ex = normalized_response_exact(A0, omegas, plate)
    th = normalized_response_thin(A0, omegas, plate)
    assert np.max(np.abs(ex - th) / np.abs(ex)) < 0.01


def test_exact_half_space_limit():
    from eddyplate import fresnel, wavenumber

    omega = 2 * np.pi * 100e3
    thick = Plate(59.8e6, 1.0)
    k1 = wavenumber(A0, omega, 0.0, MU_0)
    k2 = wavenumber(A0, omega, 59.8e6, MU_0)
    assert normalized_response_exact(A0, omega, thick) == pytest.approx(
        fresnel(k1, k2, MU_0, MU_0).reflection, rel=1e-12
    )


def test_high_frequency_screening_limit():
    plate = Plate(36.9e6, 20e-6)
    value = normalized_response_thin(A0, 2 * np.pi * 1e12, plate)
    assert value == pytest.approx(-1.0, abs=1e-4)


def test_low_frequency_slope():
    plate = Plate(36.9e6, 20e-6)
    omega = 2 * np.pi * 1.0
    value = normalized_response_thin(A0, omega, plate)
    expected = -1j * omega * MU_0 * plate.sigma_thickness_product / (2 * A0)
    assert value.imag == pytest.approx(expected.imag, rel=1e-6)
    assert abs(value.real) < abs(value.imag) * 1e-4


def test_thin_limit_ratio_to_one():
    """Fixed sigma, D -> 0: exact / thin -> 1."""
    sigma = 36.9e6
    omega = 2 * np.pi * 100e3
    prev = None
    for d in (1e-4, 1e-5, 1e-6, 1e-7):
        plate = Plate(sigma, d)
        ratio = normalized_response_exact(A0, omega, plate) / normalized_response_thin(
            A0, omega, plate
        )
        err = abs(ratio - 1.0)
        if prev is not None:
            assert err < 0.2 * prev  # first-order convergence in D
        prev = err
    assert prev < 1e-4


def test_thin_regime_warning():
    fat = Plate(16.744e6, 2.0e-3)  # D*alpha0 = 0.33
    with pytest.warns(ThinRegimeWarning):
        normalized_response_thin(A0, 2 * np.pi * 1e5, fat)
    slim = Plate(36.9e6, 20e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        normalized_response_thin(A0, 2 * np.pi * 1e5, slim)


def test_magnetic_plate_rejected():
    magnetic = Plate(1e6, 1e-4, relative_permeability=100.0)
    with pytest.raises(ValueError):
        normalized_response_thin(A0, 2 * np.pi * 1e5, magnetic)
    with pytest.raises(ValueError):
        normalized_response_exact(A0, 2 * np.pi * 1e5, magnetic)
    with pytest.raises(ValueError):
        equivalent_plate(magnetic, 1e-3)


def test_equivalent_plate_copper_to_brass():
    result = equivalent_plate(Plate(59.8e6, 0.56e-3), 2.00e-3)
    assert result.conductivity == pytest.approx(16.744e6, rel=1e-12)
    assert result.sigma_thickness_product == pytest.approx(33488.0, rel=1e-12)


def test_equivalent_plate_aluminium():
    result = equivalent_plate(Plate(36.9e6, 20e-6), 55e-6)
    assert result.conductivity == pytest.approx(13.418181818181818e6, rel=1e-12)


def test_equivalent_thickness_bent_copper():
    result = equivalent_thickness(Plate(59.8e6, 20e-6), 17.3e6)
    assert result.thickness == pytest.approx(69.13e-6, rel=1e-3)


def test_equivalence_identity_transforms():
    plate = Plate(59.8e6, 0.56e-3)
    assert equivalent_plate(plate, plate.thickness) == plate
    assert equivalent_thickness(plate, plate.conductivity) == plate


def test_equivalence_round_trip():
    plate = Plate(36.9e6, 20e-6)
    via = equivalent_plate(plate, 55e-6)
    back = equivalent_thickness(via, plate.conductivity)
    assert back.conductivity == plate.conductivity
    assert back.thickness == pytest.approx(plate.thickness, rel=1e-14)
    assert back.sigma_thickness_product == pytest.approx(
        plate.sigma_thickness_product, rel=1e-14
    )


def test_equivalence_rejects_bad_targets():
    plate = Plate(36.9e6, 20e-6)
    with pytest.raises(ValueError):
        equivalent_plate(plate, 0.0)
    with pytest.raises(ValueError):
        equivalent_thickness(plate, -1.0)
