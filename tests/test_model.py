import dataclasses

import numpy as np
import pytest

from eddyplate import (
    CoilPair,
    InductanceSpectrum,
    Plate,
    SweepSpec,
    default_sensor,
    derive_alpha0,
    frequency_grid,
    sweep,
)
from eddyplate.fileio import write_spectrum_csv


def test_default_sensor_geometry():
    coil = default_sensor()
    # diameters 12 / 12.63 mm stored as radii
    assert coil.inner_radius == pytest.approx(6.0e-3)
    assert coil.outer_radius == pytest.approx(6.315e-3)
    assert coil.coil_height == pytest.approx(8.0e-3)
    assert coil.gap == pytest.approx(2.0e-3)
    assert coil.liftoff == pytest.approx(1.0e-3)
    assert coil.turns_tx == 25 and coil.turns_rx == 25
    assert coil.drive_current == pytest.approx(10.0e-3)


def test_alpha0_default_sensor():
    # min(6 mm radius, 8 mm height) = 6 mm
    assert derive_alpha0(default_sensor()) == pytest.approx(1.0 / 0.006)


def test_alpha0_small_sensor():
    coil = CoilPair(
        inner_radius=0.2e-3,
        outer_radius=0.22e-3,
        coil_height=0.2e-3,
        gap=0.1e-3,
        liftoff=0.05e-3,
        turns_tx=10,
        turns_rx=10,
        drive_current=1e-3,
    )
    assert derive_alpha0(coil) == pytest.approx(5000.0)


def test_alpha0_scales_inversely_with_geometry():
    base = default_sensor()
    for c in (0.5, 2.0, 10.0):
        scaled = CoilPair(
            inner_radius=base.inner_radius * c,
            outer_radius=base.outer_radius * c,
            coil_height=base.coil_height * c,
            gap=base.gap * c,
            liftoff=base.liftoff * c,
            turns_tx=base.turns_tx,
            turns_rx=base.turns_rx,
            drive_current=base.drive_current,
        )
        assert derive_alpha0(scaled) == pytest.approx(derive_alpha0(base) / c)


def test_frequency_grid_logarithmic_three_points():
    grid = frequency_grid(SweepSpec(1e3, 500e3, 3))
    assert grid[0] == pytest.approx(1000.0)
    assert grid[1] == pytest.approx(np.sqrt(1e3 * 500e3))  # ~22360.68
    assert grid[2] == pytest.approx(500e3)


def test_frequency_grid_degenerate():
    grid = frequency_grid(SweepSpec(100.0, 100.0, 1, spacing="linear"))
    assert grid.tolist() == [100.0]
    for spacing in ("logarithmic", "linear"):  # bitwise the one frequency given
        grid = frequency_grid(SweepSpec(12345.678, 12345.678, 1, spacing=spacing))
        assert grid.tolist() == [12345.678], spacing


def test_frequency_grid_geometric_ratios():
    grid = frequency_grid(SweepSpec(10.0, 1e6, 5))
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])
    assert np.all(np.diff(grid) > 0)


def test_frequency_grid_endpoints_inclusive():
    for spacing in ("logarithmic", "linear"):
        grid = frequency_grid(SweepSpec(3.0, 7777.0, 13, spacing=spacing))
        assert grid[0] == pytest.approx(3.0)
        assert grid[-1] == pytest.approx(7777.0)


def test_frequency_grid_cached_read_only(tmp_path):
    # Every sweep of one spec shares the cached grid, so none may write into
    # it; the CSV it produces has the bytes of a freshly computed grid.
    spec = SweepSpec(10.0, 1e6, 7)
    assert frequency_grid(spec) is frequency_grid(SweepSpec(10.0, 1e6, 7))
    spectrum = sweep("thin_plate", default_sensor(), Plate(59.8e6, 0.56e-3), spec)
    with pytest.raises(ValueError, match="read-only"):
        spectrum.frequencies[0] = 1.0
    fresh = np.geomspace(spec.f_min, spec.f_max, spec.n_points)
    assert np.array_equal(frequency_grid(spec), fresh)
    write_spectrum_csv(tmp_path / "cached.csv", spectrum)
    write_spectrum_csv(tmp_path / "fresh.csv", dataclasses.replace(spectrum, frequencies=fresh))
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_sweep_spec_rejects_single_point_range():
    with pytest.raises(ValueError):
        SweepSpec(1e3, 2e3, 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(inner_radius=-1e-3),
        dict(outer_radius=5e-3),      # <= inner radius
        dict(coil_height=0.0),
        dict(gap=-1e-4),
        dict(liftoff=0.0),
        dict(turns_tx=0),
        dict(drive_current=0.0),
        dict(inner_radius=np.nan),
        dict(outer_radius=np.inf),
        dict(coil_height=np.nan),
        dict(gap=np.inf),
        dict(liftoff=-np.inf),
        dict(turns_rx=np.nan),
        dict(drive_current=np.inf),
    ],
)
def test_coil_validation(kwargs):
    base = dict(
        inner_radius=6e-3,
        outer_radius=6.315e-3,
        coil_height=8e-3,
        gap=2e-3,
        liftoff=1e-3,
        turns_tx=25,
        turns_rx=25,
        drive_current=10e-3,
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        CoilPair(**base)


def test_plate_validation():
    with pytest.raises(ValueError):
        Plate(conductivity=-1.0, thickness=1e-3)
    with pytest.raises(ValueError):
        Plate(conductivity=1e6, thickness=0.0)
    with pytest.raises(ValueError):
        Plate(conductivity=1e6, thickness=1e-3, relative_permeability=0.5)
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="conductivity"):
            Plate(conductivity=value, thickness=1e-3)
        with pytest.raises(ValueError, match="thickness"):
            Plate(conductivity=1e6, thickness=value)
        with pytest.raises(ValueError, match="relative_permeability"):
            Plate(conductivity=1e6, thickness=1e-3, relative_permeability=value)
    # sigma = 0 (free space slab) is allowed
    assert Plate(conductivity=0.0, thickness=1e-3).sigma_thickness_product == 0.0


def test_sweep_spec_rejects_non_finite():
    for args, name in (
        ((np.nan, 1e3, 3), "f_min"),
        ((1.0, np.inf, 3), "f_max"),
        ((1.0, np.nan, 3), "f_max"),
        ((1.0, 1e3, np.nan), "n_points"),
        ((10.0, 100.0, 2.5), "n_points"),
    ):
        with pytest.raises(ValueError, match=name):
            SweepSpec(*args)


@pytest.mark.parametrize(
    "frequencies, delta_L, message",
    [
        ([10.0, 20.0], [1.0], "equal length"),
        ([10.0, 20.0, 30.0], [1.0, 1.0], "equal length"),
        ([10.0, 20.0, 20.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([30.0, 20.0, 10.0], [1.0, 1.0, 1.0], "strictly increasing"),
        ([-5.0, 10.0, 20.0], [1.0, 1.0, 1.0], "> 0"),
        ([0.0, 10.0, 20.0], [1.0, 1.0, 1.0], "> 0"),
        ([-0.0], [1.0], "> 0"),
        ([10.0, np.nan, 20.0], [1.0, 1.0, 1.0], "finite"),
        ([10.0, 20.0, np.inf], [1.0, 1.0, 1.0], "finite"),
        ([np.nan], [1.0], "finite"),
    ],
)
def test_spectrum_validation(frequencies, delta_L, message):
    with pytest.raises(ValueError, match=message):
        InductanceSpectrum(frequencies, delta_L, normalized=True, model_tag="synthetic")
