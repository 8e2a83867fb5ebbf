import dataclasses
import re
from pathlib import Path

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
from eddyplate.model import RANGES

F_MIN, F_MAX, _ = RANGES["frequency"]


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
    # a grid that does not strictly increase is refused when the spec is
    # built, before any model runs: equal or swapped ends, or a range too
    # narrow for its points
    for args in ((1e3, 1e3, 5), (2e3, 1e3, 5), (1.0, 1.0 + 4e-16, 10, "linear")):
        message = f"f_min = {args[0]!r} Hz, f_max = {args[1]!r} Hz and n_points = {args[2]} give a grid"
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepSpec(*args)


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


# The refusal of each defect of test_spectrum_validation: a frequency out of
# model.RANGES is named with the range, and NaN or inf between two in range
# breaks the strict increase.
REFUSALS = {
    "equal length": "equal length",
    "strictly increasing": "strictly increasing$",
    "> 0": r"^freq_hz must be from 1e-09 to 1e\+15 Hz, got (-5\.0|-?0\.0) Hz$",
    "finite": r"strictly increasing$|^freq_hz must be from 1e-09 to 1e\+15 Hz, got (nan|inf) Hz$",
}


@pytest.mark.parametrize(
    "frequencies, delta_L, defect",
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
        (10.0, 1.0, "strictly increasing"),
        ([[10.0, 20.0]], [[1.0, 1.0]], "strictly increasing"),
    ],
)
def test_spectrum_validation(frequencies, delta_L, defect):
    with pytest.raises(ValueError, match=REFUSALS[defect]):
        InductanceSpectrum(frequencies, delta_L, normalized=True, model_tag="synthetic")


@pytest.mark.parametrize("freq", [np.nextafter(F_MIN, 0.0), 1e-300, np.nextafter(F_MAX, np.inf)])
def test_spectrum_refuses_frequencies_out_of_range(freq):
    # the lowest or highest row beyond model.RANGES; the ends themselves pass
    freqs = [freq, 1.0] if freq < 1.0 else [1.0, freq]
    with pytest.raises(ValueError, match=rf"^freq_hz must be from 1e-09 to 1e\+15 Hz, got {float(freq)!r} Hz$"):
        InductanceSpectrum(freqs, [1.0, 1.0], normalized=True, model_tag="synthetic")
    InductanceSpectrum([F_MIN, F_MAX], [1.0, 1.0], normalized=True, model_tag="synthetic")


@pytest.mark.parametrize("value", [np.nan, complex(0.0, np.inf), complex(-np.inf, 1.0)])
def test_spectrum_refuses_non_finite_delta_L(value):
    # the first bad row is named, at the writer's 17 digits
    delta = [1.0, value, value]
    with pytest.raises(ValueError, match=r"^non-finite delta_L at freq_hz = 0\.10000000000000001$"):
        InductanceSpectrum([0.05, 0.1, 0.2], delta, normalized=True, model_tag="synthetic")


def test_spectrum_is_read_only():
    freqs, delta = np.array([10.0, 20.0, 30.0]), np.ones(3, dtype=complex)
    spectrum = InductanceSpectrum(freqs, delta, normalized=True, model_tag="synthetic")
    for name in ("frequencies", "delta_L", "normalized", "model_tag", "metadata"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spectrum, name, getattr(spectrum, name))
    with pytest.raises(ValueError, match="read-only"):
        spectrum.frequencies[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        spectrum.delta_L[0] = np.nan
    # the caller's arrays were copied and stay writeable; a read-only one is kept
    assert spectrum.frequencies is not freqs and spectrum.delta_L is not delta
    freqs[0], delta[0] = 1.0, np.nan
    assert spectrum.frequencies[0] == 10.0 and spectrum.delta_L[0] == 1.0
    grid = frequency_grid(SweepSpec(10.0, 1e3, 3))
    assert InductanceSpectrum(grid, np.ones(3), normalized=True, model_tag="synthetic").frequencies is grid


def test_spectrum_metadata_is_a_read_only_copy():
    given = {"plate": "copper", "alpha0": 200.0}
    spectrum = InductanceSpectrum([10.0, 20.0], np.ones(2), normalized=True, model_tag="synthetic", metadata=given)
    given["alpha0"] = -1.0
    with pytest.raises(TypeError):
        spectrum.metadata["alpha0"] = -1.0
    # dataclasses.replace builds a new spectrum, with a copy of its own
    edited = dataclasses.replace(spectrum, model_tag="edited")
    assert edited.metadata is not spectrum.metadata
    assert spectrum.metadata == edited.metadata == {"plate": "copper", "alpha0": 200.0}


ALPHA0_LOW, ALPHA0_HIGH, _ = RANGES["spatial_frequency"]


@pytest.mark.parametrize(
    "alpha0, message",
    [
        ("abc", "alpha0 must be a number, got 'abc'"),
        (None, "alpha0 must be a number, got None"),
        (np.nextafter(ALPHA0_LOW, 0.0), "alpha0 must be from 1e-09 to 1e+15 1/m, got 9.999999999999999e-10 1/m"),
        (repr(float(np.nextafter(ALPHA0_HIGH, np.inf))), "alpha0 must be from 1e-09 to 1e+15 1/m, got 1000000000000000.1 1/m"),
        ("nan", "alpha0 must be from 1e-09 to 1e+15 1/m, got nan 1/m"),
    ],
)
def test_spectrum_refuses_bad_alpha0(alpha0, message):
    # text that is no number, and a value, or its text, one double past either end
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        InductanceSpectrum([10.0], [1.0], normalized=True, model_tag="synthetic", metadata={"alpha0": alpha0})


def test_spectrum_alpha0_text_becomes_a_float():
    for text, value in (("166.66666666666666", 166.66666666666666), ("1e-09", ALPHA0_LOW), ("1e15", ALPHA0_HIGH)):
        spectrum = InductanceSpectrum([10.0], [1.0], normalized=True, model_tag="synthetic", metadata={"alpha0": text})
        assert type(spectrum.metadata["alpha0"]) is float and spectrum.metadata["alpha0"] == value


# The first words of the README ranges table's row for each RANGES entry.
README_ROWS = {
    "length": "Lengths",
    "gap": "Gap between the coils",
    "conductivity": "Conductivity",
    "relative_permeability": "Relative permeability",
    "frequency": "Frequency",
    "turns": "Turns of each coil",
    "spatial_frequency": "A set `alpha_max`",
}


def test_readme_ranges_table_states_model_ranges():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.partition("| Quantity | Range | Checked in |\n")[2].partition("\n\n")[0]
    rows = [line.strip().strip("|").split("|") for line in table.splitlines()[1:]]
    assert len(rows) == len(RANGES) == len(README_ROWS)
    stated = {}
    for quantity, range_, _ in rows:
        low, high, unit = re.fullmatch(r"(\S+) to (\S+) ?(.*)", range_.strip()).groups()
        key = next(k for k, label in README_ROWS.items() if quantity.strip().startswith(label))
        stated[key] = (float(low), float(high), unit)
    assert stated == RANGES
