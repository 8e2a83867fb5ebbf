import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

import eddyplate
from eddyplate import MU_0, QuadratureSpec, dodd_deeds
from eddyplate.cli import EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from eddyplate.fileio import read_spectrum_csv
from eddyplate.model import RANGES
from eddyplate.scenario import ScenarioError, load_scenario
from eddyplate.thin_plate import ThinRegimeWarning


@pytest.fixture()
def cases_dir(tmp_path):
    outdir = tmp_path / "cases"
    assert main(["paper-cases", "--outdir", str(outdir)]) == EXIT_OK
    return outdir


@pytest.fixture()
def copper_brass(cases_dir):
    return str(cases_dir / "copper_brass.ini")


@pytest.fixture()
def aluminium(cases_dir):
    return str(cases_dir / "aluminium_foil.ini")


def test_paper_cases_writes_scenarios(cases_dir):
    assert (cases_dir / "copper_brass.ini").exists()
    assert (cases_dir / "aluminium_foil.ini").exists()


def test_spectrum_row_count_and_metadata(tmp_path, copper_brass):
    out = tmp_path / "cu.csv"
    rc = main(["spectrum", copper_brass, "copper", "--model", "dodd_deeds", "-o", str(out)])
    assert rc == EXIT_OK
    spectrum = read_spectrum_csv(str(out))
    assert spectrum.frequencies.size == 50
    assert spectrum.normalized is False
    assert spectrum.model_tag == "dodd_deeds"
    assert "scenario_sha256" in spectrum.metadata


def test_spectrum_unknown_plate_exits_1(tmp_path, copper_brass, capsys):
    rc = main(["spectrum", copper_brass, "gold", "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_INVALID
    assert "unknown plate" in capsys.readouterr().err


def test_spectrum_missing_scenario_exits_1(tmp_path):
    rc = main(["spectrum", str(tmp_path / "absent.ini"), "copper", "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_INVALID


def test_spectrum_nonconvergence_exits_2(tmp_path, copper_brass):
    body = open(copper_brass).read() + (
        "\n[quadrature]\nn_panels = 8\nrel_tolerance = 1e-16\n"
    )
    bad = tmp_path / "tight.ini"
    bad.write_text(body)
    rc = main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_NO_CONVERGENCE


def test_scenario_quadrature_defaults_from_spec(tmp_path, copper_brass):
    base = open(copper_brass).read()
    assert load_scenario(copper_brass).quadrature == QuadratureSpec()
    for section, expected in (
        ("", QuadratureSpec()),
        ("rule = fixed\n", QuadratureSpec(rule="fixed")),
        ("alpha_max_per_m = 2e4\nn_panels = 32\n", QuadratureSpec(alpha_max=2e4, n_panels=32)),
    ):
        path = tmp_path / "quad.ini"
        path.write_text(base + "\n[quadrature]\n" + section)
        assert load_scenario(str(path)).quadrature == expected


@pytest.mark.parametrize(
    "entry, message",
    [
        ("alpha_max_per_m = 1e12", "alpha_max = 1e+12 1/m asks for"),
        ("alpha_max_per_m = 1e-100", "alpha_max must be from 1e-09 to 1e+15 1/m, got 1e-100 1/m"),
        ("n_panels = 1e9", "n_panels = 1000000000 asks for"),
        # (old line, new line) pairs, each outside the input ranges: coils of
        # 1e60 and 1e-70 m, a height of 1e-160 m, turns of 1e200, and plates
        # of mu_r = 1e80 or sigma = 1e100 S/m (with f_max = 1.6e59 Hz), and
        # a coil of 3.16e46 m
        pytest.param(
            [
                ("inner_radius_mm = 6.0", "inner_radius = 1e60"),
                ("outer_radius_mm = 6.315", "outer_radius = 2e60"),
                ("height_mm = 8", "height = 1e60"),
            ],
            "inner_radius must be from 1e-12 to 1e+06 m, got 1e+60 m",
            id="coil-1e60",
        ),
        pytest.param(
            [("inner_radius_mm = 6.0", "inner_radius = 1e-70")],
            "inner_radius must be from 1e-12 to 1e+06 m, got 1e-70 m",
            id="coil-1e-70",
        ),
        pytest.param(
            [("height_mm = 8", "height = 1e-160")],
            "coil_height must be from 1e-12 to 1e+06 m, got 1e-160 m",
            id="height-1e-160",
        ),
        pytest.param(
            [("turns_tx = 25", "turns_tx = 1e200"), ("turns_rx = 25", "turns_rx = 1e200")],
            "turns_tx must be from 1 to 1e+12, got 1e+200",
            id="turns-1e200",
        ),
        pytest.param(
            [("thickness_mm = 0.56", "thickness_mm = 0.56\nrelative_permeability = 1e80")],
            "relative_permeability must be from 1 to 1e+10, got 1e+80",
            id="mu_r-1e80",
        ),
        pytest.param(
            [
                ("conductivity_MSm = 59.8", "conductivity = 1e100"),
                ("f_max_Hz = 500e3", f"f_max = {1e60 / (2 * np.pi)!r}"),
            ],
            "conductivity must be from 0 to 1e+40 S/m, got 1e+100 S/m",
            id="sigma-1e100-omega-1e60",
        ),
        pytest.param(
            [
                ("inner_radius_mm = 6.0", "inner_radius = 3.16e46"),
                ("outer_radius_mm = 6.315", "outer_radius = 3.16316e46"),
                ("height_mm = 8", "height = 3.16e46"),
                ("gap_mm = 2", "gap = 3.16e46"),
                ("liftoff_mm = 1", "liftoff = 3.16e46"),
                ("conductivity_MSm = 59.8", "conductivity = 0"),
                ("thickness_mm = 0.56", "thickness_mm = 0.56\nrelative_permeability = 2"),
                ("f_min_Hz = 1e3", f"f_min = {1 / (2 * np.pi)!r}"),
                ("f_max_Hz = 500e3", f"f_max = {1 / (2 * np.pi)!r}"),
                ("n_points = 50", "n_points = 1"),
                ("spacing = logarithmic", "spacing = logarithmic\n\n[quadrature]\nalpha_max_per_m = 5e-41"),
            ],
            "inner_radius must be from 1e-12 to 1e+06 m, got 3.16e+46 m",
            id="coil-3.16e46-lowest-node",
        ),
    ],
)
def test_spectrum_quadrature_out_of_range_exits_1(tmp_path, copper_brass, capsys, entry, message):
    body = open(copper_brass).read()
    if isinstance(entry, str):
        body += "\n[quadrature]\n" + entry + "\n"
    else:
        for old, new in entry:
            assert f"\n{old}\n" in body
            body = body.replace(f"\n{old}\n", f"\n{new}\n", 1)
    bad = tmp_path / "huge.ini"
    bad.write_text(body)
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        rc = main(["spectrum", str(bad), "copper", "--model", "dodd_deeds", "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert peak < 2_000_000
    assert not out.exists()


def _beyond(value, direction):
    """The next float after ``value`` towards ``direction``, as a Python float."""
    return float(np.nextafter(value, direction))


# (old line of copper_brass.ini, the key its new line sets, the name the
# refusal gives, the quantity): each key of a ranged input, and each end of
# each range at least once
RANGED_KEYS = [
    ("inner_radius_mm = 6.0", "inner_radius", "inner_radius", "length"),
    ("outer_radius_mm = 6.315", "outer_radius", "outer_radius", "length"),
    ("height_mm = 8", "height", "coil_height", "length"),
    ("liftoff_mm = 1", "liftoff", "liftoff", "length"),
    ("thickness_mm = 0.56", "thickness", "thickness", "length"),
    ("gap_mm = 2", "gap", "gap", "gap"),
    ("turns_tx = 25", "turns_tx", "turns_tx", "turns"),
    ("turns_rx = 25", "turns_rx", "turns_rx", "turns"),
    ("conductivity_MSm = 59.8", "conductivity", "conductivity", "conductivity"),
    ("thickness_mm = 0.56", "thickness_mm = 0.56\nrelative_permeability", "relative_permeability",
     "relative_permeability"),
    ("f_min_Hz = 1e3", "f_min", "f_min", "frequency"),
    ("f_max_Hz = 500e3", "f_max", "f_max", "frequency"),
    ("spacing = logarithmic", "spacing = logarithmic\n[quadrature]\nalpha_max_per_m", "alpha_max",
     "spatial_frequency"),
    ("spacing = logarithmic", "spacing = logarithmic\n[alpha0]\noverride_per_m", "alpha0",
     "spatial_frequency"),
]


@pytest.mark.filterwarnings("ignore::eddyplate.thin_plate.ThinRegimeWarning")
@pytest.mark.parametrize("old, key, name, quantity", RANGED_KEYS, ids=[k[2] for k in RANGED_KEYS])
def test_one_float_beyond_a_range_exits_1(tmp_path, copper_brass, capsys, old, key, name, quantity):
    low, high, unit = RANGES[quantity]
    unit = f" {unit}" if unit else ""
    body = open(copper_brass).read()
    scenario, out = tmp_path / "range.ini", tmp_path / "x.csv"
    args = ["spectrum", str(scenario), "copper", "--model", "thin_plate", "-o", str(out)]
    # a count's next whole number, a float's next float
    beyond = (low - 1, high + 1) if quantity == "turns" else (_beyond(low, -np.inf), _beyond(high, np.inf))
    for value in beyond:
        scenario.write_text(body.replace(f"\n{old}\n", f"\n{key} = {value!r}\n", 1))
        assert main(args) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"{name} must be from {low:g} to {high:g}{unit}, got {float(value)!r}{unit}\n" in err, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    # the ends themselves pass the range (a magnetic plate, which the thin
    # model refuses, exits 1 for that)
    for value in (low, high):
        scenario.write_text(body.replace(f"\n{old}\n", f"\n{key} = {value!r}\n", 1))
        assert main(args) in (EXIT_OK, EXIT_INVALID)
        assert "must be from" not in capsys.readouterr().err


def test_subnormal_inner_radius_exits_1(tmp_path, copper_brass, capsys):
    # 1 / inner_radius overflowed to alpha0 = inf, and thin_plate wrote 50
    # rows of zeros with exit 0: the length range refuses the coil.
    scenario, out = tmp_path / "tiny.ini", tmp_path / "x.csv"
    scenario.write_text(open(copper_brass).read().replace("inner_radius_mm = 6.0", "inner_radius = 5e-324"))
    assert main(["spectrum", str(scenario), "copper", "--model", "thin_plate", "-o", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.endswith(": inner_radius must be from 1e-12 to 1e+06 m, got 5e-324 m\n")
    assert not out.exists()


def test_spectrum_step_halving_over_budget_exits_2(tmp_path, copper_brass, capsys, monkeypatch):
    monkeypatch.setattr(dodd_deeds, "_BUDGET", 100)
    dodd_deeds._kernel_table.cache_clear()
    bad = tmp_path / "tight.ini"
    quadrature = "\n[quadrature]\nn_panels = 8\nrel_tolerance = 1e-16\n"
    bad.write_text(open(copper_brass).read() + quadrature)
    try:
        rc = main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")])
    finally:
        dodd_deeds._kernel_table.cache_clear()
    assert rc == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith("error: no convergence by halving")


@pytest.mark.parametrize("entry", ["[quadrature]\nn_panels = inf", "[quadrature]\nn_panels = x"])
def test_spectrum_bad_quadrature_exits_1(tmp_path, copper_brass, capsys, entry):
    bad = tmp_path / "bad.ini"
    bad.write_text(open(copper_brass).read() + "\n" + entry + "\n")
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid scenario" in err
    if entry.endswith("x"):
        assert "[quadrature] n_panels = 'x' is not a number" in err


def test_warning_prints_as_one_plain_line(tmp_path, copper_brass):
    # Brass is outside the thin regime (D * alpha0 = 0.33): the spectrum is
    # still written, and its warning reads as one line with no source in it.
    argv = ["spectrum", copper_brass, "brass", "--model", "thin_plate", "-o"]
    env = dict(os.environ, PYTHONPATH=str(Path(eddyplate.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "eddyplate.cli", *argv, str(tmp_path / "cli.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("warning: D * alpha0 = 0.333 > 0.1")
    assert ".py:" not in done.stderr
    # A warning is not swallowed: where warnings are errors, it still raises.
    with pytest.raises(ThinRegimeWarning):
        main([*argv, str(tmp_path / "error.csv")])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinRegimeWarning)
        assert main([*argv, str(tmp_path / "ref.csv")]) == EXIT_OK
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize(
    "section, body",
    [
        ("quadratur", "rel_tolerance = 1e-30"),
        ("Sweep", "n_points = 4"),
        ("plates.copper", "conductivity_MSm = 1"),
        ("plate.", "conductivity_MSm = 59.8\nthickness_mm = 0.56"),
        ("plate. ", "conductivity_MSm = 59.8\nthickness_mm = 0.56"),
        # a section configparser would have copied into every other
        ("DEFAULT", "foo = 1"),
    ],
    ids=["quadratur", "Sweep", "plates.copper", "plate.", "plate.blank", "DEFAULT"],
)
def test_unknown_scenario_section_exits_1(tmp_path, copper_brass, capsys, section, body):
    # Each would otherwise be ignored, or load a plate named "" or " ".
    bad = tmp_path / "section.ini"
    bad.write_text(open(copper_brass).read() + f"\n[{section}]\n{body}\n")
    out = tmp_path / "x.csv"
    for plate in ("copper", ""):
        args = ["spectrum", str(bad), plate, "--model", "thin_plate", "-o", str(out)]
        assert main(args) == EXIT_INVALID
        assert f"unknown section [{section}]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, typo",
    [
        ("coil", "inner_radus_mm = 6.0"),
        ("plate.copper", "relative_permeabilty = 200"),
        ("sweep", "n_point = 4"),
        ("quadrature", "n_panel = 64"),
        ("alpha0", "overide_per_m = 200"),
        # a unit of another quantity than the key's
        ("alpha0", "override_mm = 200"),
        ("plate.copper", "relative_permeability_mm = 200"),
        ("sweep", "f_min_mm = 1e3"),
        ("coil", "gap_MSm = 2"),
        ("quadrature", "rel_tolerance_Hz = 1e-8"),
    ],
)
def test_unknown_scenario_key_exits_1(tmp_path, copper_brass, capsys, section, typo):
    # Each typo would otherwise leave its field at a default, or missing.
    base = open(copper_brass).read()
    if f"[{section}]\n" in base:
        body = base.replace(f"[{section}]\n", f"[{section}]\n{typo}\n")
    else:
        body = base + f"\n[{section}]\n{typo}\n"
    bad = tmp_path / "typo.ini"
    bad.write_text(body)
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    key = typo.partition(" = ")[0]
    assert f"[{section}] unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("turns_tx = 25", "turns_tx = 25.9", "turns_tx = '25.9' is not a whole number"),
        ("turns_rx = 25", "turns_rx = 2.5", "turns_rx = '2.5' is not a whole number"),
        ("n_points = 50", "n_points = 4.7", "n_points = '4.7' is not a whole number"),
        (
            "n_points = 50",
            "n_points = 50\n[quadrature]\nn_panels = 16.5",
            "n_panels = '16.5' is not a whole number",
        ),
        (
            "thickness_mm = 0.56",
            "thickness_mm = 0.56\nthickness_um = 560",
            "[plate.copper] thickness_um sets thickness a second time",
        ),
        ("spacing = logarithmic", "spacing = geometric", "unknown spacing 'geometric'"),
    ],
    ids=["turns_tx", "turns_rx", "n_points", "n_panels", "thickness-twice", "spacing"],
)
def test_malformed_scenario_entry_exits_1(tmp_path, copper_brass, capsys, old, new, message):
    # Each used to load: a fraction truncated, a repeated quantity's last value won.
    bad = tmp_path / "bad.ini"
    bad.write_text(open(copper_brass).read().replace(old, new, 1))
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, line, key",
    [
        ("coil", "inner_radius_mm = 6.0", "inner_radius_<unit>"),
        ("coil", "outer_radius_mm = 6.315", "outer_radius_<unit>"),
        ("coil", "height_mm = 8", "height_<unit>"),
        ("coil", "gap_mm = 2", "gap_<unit>"),
        ("coil", "liftoff_mm = 1", "liftoff_<unit>"),
        ("coil", "turns_tx = 25", "turns_tx"),
        ("coil", "turns_rx = 25", "turns_rx"),
        ("coil", "drive_current_mA = 10", "drive_current_<unit>"),
        ("plate.copper", "conductivity_MSm = 59.8", "conductivity_<unit>"),
        ("plate.copper", "thickness_mm = 0.56", "thickness_<unit>"),
        ("sweep", "f_min_Hz = 1e3", "f_min_<unit>"),
        ("sweep", "f_max_Hz = 500e3", "f_max_<unit>"),
        ("sweep", "n_points = 50", "n_points"),
    ],
    ids=lambda value: value.partition(" = ")[0] if " = " in value else None,
)
def test_missing_scenario_key_exits_1(tmp_path, copper_brass, capsys, section, line, key):
    # The error names the file's key, not the dataclass field it fills.
    body = open(copper_brass).read()
    assert f"\n{line}\n" in body
    bad = tmp_path / "missing.ini"
    bad.write_text(body.replace(f"\n{line}\n", "\n", 1))
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    assert f"[{section}] missing key {key}" in capsys.readouterr().err
    with pytest.raises(ScenarioError, match=re.escape(f"[{section}] missing key {key}")):
        load_scenario(str(bad))


@pytest.mark.parametrize("turns", ["25", "25.0", "2.5e1"])
def test_integer_keys_accept_whole_numbers(tmp_path, copper_brass, turns):
    path = tmp_path / "whole.ini"
    path.write_text(open(copper_brass).read().replace("turns_tx = 25", f"turns_tx = {turns}"))
    scen = load_scenario(str(path))
    assert scen.coil.turns_tx == 25 and isinstance(scen.coil.turns_tx, int)
    assert scen == dataclasses.replace(load_scenario(copper_brass), sha256=scen.sha256)


def test_spectrum_non_numeric_value_names_it(tmp_path, copper_brass, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(open(copper_brass).read().replace("conductivity_MSm = 59.8", "conductivity_MSm = x"))
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    assert "[plate.copper] conductivity_MSm = 'x' is not a number" in capsys.readouterr().err


def test_spectrum_deterministic_bytes(tmp_path, copper_brass):
    a, b = (tmp_path / n for n in ("a.csv", "b.csv"))
    base = ["spectrum", copper_brass, "brass", "--model", "dodd_deeds"]
    assert main(base + ["-o", str(a)]) == EXIT_OK
    assert main(base + ["-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_compare_identical_spectra(tmp_path, copper_brass, capsys):
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    report = tmp_path / "r.json"
    rc = main(["compare", str(out), str(out), "--report", str(report)])
    assert rc == EXIT_OK
    assert "max_rel_error=0" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["max_rel_error"] == 0.0


def test_compare_copper_brass_band(tmp_path, copper_brass):
    cu, br = tmp_path / "cu.csv", tmp_path / "br.csv"
    main(["spectrum", copper_brass, "copper", "--model", "dodd_deeds", "-o", str(cu)])
    main(["spectrum", copper_brass, "brass", "--model", "dodd_deeds", "-o", str(br)])
    report = tmp_path / "r.json"
    rc = main(["compare", str(cu), str(br), "--band", "1e5:5e5", "--report", str(report)])
    assert rc == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["max_rel_error"] < 0.05
    assert payload["band_filter_hz"] == [1e5, 5e5]


@pytest.mark.parametrize(
    "band, message",
    [
        ("5:2", "band must be finite with lo <= hi"),
        ("nan:inf", "band must be finite with lo <= hi"),
        ("x:y", "bad band 'x:y', expected lo:hi in Hz"),
        ("1e3", "bad band '1e3', expected lo:hi in Hz"),
    ],
    ids=["5:2", "nan:inf", "x:y", "no-colon"],
)
def test_compare_rejects_bad_band(tmp_path, copper_brass, capsys, band, message):
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    report = tmp_path / "r.json"
    argv = ["compare", str(out), str(out), "--band", band, "--report", str(report)]
    assert main(argv) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not report.exists()


def _strict_json(path):
    """The JSON in path, failing on the NaN and Infinity constants JSON lacks."""

    def reject(name):
        raise AssertionError(f"{path} holds {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_json_files_hold_no_non_finite_numbers(tmp_path, copper_brass):
    # A band with no frequency in it has no max_rel_error: null, not NaN.
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    report = tmp_path / "r.json"
    argv = ["compare", str(out), str(out), "--band", "1:2", "--report", str(report)]
    assert main(argv) == EXIT_OK
    assert _strict_json(report)["max_rel_error"] is None

    # Data that pin sigma*D down not at all: its standard error is null, not
    # Infinity (and the fit has not converged).
    huge = tmp_path / "huge.csv"
    huge.write_text("# normalized=true\n1,1e150,0\n2,1e150,0\n3,1e150,0\n")
    fit = tmp_path / "fit.json"
    assert main(["invert", str(huge), "--alpha0", "200", "-o", str(fit)]) == EXIT_NO_CONVERGENCE
    assert _strict_json(fit)["sigma_d_std_S"] is None


def test_compare_disjoint_grids_exits_1(tmp_path, copper_brass, aluminium):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(a)])
    main(["spectrum", aluminium, "aluminium", "--model", "thin_plate", "-o", str(b)])
    assert main(["compare", str(a), str(b)]) == EXIT_INVALID


def test_invert_round_trip(tmp_path, copper_brass, capsys):
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    fit_json = tmp_path / "fit.json"
    rc = main(["invert", str(out), "-o", str(fit_json)])
    assert rc == EXIT_OK
    payload = json.loads(fit_json.read_text())
    assert payload["converged"] is True
    assert abs(payload["sigma_d_S"] - 33488.0) / 33488.0 < 1e-6
    # The spectrum is noiseless, so the closed-form start is already the
    # optimum: its first full step is negligible, and the (near) zero
    # residual gives a finite standard error, so the fit converges in its
    # first iteration.
    assert payload["iterations"] == 1
    assert 0.0 <= payload["sigma_d_std_S"] < 1e-6 * 33488.0
    assert "sigma_d=" in capsys.readouterr().out


def test_invert_unconstrained_fit_exits_2(tmp_path, capsys):
    # At 1e150 the thin-plate model cannot reach the data for any sigma*D:
    # the search stays at the linear start's fallback of 1 S with an infinite
    # standard error, which is no convergence.
    huge = tmp_path / "huge.csv"
    huge.write_text("# normalized=true\n1,1e150,0\n2,1e150,0\n3,1e150,0\n")
    fit = tmp_path / "fit.json"
    assert main(["invert", str(huge), "--alpha0", "200", "-o", str(fit)]) == EXIT_NO_CONVERGENCE
    assert "converged=False" in capsys.readouterr().out
    payload = _strict_json(fit)
    assert payload["converged"] is False and payload["sigma_d_std_S"] is None


def test_invert_stalled_fit_exits_2(tmp_path, capsys):
    # At the spectrum's own alpha0 and kHz the standard error is finite
    # (8.7e153 S), but no step lowers the cost from the start of 1 S either:
    # a search that stalls far from a negligible step is no convergence.
    big = tmp_path / "big.csv"
    big.write_text("# normalized=true\n# alpha0=166.67\n1e3,1e150,0\n2e3,1e150,0\n3e3,1e150,0\n")
    fit = tmp_path / "fit.json"
    assert main(["invert", str(big), "-o", str(fit)]) == EXIT_NO_CONVERGENCE
    assert "converged=False" in capsys.readouterr().out
    payload = _strict_json(fit)
    assert payload["converged"] is False and payload["sigma_d_S"] == 1.0
    assert 1e150 < payload["sigma_d_std_S"] < np.inf


@pytest.mark.parametrize(
    "body, message",
    [
        ("# normalized=true\nfreq_hz,dL_re,dL_im\n", "no data rows"),
        ("# normalized=true\n1,1e200,0\n2,1e200,0\n3,1e200,0\n", "misfit overflows"),
    ],
    ids=["no-rows", "overflow"],
)
def test_invert_unusable_spectrum_exits_1(tmp_path, capsys, body, message):
    spectrum = tmp_path / "s.csv"
    spectrum.write_text(body)
    assert main(["invert", str(spectrum), "--alpha0", "200"]) == EXIT_INVALID
    assert message in capsys.readouterr().err


def test_invert_without_alpha0_exits_1(tmp_path, copper_brass, capsys):
    # alpha0 comes from the spectrum's metadata or from --alpha0
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(line for line in lines if not line.startswith("# alpha0=")))
    capsys.readouterr()
    assert main(["invert", str(out)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == "error: --alpha0 required (no alpha0 in spectrum metadata)\n"
    assert captured.out == ""
    assert main(["invert", str(out), "--alpha0", "166.66666666666666"]) == EXIT_OK


def test_scenario_without_plate_exits_1(tmp_path, copper_brass, capsys):
    text = open(copper_brass).read()
    bad = tmp_path / "no_plate.ini"
    bad.write_text(text[: text.index("[plate.copper]")] + text[text.index("[sweep]") :])
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    assert "scenario defines no [plate.<name>] section" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_invert_absolute_spectrum_exits_1(tmp_path, copper_brass, capsys):
    out = tmp_path / "cu_abs.csv"
    main(["spectrum", copper_brass, "copper", "--model", "dodd_deeds", "-o", str(out)])
    rc = main(["invert", str(out)])
    assert rc == EXIT_INVALID
    assert "normalized" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_row", ["1,2", "1e3,0.5,1,2", "1e3,x,0.1", "1e3,nan,0.1", "1e3,0.5,inf", "-5,-0.5,0.1", "0,-0.5,0.1"]
)
def test_invert_malformed_row_exits_1(tmp_path, copper_brass, capsys, bad_row):
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    lines = out.read_text().splitlines()
    lineno = lines.index(next(line for line in lines if line.startswith("freq_hz"))) + 3
    lines[lineno - 1] = bad_row
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["invert", str(out)]) == EXIT_INVALID
    assert f"{out}:{lineno}:" in capsys.readouterr().err


@pytest.mark.parametrize("alpha0", ["nan", "inf", "0", "-1"])
def test_bad_alpha0_exits_1(tmp_path, copper_brass, capsys, alpha0):
    out = tmp_path / "cu.csv"
    args = ["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)]
    # spectrum takes alpha0 from the scenario's [alpha0] section only
    assert main(args + ["--alpha0", alpha0]) == EXIT_INVALID
    assert "unrecognized arguments: --alpha0" in capsys.readouterr().err
    assert not out.exists()

    override = tmp_path / "override.ini"
    override.write_text(open(copper_brass).read() + f"\n[alpha0]\noverride_per_m = {alpha0}\n")
    args_override = ["spectrum", str(override), "copper", "--model", "thin_plate", "-o", str(out)]
    assert main(args_override) == EXIT_INVALID
    assert "alpha0" in capsys.readouterr().err

    assert main(args) == EXIT_OK
    assert main(["invert", str(out), "--alpha0", alpha0]) == EXIT_INVALID
    assert "alpha0" in capsys.readouterr().err


def run_cli(argv, code=None):
    """The CLI in a fresh interpreter: ``python -m eddyplate.cli argv``, or
    ``python -c code argv``."""
    command = ["-m", "eddyplate.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(eddyplate.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_spectrum_non_finite_values_exit_1(tmp_path, copper_brass, capsys):
    # alpha0 above its range's top, 1e15 1/m, is refused before any model
    # runs, so no numpy warning or writer's refusal is reached; up to the top
    # every row is finite.
    override = tmp_path / "huge.ini"
    out = tmp_path / "cu.csv"
    args = ["spectrum", str(override), "copper", "--model", "thin_plate_exact", "-o", str(out)]
    override.write_text(open(copper_brass).read() + "\n[alpha0]\noverride_per_m = 1e160\n")
    done = run_cli(args)
    assert done.returncode == EXIT_INVALID
    assert done.stderr.endswith(": alpha0 must be from 1e-09 to 1e+15 1/m, got 1e+160 1/m\n")
    assert done.stderr.count("\n") == 1
    for alpha0 in (1e152, 1e76, float(np.nextafter(1e15, np.inf))):
        override.write_text(open(copper_brass).read() + f"\n[alpha0]\noverride_per_m = {alpha0!r}\n")
        assert main(args) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"error: alpha0 must be from 1e-09 to 1e+15 1/m, got {alpha0!r} 1/m\n"
    assert not out.exists()
    override.write_text(open(copper_brass).read() + "\n[alpha0]\noverride_per_m = 1e15\n")
    assert main(args) == EXIT_OK
    assert np.all(np.isfinite(read_spectrum_csv(str(out)).delta_L))


@pytest.mark.parametrize("alpha0", ["1e-320", "1e-306"], ids=["1e-320", "1e-306"])
def test_tiny_alpha0_override_exits_1(tmp_path, copper_brass, alpha0):
    # c = j omega mu0 sigma D / (2 alpha0) overflowed at these alpha0: the
    # range, from 1e-9 1/m, refuses them before the model runs, in one line.
    override = tmp_path / "tiny.ini"
    override.write_text(open(copper_brass).read() + f"\n[alpha0]\noverride_per_m = {alpha0}\n")
    out = tmp_path / "cu.csv"
    done = run_cli(["spectrum", str(override), "copper", "--model", "thin_plate", "-o", str(out)])
    assert done.returncode == EXIT_INVALID
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.endswith(f": alpha0 must be from 1e-09 to 1e+15 1/m, got {alpha0} 1/m\n")
    assert not out.exists()
    # the bottom of the range keeps every row finite
    override.write_text(open(copper_brass).read() + "\n[alpha0]\noverride_per_m = 1e-9\n")
    assert main(["spectrum", str(override), "copper", "--model", "thin_plate", "-o", str(out)]) == EXIT_OK
    assert np.all(np.isfinite(read_spectrum_csv(str(out)).delta_L))


@pytest.mark.parametrize("alpha0", ["1e-306", "1e200"])
def test_invert_alpha0_out_of_range_exits_1(tmp_path, copper_brass, alpha0):
    # (omega mu0 / (2 alpha0))^2 over- or underflows on the spectrum's band
    spectrum = tmp_path / "cu.csv"
    assert main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(spectrum)]) == EXIT_OK
    done = run_cli(["invert", str(spectrum), "--alpha0", alpha0])
    assert done.returncode == EXIT_INVALID
    assert len(done.stderr.splitlines()) == 1
    assert re.match(r"error: alpha0 = \S+ 1/m: .* not a normal number on 1000\.\.500000 Hz$", done.stderr)
    assert done.stdout == ""


def test_zero_integral_warns_once(tmp_path, copper_brass):
    # At alpha_max = 5.4e-52 1/m every delta_L underflowed to 0: that is
    # below alpha_max's range, and refused in one line. At the bottom of the
    # range, 1e-9 1/m, the integral is far below its tail beyond alpha_max,
    # and the tail check says so in one line.
    scenario = tmp_path / "tiny.ini"
    args = ["spectrum", str(scenario), "copper", "--model", "dodd_deeds", "-o", str(tmp_path / "cu.csv")]
    scenario.write_text(
        open(copper_brass).read() + "\n[quadrature]\nalpha_max_per_m = 5.4e-52\nn_panels = 8\n"
    )
    done = run_cli(args)
    assert done.returncode == EXIT_INVALID
    assert done.stderr.endswith(": alpha_max must be from 1e-09 to 1e+15 1/m, got 5.4e-52 1/m\n")
    assert len(done.stderr.splitlines()) == 1
    scenario.write_text(
        open(copper_brass).read() + "\n[quadrature]\nalpha_max_per_m = 1e-9\nrule = fixed\n"
    )
    done = run_cli(args)
    assert done.returncode == EXIT_OK, done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert re.match(r"warning: tail estimate .* of the integral \S+; increase alpha_max$", done.stderr)


def test_import_loads_no_scipy():
    code = "import sys, eddyplate.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = run_cli([], code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_import_loads_no_configparser():
    code = "import sys, eddyplate.cli; print(sorted(m for m in sys.modules if 'configparser' in m))"
    done = run_cli([], code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# The CLI with every scipy import refused by a meta path finder, once the
# refusal is shown to work.
_WITHOUT_SCIPY = """
import sys


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")


sys.meta_path.insert(0, Refuse())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported")
from eddyplate.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_spectrum_runs_without_scipy(tmp_path, copper_brass):
    argv = ["spectrum", copper_brass, "copper", "--model", "dodd_deeds", "-o"]
    done = run_cli([*argv, str(tmp_path / "refused.csv")], _WITHOUT_SCIPY)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == ""
    assert main([*argv, str(tmp_path / "ref.csv")]) == EXIT_OK
    assert (tmp_path / "refused.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
def test_memory_error_exits_1(tmp_path, copper_brass, capsys, monkeypatch, message):
    # A sweep too large to hold ([sweep] n_points = 1e12), raised rather than
    # allocated: a real allocation may exhaust a host that overcommits memory.
    def too_large(spec):
        raise MemoryError(message)

    monkeypatch.setattr("eddyplate.analysis.frequency_grid", too_large)
    out = tmp_path / "cu.csv"
    args = ["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)]
    assert main(args) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"
    assert not out.exists()


def test_equivalent_thickness_target(copper_brass, capsys):
    rc = main(["equivalent", copper_brass, "copper", "--thickness", "2.0mm"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "16.744 MS/m" in out
    assert "33488" in out


def test_equivalent_conductivity_target(tmp_path, capsys):
    bent = tmp_path / "bent.ini"
    bent.write_text(
        "[coil]\ninner_radius_mm = 6.0\nouter_radius_mm = 6.315\nheight_mm = 8\n"
        "gap_mm = 2\nliftoff_mm = 1\nturns_tx = 25\nturns_rx = 25\ndrive_current_mA = 10\n"
        "[plate.copper_foil]\nconductivity_MSm = 59.8\nthickness_um = 20\n"
        "[sweep]\nf_min_Hz = 10\nf_max_Hz = 1e6\nn_points = 30\n"
    )
    rc = main(["equivalent", str(bent), "copper_foil", "--conductivity", "17.3MS/m"])
    assert rc == EXIT_OK
    assert "69.1" in capsys.readouterr().out  # 69.13 um equivalent thickness


@pytest.mark.parametrize(
    "option, value, units",
    [("--thickness", "17MS/m", "m, mm, um"), ("--conductivity", "2mm", "S/m, MS/m")],
)
def test_equivalent_quantity_of_another_unit_exits_1(copper_brass, capsys, option, value, units):
    assert main(["equivalent", copper_brass, "copper", option, value]) == EXIT_INVALID
    assert f"bad quantity {value!r}: expected a number, bare (SI) or in {units}" in (
        capsys.readouterr().err
    )


def test_equivalent_needs_exactly_one_target(copper_brass, capsys):
    one_target = "exactly one of thickness or conductivity"
    for targets, message in [
        ([], one_target),
        (["--thickness", "2mm", "--conductivity", "17.3MS/m"], one_target),
        (["--thickness", ""], "bad quantity ''"),
        (["--conductivity", ""], "bad quantity ''"),
    ]:
        assert main(["equivalent", copper_brass, "copper", *targets]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert message in captured.err


def test_foreign_spectrum_format_exits_1(tmp_path, copper_brass, capsys):
    good = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(good)])
    foreign = tmp_path / "foreign.csv"
    text = good.read_text()
    assert text.startswith("# eddyplate_spectrum_format=1\n")
    foreign.write_text(text.replace("format=1\n", "format=2\n", 1))
    capsys.readouterr()
    assert main(["invert", str(foreign)]) == EXIT_INVALID
    assert f"{foreign}:1: unsupported eddyplate_spectrum_format '2'" in capsys.readouterr().err
    assert main(["compare", str(good), str(foreign)]) == EXIT_INVALID
    assert f"{foreign}:1:" in capsys.readouterr().err
    assert main(["compare", str(good), str(good)]) == EXIT_OK


def test_parser_reused_across_subcommands(tmp_path, copper_brass, capsys):
    # main builds its parser once per process; an option given to one call
    # must not carry into the next, whatever subcommand either names.
    assert build_parser() is build_parser()
    assert main(["equivalent", copper_brass, "copper", "--thickness", "2.0mm"]) == EXIT_OK
    assert "16.744 MS/m" in capsys.readouterr().out
    assert main(["equivalent", copper_brass, "copper", "--conductivity", "16.744MS/m"]) == EXIT_OK
    assert "thickness    = 0.002 m" in capsys.readouterr().out
    out = tmp_path / "cu.csv"
    assert main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)]) == EXIT_OK
    assert main(["equivalent", copper_brass, "copper"]) == EXIT_INVALID
    assert read_spectrum_csv(str(out)).model_tag == "thin_plate"


# ---------------------------------------------------------------- exit codes

# Values that each break a field in its own way, besides the valid ones.
TOKENS = st.sampled_from(["x", "", "nan", "inf", "-1", "0", "2.5", "1e-3", "1e400"])
SCENARIO = (
    ("coil", (("inner_radius_mm", "6.0"), ("outer_radius_mm", "6.315"), ("height_mm", "8"),
              ("gap_mm", "2"), ("liftoff_mm", "1"), ("turns_tx", "25"), ("turns_rx", "25"),
              ("drive_current_mA", "10"))),
    ("plate.copper", (("conductivity_MSm", "59.8"), ("thickness_mm", "0.56"))),
    ("sweep", (("f_min_Hz", "1e3"), ("f_max_Hz", "5e5"), ("n_points", "4"))),
    ("quadrature", (("n_panels", "16"), ("rule", "fixed"), ("rel_tolerance", "1e-8"))),
    ("alpha0", (("override_per_m", "200"),)),
)
COMMANDS = {
    "spectrum": ["scen.ini", "copper", "--model", "thin_plate", "-o", "out.csv"],
    "equivalent": ["scen.ini", "copper", "--thickness", "2mm"],
    "compare": ["spec.csv", "spec.csv", "--band", "1e3:1e5", "--report", "report.json"],
    "invert": ["spec.csv", "--alpha0", "200", "-o", "fit.json"],
    "paper-cases": ["--outdir", "cases"],
}
WORDS = TOKENS | st.sampled_from(
    ["scen.ini", "spec.csv", "absent.csv", "dir", "dir/absent/x.json", "gold", "--model",
     "thin_plate_exact", "dodd_deeds", "fem", "-o", "--alpha0", "--band", "x:y", "--report",
     "--conductivity", "17.3MS/m", "--outdir", "--nope", "--fit-alpha0", "--help", "--version"]
)


def _mostly(draw, value, other, odds=12):
    """value, or one draw of the strategy other about once in odds.

    The simplest draw, which hypothesis tries first, keeps value.
    """
    return draw(other) if draw(st.integers(0, odds - 1)) == odds - 1 else value


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    words = [_mostly(draw, w, WORDS) for w in COMMANDS[command]]
    if command == "spectrum":
        words[3] = draw(st.sampled_from(["thin_plate", "thin_plate_exact", "dodd_deeds"]))
    command = _mostly(draw, command, WORDS)
    return [command, *words, *_mostly(draw, [], st.lists(WORDS, min_size=1, max_size=3))]


@st.composite
def scenarios(draw):
    lines = []
    for section, entries in SCENARIO:
        if _mostly(draw, True, st.just(False), 16):
            lines.append(f"[{section}]")
            lines += [f"{key} = {_mostly(draw, value, TOKENS, 40)}" for key, value in entries]
    return "\n".join(lines).encode()


@st.composite
def spectra(draw):
    lines = [
        f"# eddyplate_spectrum_format={_mostly(draw, '1', st.just('2'), 16)}",
        f"# normalized={_mostly(draw, 'true', st.just('false'), 16)}",
        f"# alpha0={_mostly(draw, '166.66666666666666', TOKENS, 16)}",
        "freq_hz,dL_re,dL_im",
    ]
    n = draw(st.integers(0, 6))
    sigma_d = draw(st.floats(1e-3, 1e7))
    for f in np.geomspace(1e2, 1e6, n):
        c = 1j * 2 * np.pi * f * MU_0 * sigma_d / (2.0 * 166.66666666666666)
        s = -c / (1.0 + c)
        parts = [repr(float(f)), repr(s.real), repr(s.imag)]
        lines.append(",".join(_mostly(draw, p, TOKENS, 40) for p in parts))
    return "\n".join(lines).encode()


def _either(files):
    """Mostly files, sometimes arbitrary bytes."""
    return st.integers(0, 7).flatmap(lambda k: st.binary(max_size=64) if k == 7 else files)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    argv=argvs(),
    scenario=_either(scenarios()),
    spectrum=_either(spectra()),
)
@example(argv=["invert"], scenario=b"", spectrum=b"")
@example(argv=["bogus"], scenario=b"", spectrum=b"")
@example(argv=["invert", "spec.csv", "--nope"], scenario=b"", spectrum=b"")
@example(argv=["invert", "spec.csv", "--fit-alpha0"], scenario=b"", spectrum=b"")
@example(  # s = -1 at every frequency: the linear start's equations all vanish
    argv=["invert", "spec.csv"],
    scenario=b"",
    spectrum=b"# normalized=true\n# alpha0=200\n1,-1,0\n2,-1,0\n3,-1,0\n",
)
def test_exit_code_contract(argv, scenario, spectrum):
    # Whatever the command line and file contents, main returns or exits
    # with 0 (ok), 1 (invalid) or 2 (no convergence), and a command line
    # the parser rejects is invalid, not unconverged.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("scen.ini").write_bytes(scenario)
            Path("spec.csv").write_bytes(spectrum)
            Path("dir").mkdir()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                try:
                    build_parser().parse_args(argv)
                    usage_error = False
                except SystemExit as exc:
                    usage_error = exc.code != 0
                try:
                    # A drawn thick plate warns by design; the warning is no exit code.
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)
                        code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NO_CONVERGENCE)
    if usage_error:
        assert code == EXIT_INVALID
