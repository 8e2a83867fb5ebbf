import json

import pytest

from eddyplate import QuadratureSpec
from eddyplate.cli import EXIT_INVALID, EXIT_NO_CONVERGENCE, EXIT_OK, build_parser, main
from eddyplate.fileio import read_spectrum_csv
from eddyplate.scenario import load_scenario


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


@pytest.mark.parametrize("entry", ["[quadrature]\nn_panels = inf", "[quadrature]\nn_panels = x"])
def test_spectrum_bad_quadrature_exits_1(tmp_path, copper_brass, capsys, entry):
    bad = tmp_path / "bad.ini"
    bad.write_text(open(copper_brass).read() + "\n" + entry + "\n")
    assert main(["spectrum", str(bad), "copper", "-o", str(tmp_path / "x.csv")]) == EXIT_INVALID
    assert "invalid scenario" in capsys.readouterr().err


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
    assert "sigma_d=" in capsys.readouterr().out


def test_invert_fit_alpha0(tmp_path, copper_brass):
    out = tmp_path / "cu.csv"
    main(["spectrum", copper_brass, "copper", "--model", "thin_plate", "-o", str(out)])
    fit_json = tmp_path / "fit.json"
    rc = main(["invert", str(out), "--fit-alpha0", "-o", str(fit_json)])
    assert rc == EXIT_OK
    payload = json.loads(fit_json.read_text())
    assert abs(payload["alpha0_fit_per_m"] - 1.0 / 0.006) * 0.006 < 1e-4


def test_invert_absolute_spectrum_exits_1(tmp_path, copper_brass, capsys):
    out = tmp_path / "cu_abs.csv"
    main(["spectrum", copper_brass, "copper", "--model", "dodd_deeds", "-o", str(out)])
    rc = main(["invert", str(out)])
    assert rc == EXIT_INVALID
    assert "normalized" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["1,2", "1e3,0.5,1,2", "1e3,x,0.1", "1e3,nan,0.1", "1e3,0.5,inf"])
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
    assert main(args + ["--alpha0", alpha0]) == EXIT_INVALID
    assert "alpha0" in capsys.readouterr().err
    assert not out.exists()

    override = tmp_path / "override.ini"
    override.write_text(open(copper_brass).read() + f"\n[alpha0]\noverride_per_m = {alpha0}\n")
    args_override = ["spectrum", str(override), "copper", "--model", "thin_plate", "-o", str(out)]
    assert main(args_override) == EXIT_INVALID
    assert "alpha0" in capsys.readouterr().err

    assert main(args) == EXIT_OK
    assert main(["invert", str(out), "--alpha0", alpha0]) == EXIT_INVALID
    assert "alpha0" in capsys.readouterr().err


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


def test_equivalent_needs_exactly_one_target(copper_brass):
    assert main(["equivalent", copper_brass, "copper"]) == EXIT_INVALID
    assert (
        main(
            [
                "equivalent",
                copper_brass,
                "copper",
                "--thickness",
                "2mm",
                "--conductivity",
                "17.3MS/m",
            ]
        )
        == EXIT_INVALID
    )


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
