"""Command-line interface.

Subcommands: spectrum | equivalent | compare | invert | paper-cases.
Exit codes: 0 success, 1 parse/validation error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import __version__, analysis, fileio, thin_plate
from .dodd_deeds import QuadratureConvergenceError
from .scenario import load_scenario, parse_quantity

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NO_CONVERGENCE = 2


def _coil_summary(coil) -> str:
    return (
        f"r={coil.inner_radius:.6g}:{coil.outer_radius:.6g} "
        f"h={coil.coil_height:.6g} gap={coil.gap:.6g} liftoff={coil.liftoff:.6g} "
        f"turns={coil.turns_tx}/{coil.turns_rx}"
    )


def cmd_spectrum(args) -> int:
    scen = load_scenario(args.scenario)
    plate = scen.plate(args.plate)
    spectrum = analysis.sweep(
        model=args.model,
        coil=scen.coil,
        plate=plate,
        spec=scen.sweep,
        quad=scen.quadrature,
        alpha0=scen.alpha0_override,
    )
    meta = {
        "scenario_sha256": scen.sha256,
        "plate": args.plate,
        "conductivity_Sm": plate.conductivity,
        "thickness_m": plate.thickness,
        "coil": _coil_summary(scen.coil),
        "tool_version": __version__,
    }
    fileio.write_spectrum_csv(args.output, spectrum, meta)
    print(f"wrote {len(spectrum.frequencies)} rows to {args.output}")
    return EXIT_OK


def cmd_equivalent(args) -> int:
    plate = load_scenario(args.scenario).plate(args.plate)
    thickness = None if args.thickness is None else parse_quantity(args.thickness, "m")
    conductivity = None if args.conductivity is None else parse_quantity(args.conductivity, "S/m")
    eq = thin_plate.equivalent_plate(plate, thickness, conductivity=conductivity)

    print(f"equivalent plate for {args.plate!r}:")
    print(f"  conductivity = {eq.conductivity:.6g} S/m ({eq.conductivity / 1e6:.6g} MS/m)")
    print(f"  thickness    = {eq.thickness:.6g} m ({eq.thickness * 1e6:.6g} um)")
    print(f"  sigma*D      = {eq.sigma_thickness_product:.6g} S (preserved)")
    print("scenario fragment:")
    print(f"[plate.{args.plate}_equivalent]")
    print(f"conductivity_Sm = {eq.conductivity:.17g}")
    print(f"thickness_m = {eq.thickness:.17g}")
    return EXIT_OK


def _parse_band(text):
    if text is None:
        return None
    lo, _, hi = text.partition(":")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise ValueError(f"bad band {text!r}, expected lo:hi in Hz") from None


def cmd_compare(args) -> int:
    band = _parse_band(args.band)
    a = fileio.read_spectrum_csv(args.spectrum_a)
    b = fileio.read_spectrum_csv(args.spectrum_b)
    report = analysis.compare(a, b, band=band)
    if args.report:
        fileio.write_report_json(
            args.report,
            report,
            extra={
                "spectrum_a": args.spectrum_a,
                "spectrum_b": args.spectrum_b,
                "scenario_sha256_a": a.metadata.get("scenario_sha256"),
                "scenario_sha256_b": b.metadata.get("scenario_sha256"),
                "tool_version": __version__,
            },
        )
    lo, hi = report.max_rel_error_band
    print(f"max_rel_error={report.max_rel_error:.6g} in band [{lo:g},{hi:g}]")
    return EXIT_OK


def cmd_invert(args) -> int:
    spectrum = fileio.read_spectrum_csv(args.spectrum)
    if not spectrum.normalized:
        raise ValueError(
            "spectrum is absolute (henries); inversion needs the normalized thin-plate form"
        )
    alpha0 = spectrum.metadata.get("alpha0") if args.alpha0 is None else args.alpha0
    if alpha0 is None:
        raise ValueError("--alpha0 required (no alpha0 in spectrum metadata)")
    fit = analysis.fit_sigma_d(spectrum, float(alpha0))
    if args.output:
        fileio.write_fit_json(
            args.output,
            fit,
            extra={
                "spectrum": args.spectrum,
                "scenario_sha256": spectrum.metadata.get("scenario_sha256"),
                "tool_version": __version__,
            },
        )
    print(
        f"sigma_d={fit.sigma_d:.9g} S residual={fit.residual_norm:.3g} "
        f"converged={fit.converged}"
    )
    return EXIT_OK if fit.converged else EXIT_NO_CONVERGENCE


# The default sensor, shared by both bundled scenarios.
_SENSOR_COIL = """\
[coil]
inner_radius_mm = 6.0
outer_radius_mm = 6.315
height_mm = 8
gap_mm = 2
liftoff_mm = 1
turns_tx = 25
turns_rx = 25
drive_current_mA = 10
"""

_COPPER_BRASS_SCENARIO = f"""\
; Copper plate with its thicker, less conductive brass equivalent.
; sigma*D = 59.8 MS/m * 0.56 mm = 16.744 MS/m * 2.00 mm = 33488 S.

{_SENSOR_COIL}
[plate.copper]
conductivity_MSm = 59.8
thickness_mm = 0.56

[plate.brass]
conductivity_MSm = 16.744
thickness_mm = 2.00

[sweep]
f_min_Hz = 1e3
f_max_Hz = 500e3
n_points = 50
spacing = logarithmic
"""

_ALUMINIUM_SCENARIO = f"""\
; Thin aluminium foil with its sigma*D equivalent.
; sigma*D = 36.9 MS/m * 20 um = 738 S; equivalent at 55 um is 13.418 MS/m.

{_SENSOR_COIL}
[plate.aluminium]
conductivity_MSm = 36.9
thickness_um = 20

[plate.equivalent]
conductivity_MSm = 13.418181818181818
thickness_um = 55

[sweep]
f_min_Hz = 10
f_max_Hz = 1e6
n_points = 50
spacing = logarithmic
"""


def cmd_paper_cases(args) -> int:
    import os

    os.makedirs(args.outdir, exist_ok=True)
    cases = {
        "copper_brass.ini": _COPPER_BRASS_SCENARIO,
        "aluminium_foil.ini": _ALUMINIUM_SCENARIO,
    }
    for name, body in cases.items():
        path = os.path.join(args.outdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(body)
        print(f"wrote {path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="eddyplate",
        description="Eddy-current forward modelling and sigma*D analysis for thin plates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="run a forward sweep and write a spectrum CSV")
    p.add_argument("scenario")
    p.add_argument("plate")
    p.add_argument("--model", choices=analysis.MODELS, default="dodd_deeds")
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("equivalent", help="apply the sigma*D equivalence transform")
    p.add_argument("scenario")
    p.add_argument("plate")
    p.add_argument("--thickness", help="target thickness in m, mm or um, e.g. 2.0mm")
    p.add_argument("--conductivity", help="target conductivity in S/m or MS/m, e.g. 17.3MS/m")
    p.set_defaults(func=cmd_equivalent)

    p = sub.add_parser("compare", help="relative-error report between two spectra")
    p.add_argument("spectrum_a")
    p.add_argument("spectrum_b")
    p.add_argument("--band", help="restrict the statistic to lo:hi [Hz]")
    p.add_argument("--report", help="write the report as JSON")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("invert", help="fit sigma*D to a normalized spectrum")
    p.add_argument("spectrum")
    p.add_argument("--alpha0", type=float, default=None)
    p.add_argument("--output", "-o", help="write the fit as JSON")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("paper-cases", help="materialize the bundled reference scenarios")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_paper_cases)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place where an error becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means no convergence.
        if exc.code == 0:  # --help or --version
            raise
        return EXIT_INVALID
    # A warning prints as one plain line, as an error does, without its source.
    saved_format, warnings.formatwarning = warnings.formatwarning, lambda m, *_: f"warning: {m}\n"
    try:
        return args.func(args)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as exc:  # bad input, a bad file, or too large
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
