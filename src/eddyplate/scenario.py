"""Scenario configuration files.

A scenario is a flat INI-style text file whose keys carry their unit in the
key name (conductivity_MSm, thickness_mm, ...). All conversion to SI happens
here, at parse time; every other module speaks SI only.

Example::

    [coil]
    inner_radius_mm = 6.0
    outer_radius_mm = 6.315
    height_mm = 8
    gap_mm = 2
    liftoff_mm = 1
    turns_tx = 25
    turns_rx = 25
    drive_current_mA = 10

    [plate.copper]
    conductivity_MSm = 59.8
    thickness_mm = 0.56

    [sweep]
    f_min_Hz = 1e3
    f_max_Hz = 500e3
    n_points = 50
    spacing = logarithmic

    [quadrature]            ; optional, as is each key; unset keys keep
    n_panels = 16           ; QuadratureSpec's defaults, shown here: 21-point
    rule = adaptive         ; Kronrod panels, doubled only where |K21 - G10|
    rel_tolerance = 1e-8    ; exceeds rel_tolerance

    [alpha0]                ; optional
    override_per_m = 166.67
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .dodd_deeds import QuadratureSpec
from .model import CoilPair, Plate, SweepSpec

# SI multiplier per key-name unit suffix.
_UNIT_SUFFIXES = {
    "_m": 1.0,
    "_mm": 1e-3,
    "_um": 1e-6,
    "_MSm": 1e6,
    "_Sm": 1.0,
    "_A": 1.0,
    "_mA": 1e-3,
    "_Hz": 1.0,
    "_kHz": 1e3,
    "_MHz": 1e6,
    "_per_m": 1.0,
}

# Keys whose values are words; every other key's value must be a number.
_TEXT_KEYS = ("spacing", "rule")
# Keys a [quadrature] section may set; unset ones keep QuadratureSpec's defaults.
_QUADRATURE_TYPES = {"alpha_max": float, "n_panels": int, "rule": str, "rel_tolerance": float}


class ScenarioError(ValueError):
    """The scenario file is missing, malformed, or fails validation."""


@dataclass
class Scenario:
    coil: CoilPair
    plates: dict[str, Plate]
    sweep: SweepSpec
    quadrature: QuadratureSpec
    alpha0_override: float | None
    sha256: str

    def plate(self, name: str) -> Plate:
        try:
            return self.plates[name]
        except KeyError:
            raise ScenarioError(
                f"unknown plate {name!r}; scenario defines: {sorted(self.plates)}"
            ) from None


def _si_value(key: str, raw: str) -> float:
    for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
        if key.endswith(suffix):
            return float(raw) * _UNIT_SUFFIXES[suffix]
    return float(raw)


def _section(cp: configparser.ConfigParser, name: str) -> dict[str, float | str]:
    out: dict[str, float | str] = {}
    for key, raw in cp.items(name):
        if key in _TEXT_KEYS:
            out[key] = raw
            continue
        try:
            out[key] = _si_value(key, raw)
        except ValueError:
            raise ValueError(f"[{name}] {key} = {raw!r} is not a number") from None
    return out


def _strip_units(values: dict) -> dict:
    """Map unit-suffixed keys to bare field names."""
    out = {}
    for key, value in values.items():
        bare = key
        for suffix in sorted(_UNIT_SUFFIXES, key=len, reverse=True):
            if key.endswith(suffix):
                bare = key[: -len(suffix)]
                break
        out[bare] = value
    return out


def parse_quantity(text: str) -> float:
    """Parse a CLI quantity like '2.0mm', '17.3MS/m', '69um' to SI."""
    units = {
        "m": 1.0,
        "mm": 1e-3,
        "um": 1e-6,
        "MS/m": 1e6,
        "S/m": 1.0,
        "Hz": 1.0,
        "kHz": 1e3,
        "MHz": 1e6,
    }
    text = text.strip()
    for unit in sorted(units, key=len, reverse=True):
        if text.endswith(unit):
            return float(text[: -len(unit)]) * units[unit]
    return float(text)


def load_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # unit suffixes in key names are case sensitive
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        cp.read_string(raw)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    sha = hashlib.sha256(raw.encode("utf-8")).hexdigest()

    try:
        coil_values = _strip_units(_section(cp, "coil"))
        coil = CoilPair(
            inner_radius=coil_values["inner_radius"],
            outer_radius=coil_values["outer_radius"],
            coil_height=coil_values["height"],
            gap=coil_values["gap"],
            liftoff=coil_values["liftoff"],
            turns_tx=int(coil_values["turns_tx"]),
            turns_rx=int(coil_values["turns_rx"]),
            drive_current=coil_values["drive_current"],
        )

        plates = {}
        for name in cp.sections():
            if not name.startswith("plate."):
                continue
            values = _strip_units(_section(cp, name))
            plates[name[len("plate.") :]] = Plate(
                conductivity=values["conductivity"],
                thickness=values["thickness"],
                relative_permeability=float(values.get("relative_permeability", 1.0)),
            )
        if not plates:
            raise ScenarioError("scenario defines no [plate.<name>] section")

        sweep_values = _strip_units(_section(cp, "sweep"))
        sweep = SweepSpec(
            f_min=sweep_values["f_min"],
            f_max=sweep_values["f_max"],
            n_points=int(sweep_values["n_points"]),
            spacing=str(sweep_values.get("spacing", "logarithmic")),
        )

        qv = _strip_units(_section(cp, "quadrature")) if cp.has_section("quadrature") else {}
        quadrature = QuadratureSpec(
            **{key: cast(qv[key]) for key, cast in _QUADRATURE_TYPES.items() if key in qv}
        )

        alpha0_override = None
        if cp.has_section("alpha0"):
            override = _strip_units(_section(cp, "alpha0")).get("override")
            alpha0_override = None if override is None else float(override)

    except ScenarioError:
        raise
    except (KeyError, ValueError, OverflowError, configparser.Error) as exc:
        raise ScenarioError(f"invalid scenario {path!r}: {exc}") from exc

    return Scenario(
        coil=coil,
        plates=plates,
        sweep=sweep,
        quadrature=quadrature,
        alpha0_override=alpha0_override,
        sha256=sha,
    )
