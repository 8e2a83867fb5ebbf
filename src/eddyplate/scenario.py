"""Scenario configuration files.

A scenario is a flat INI-style text file whose keys carry their unit in the
key name (conductivity_MSm, thickness_mm, ...). All conversion to SI happens
here, at parse time; every other module speaks SI only. Each section is read
against a table of the keys it may set and a list of those it must set: an
unknown or missing key, a non-numeric value or a non-integral count
(turns_tx, turns_rx, n_points, n_panels) makes load_scenario raise
ScenarioError naming the section and key.

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
    n_panels = 18           ; QuadratureSpec's defaults, shown here: trapezoid
    rule = adaptive         ; steps per decade of alpha, halved only where
    rel_tolerance = 1e-8    ; |T_h - T_2h| exceeds rel_tolerance

    [alpha0]                ; optional
    override_per_m = 166.67
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .dodd_deeds import QuadratureSpec
from .model import CoilPair, Plate, SweepSpec

# SI multiplier per key-name unit suffix; only float keys carry one.
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

# The keys each section may set, by bare name, and their types, and the keys
# it must set: those its dataclass has no default for.
_COIL_KEYS = {
    "inner_radius": float,
    "outer_radius": float,
    "height": float,
    "gap": float,
    "liftoff": float,
    "turns_tx": int,
    "turns_rx": int,
    "drive_current": float,
}
_COIL_REQUIRED = tuple(_COIL_KEYS)
_PLATE_KEYS = {"conductivity": float, "thickness": float, "relative_permeability": float}
_PLATE_REQUIRED = ("conductivity", "thickness")
_SWEEP_KEYS = {"f_min": float, "f_max": float, "n_points": int, "spacing": str}
_SWEEP_REQUIRED = ("f_min", "f_max", "n_points")
_QUADRATURE_KEYS = {"alpha_max": float, "n_panels": int, "rule": str, "rel_tolerance": float}
_ALPHA0_KEYS = {"override": float}


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


def _section(cp: configparser.ConfigParser, name: str, keys: dict, required=()) -> dict:
    """A section's values by bare key name, in SI, checked against ``keys``.

    A float key may carry one unit suffix, which is stripped and applied; an
    int key must hold a whole number. Unknown keys, a key set twice under two
    units, values of the wrong type and a missing ``required`` key raise
    ValueError.
    """
    out = {}
    for key, raw in cp.items(name):
        bare, scale = key, 1.0
        for suffix, unit in _UNIT_SUFFIXES.items():
            if key.endswith(suffix) and keys.get(key[: -len(suffix)]) is float:
                bare, scale = key[: -len(suffix)], unit
                break
        kind = keys.get(bare)
        if kind is None:
            raise ValueError(f"[{name}] unknown key {key!r}")
        if bare in out:
            raise ValueError(f"[{name}] {key} sets {bare} a second time")
        if kind is str:
            out[bare] = raw
            continue
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"[{name}] {key} = {raw!r} is not a number") from None
        if kind is int and not value.is_integer():
            raise ValueError(f"[{name}] {key} = {raw!r} is not a whole number")
        out[bare] = int(value) if kind is int else value * scale
    for bare in required:
        if bare not in out:
            unit = "_<unit>" if keys[bare] is float else ""
            raise ValueError(f"[{name}] missing key {bare}{unit}")
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
        coil = CoilPair(
            **{
                "coil_height" if key == "height" else key: value
                for key, value in _section(cp, "coil", _COIL_KEYS, _COIL_REQUIRED).items()
            }
        )
        plates = {
            name[len("plate.") :]: Plate(**_section(cp, name, _PLATE_KEYS, _PLATE_REQUIRED))
            for name in cp.sections()
            if name.startswith("plate.")
        }
        if not plates:
            raise ValueError("scenario defines no [plate.<name>] section")
        sweep = SweepSpec(**_section(cp, "sweep", _SWEEP_KEYS, _SWEEP_REQUIRED))
        quadrature = QuadratureSpec(
            **(_section(cp, "quadrature", _QUADRATURE_KEYS) if cp.has_section("quadrature") else {})
        )
        alpha0 = _section(cp, "alpha0", _ALPHA0_KEYS) if cp.has_section("alpha0") else {}
    except (ValueError, configparser.Error) as exc:
        raise ScenarioError(f"invalid scenario {path!r}: {exc}") from exc

    return Scenario(coil, plates, sweep, quadrature, alpha0.get("override"), sha)
