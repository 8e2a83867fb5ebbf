"""Scenario configuration files.

A scenario is a flat INI-style text file whose keys carry their unit in the
key name (conductivity_MSm, thickness_mm, ...): a unit of the key's own
quantity, from the one table _UNITS that also reads CLI quantities; a bare
key is SI. All conversion to SI happens here, at parse time; every other
module speaks SI only. Each section is read against a table of the keys it
may set and a list of those it must set: an unknown key (one with a unit of
another quantity, too) or a missing one, a non-numeric value or a
non-integral count (turns_tx, turns_rx, n_points, n_panels) makes
load_scenario raise ScenarioError naming the section and key.

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

# SI multiplier of each unit, by the SI unit of the quantity it measures.
_UNITS = {
    "m": {"m": 1.0, "mm": 1e-3, "um": 1e-6},
    "S/m": {"S/m": 1.0, "MS/m": 1e6},
    "A": {"A": 1.0, "mA": 1e-3},
    "Hz": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "1/m": {"per_m": 1.0},
}


def _keys(**kinds) -> dict:
    """Name table {key: (bare name, kind, SI multiplier)} for a section's kinds.

    A kind is float, int, str or a quantity's SI unit; a quantity's key is the
    bare name (SI) or bare_<unit> for each of its units, with "/" dropped (_MSm).
    """
    table = {}
    for bare, kind in kinds.items():
        table[bare] = (bare, kind, 1.0)
        for unit, scale in _UNITS.get(kind, {}).items():
            table[f"{bare}_{unit.replace('/', '')}"] = (bare, kind, scale)
    return table


# The keys each section may set, and the bare names it must set: those its
# dataclass has no default for.
_COIL_KEYS = _keys(
    inner_radius="m", outer_radius="m", height="m", gap="m", liftoff="m",
    turns_tx=int, turns_rx=int, drive_current="A",
)
_COIL_REQUIRED = tuple(dict.fromkeys(bare for bare, _, _ in _COIL_KEYS.values()))
_PLATE_KEYS = _keys(conductivity="S/m", thickness="m", relative_permeability=float)
_PLATE_REQUIRED = ("conductivity", "thickness")
_SWEEP_KEYS = _keys(f_min="Hz", f_max="Hz", n_points=int, spacing=str)
_SWEEP_REQUIRED = ("f_min", "f_max", "n_points")
_QUADRATURE_KEYS = _keys(alpha_max="1/m", n_panels=int, rule=str, rel_tolerance=float)
_ALPHA0_KEYS = _keys(override="1/m")


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
    """A section's values by bare key name, in SI, read through the name table ``keys``.

    An int key must hold a whole number. Unknown keys (a unit of another
    quantity among them), a key set twice under two units, values of the
    wrong type and a missing ``required`` key raise ValueError.
    """
    out = {}
    for key, raw in cp.items(name):
        try:
            bare, kind, scale = keys[key]
        except KeyError:
            raise ValueError(f"[{name}] unknown key {key!r}") from None
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
            unit = "_<unit>" if keys[bare][1] in _UNITS else ""
            raise ValueError(f"[{name}] missing key {bare}{unit}")
    return out


def parse_quantity(text: str, unit: str) -> float:
    """SI value of a CLI quantity of SI unit ``unit``: bare, or in one of its units ('2.0mm')."""
    units = _UNITS[unit]
    number, scale = text.strip(), 1.0
    for name in sorted(units, key=len, reverse=True):
        if number.endswith(name):
            number, scale = number[: -len(name)], units[name]
            break
    try:
        return float(number) * scale
    except ValueError:
        raise ValueError(
            f"bad quantity {text!r}: expected a number, bare (SI) or in {', '.join(units)}"
        ) from None


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
