"""Scenario configuration files.

A scenario is a flat INI-style text file whose keys carry their unit in the
key name (conductivity_MSm, thickness_mm, ...): a unit of the key's own
quantity, from the one table _UNITS that also reads CLI quantities; a bare
key is SI. All conversion to SI happens here, at parse time; every other
module speaks SI only. Each section is read against a table of the keys it
may set and a list of those it must set: a section not in the example below
(a plate with a blank name, too), an unknown key (one with a unit of another
quantity, too) or a missing one, a non-numeric value or a non-integral count
(turns_tx, turns_rx, n_points, n_panels) makes load_scenario raise
ScenarioError naming the section, and the key.

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
    rule = adaptive         ; steps per decade of alpha at alpha_max, halved
    rel_tolerance = 1e-8    ; only where |T_h - T_2h| exceeds rel_tolerance

    [alpha0]                ; optional
    override_per_m = 166.67

The file is read line by line. A blank line, or one whose first non-blank
character is ';' or '#', is skipped; elsewhere a ';' or '#' after whitespace
starts a comment that runs to the end of the line. What remains of a line,
stripped, is a section header [name] or an entry key = value (or key: value),
split at its first '=' or ':' with both sides stripped. There are no
continuation lines (an indented line reads like any other) and no
interpolation (a '%' is just part of the value). A key before the first
header, a section or a key within one section given twice, an entry with no
key, or any other line makes load_scenario raise ScenarioError naming the
line's number.
"""

from __future__ import annotations

import hashlib
import re
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


# An inline comment: ';' or '#' after whitespace, to the end of the line.
_INLINE_COMMENT = re.compile(r"\s[;#].*")


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


def _parse(text: str) -> dict:
    """{section: {key: value}} of a scenario file's text, both in file order.

    Raises ValueError naming the line of anything outside the grammar of the
    module docstring.
    """
    sections: dict[str, dict[str, str]] = {}
    name = entries = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = _INLINE_COMMENT.sub("", line, count=1).strip()
        if not line or line[0] in ";#":
            continue
        if line[0] == "[" and line[-1] == "]":
            name = line[1:-1]
            if name in sections:
                raise ValueError(f"line {lineno}: section [{name}] given a second time")
            entries = sections[name] = {}
            continue
        key, delimiter, value = line.partition("=")
        if ":" in key:  # the first delimiter is ':'
            key, delimiter, value = line.partition(":")
        if not delimiter:
            raise ValueError(f"line {lineno}: expected [section] or key = value, got {line!r}")
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: no key before {delimiter!r}")
        if entries is None:
            raise ValueError(f"line {lineno}: key {key!r} before any [section]")
        if key in entries:
            raise ValueError(f"line {lineno}: [{name}] {key} given a second time")
        entries[key] = value.strip()
    return sections


def _section(sections: dict, name: str, keys: dict, required=()) -> dict:
    """Section ``name``'s values by bare key name, in SI, read through the name table ``keys``.

    An int key must hold a whole number. A missing section, unknown keys (a
    unit of another quantity among them), a key set twice under two units,
    values of the wrong type and a missing ``required`` key raise ValueError.
    """
    if name not in sections:
        raise ValueError(f"No section: {name!r}")
    out = {}
    for key, raw in sections[name].items():
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        sections = _parse(raw)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    try:
        return _scenario(sections, hashlib.sha256(raw.encode("utf-8")).hexdigest())
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario {path!r}: {exc}") from exc


def _scenario(sections: dict, sha: str) -> Scenario:
    """The Scenario that ``sections`` ({section: {key: value}}) set; ValueError if invalid."""
    for name in sections:
        plate = name.startswith("plate.") and name[len("plate.") :].strip()
        if not plate and name not in ("coil", "sweep", "quadrature", "alpha0"):
            raise ValueError(f"unknown section [{name}]")
    coil = CoilPair(
        **{
            "coil_height" if key == "height" else key: value
            for key, value in _section(sections, "coil", _COIL_KEYS, _COIL_REQUIRED).items()
        }
    )
    plates = {
        name[len("plate.") :]: Plate(**_section(sections, name, _PLATE_KEYS, _PLATE_REQUIRED))
        for name in sections
        if name.startswith("plate.")
    }
    if not plates:
        raise ValueError("scenario defines no [plate.<name>] section")
    sweep = SweepSpec(**_section(sections, "sweep", _SWEEP_KEYS, _SWEEP_REQUIRED))
    quadrature = QuadratureSpec(
        **(_section(sections, "quadrature", _QUADRATURE_KEYS) if "quadrature" in sections else {})
    )
    alpha0 = _section(sections, "alpha0", _ALPHA0_KEYS) if "alpha0" in sections else {}
    return Scenario(coil, plates, sweep, quadrature, alpha0.get("override"), sha)
