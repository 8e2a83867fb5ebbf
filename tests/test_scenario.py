"""The scenario loader's line parser, against configparser reading the same lines."""

import configparser
import dataclasses

import pytest
from hypothesis import given, settings

from eddyplate.cli import EXIT_INVALID, main
from eddyplate.scenario import ScenarioError, load_scenario
from oracles import configparser_scenario
from test_cli import scenarios

BASE = """\
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
"""


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


def _is_base(tmp_path, scen):
    """Whether scen is the Scenario of BASE, its sha256 aside."""
    base = load_scenario(_write(tmp_path, BASE, "base.ini"))
    return scen == dataclasses.replace(base, sha256=scen.sha256)


def _cli_error(path, capsys):
    """stderr of a spectrum command on the scenario at path, which must exit 1."""
    argv = ["spectrum", path, "copper", "--model", "thin_plate", "-o", path + ".csv"]
    assert main(argv) == EXIT_INVALID
    return capsys.readouterr().err


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=scenarios())
def test_loader_agrees_with_configparser(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("scenario") / "drawn.ini")
    with open(path, "wb") as fh:
        fh.write(text)
    try:
        expected = configparser_scenario(path)
    except (configparser.Error, ValueError):
        with pytest.raises(ScenarioError):
            load_scenario(path)
    else:
        assert load_scenario(path) == expected


# text -> None where both read it to one Scenario, or the loader's message
# where both reject it: with the line's number where the line parser does.
GRAMMAR = {
    "comment-on-header": (BASE.replace("[coil]", "[coil]  ; the sensor"), None),
    "comment-on-key": (BASE.replace("gap_mm = 2", "gap_mm = 2\t# between the coils"), None),
    "comment-lines": ("; a comment\n  # another\n" + BASE.replace("\n\n", "\n   ;\n"), None),
    "colon": (BASE.replace("gap_mm = 2", "gap_mm: 2"), None),
    "first-delimiter": (
        BASE.replace("spacing = logarithmic", "spacing: = linear"),
        "unknown spacing '= linear'",
    ),
    "crlf": (BASE.replace("\n", "\r\n"), None),
    "key-before-header": ("gap_mm = 2\n" + BASE, "line 1: key 'gap_mm' before any [section]"),
    "duplicate-section": (BASE + "[coil]\n", "line 20: section [coil] given a second time"),
    "duplicate-key": (
        BASE.replace("gap_mm = 2", "gap_mm = 2\ngap_mm = 3"),
        "line 6: [coil] gap_mm given a second time",
    ),
    "no-delimiter": (
        BASE.replace("gap_mm = 2", "gap_mm 2"),
        "line 5: expected [section] or key = value, got 'gap_mm 2'",
    ),
    "empty-key": (BASE.replace("gap_mm = 2", " = 2"), "line 5: no key before '='"),
    "semicolon-without-space": (
        BASE.replace("gap_mm = 2", "gap_mm = 2;mm"),
        "[coil] gap_mm = '2;mm' is not a number",
    ),
    "percent": (BASE.replace("gap_mm = 2", "gap_mm = 2%"), "[coil] gap_mm = '2%' is not a number"),
}


@pytest.mark.parametrize("text, message", GRAMMAR.values(), ids=GRAMMAR)
def test_grammar_agrees_with_configparser(tmp_path, capsys, text, message):
    path = _write(tmp_path, text)
    if message is None:
        scen = load_scenario(path)
        assert scen == configparser_scenario(path) and _is_base(tmp_path, scen)
        return
    with pytest.raises((configparser.Error, ValueError)):
        configparser_scenario(path)
    assert message in _cli_error(path, capsys)


# Where the two part on purpose: configparser read an indented line into the
# value above it, expanded %(key)s, and took the text after a header's ']'
# for nothing.


def test_indented_line_reads_like_any_other(tmp_path):
    path = _write(tmp_path, BASE.replace("gap_mm = 2", "    gap_mm = 2"))
    with pytest.raises(ValueError, match=r"height_mm = '8\\ngap_mm = 2' is not a number"):
        configparser_scenario(path)
    assert _is_base(tmp_path, load_scenario(path))


def test_percent_is_not_interpolated(tmp_path, capsys):
    path = _write(tmp_path, BASE.replace("liftoff_mm = 1", "liftoff_mm = %(gap_mm)s"))
    assert configparser_scenario(path).coil.liftoff == 2e-3
    assert "[coil] liftoff_mm = '%(gap_mm)s' is not a number" in _cli_error(path, capsys)


@pytest.mark.parametrize("header", ["[coil];x", "[coil] x"])
def test_header_is_the_whole_line(tmp_path, capsys, header):
    path = _write(tmp_path, BASE.replace("[coil]", header))
    assert _is_base(tmp_path, configparser_scenario(path))
    assert f"line 1: expected [section] or key = value, got {header!r}" in _cli_error(path, capsys)
