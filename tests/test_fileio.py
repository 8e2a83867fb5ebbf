import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eddyplate import InductanceSpectrum
from eddyplate.fileio import read_spectrum_csv, write_spectrum_csv
from eddyplate.model import RANGES

F_MIN, F_MAX, _ = RANGES["frequency"]
# Every finite double: hypothesis favours the edges (subnormals, -0.0, the
# largest and smallest exponents) besides ordinary values.
finite = st.floats(allow_nan=False, allow_infinity=False)
frequencies = st.lists(st.floats(min_value=F_MIN, max_value=F_MAX), min_size=1, max_size=20, unique=True).map(
    sorted
)


@st.composite
def spectra(draw):
    freqs = draw(frequencies)
    parts = draw(st.lists(st.tuples(finite, finite), min_size=len(freqs), max_size=len(freqs)))
    delta = np.empty(len(freqs), dtype=complex)
    delta.real, delta.imag = np.array(parts).T
    return InductanceSpectrum(freqs, delta, normalized=draw(st.booleans()), model_tag="dodd_deeds")


def _complex(re, im):
    """re + 1j im part by part, keeping -0.0 in either."""
    values = np.empty(np.size(re), dtype=complex)
    values.real, values.imag = re, im
    return values


# The edges once each, whatever the draws: a signed zero in either part next
# to both signs of the other, subnormals and the extreme exponents.
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1.0, -1.7976931348623157e308]
EDGE_RE, EDGE_IM = np.meshgrid(EDGES, EDGES)
EDGE_SPECTRUM = InductanceSpectrum(
    np.concatenate([[F_MIN], np.arange(1.0, EDGE_RE.size - 1), [F_MAX]]),
    _complex(EDGE_RE.ravel(), EDGE_IM.ravel()),
    normalized=True,
    model_tag="dodd_deeds",
)
# The ends of the frequency range and their neighbours inside it; in delta_L
# the smallest subnormal and normal and the largest double, with -0.0 in each part.
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]
EXTREME_SPECTRUM = InductanceSpectrum(
    [F_MIN, np.nextafter(F_MIN, 1.0), np.nextafter(F_MAX, 0.0), F_MAX],
    _complex([-0.0, *EXTREMES[1:]], [*EXTREMES[:3], -0.0]),
    normalized=False,
    model_tag="dodd_deeds",
)


def _reference_rows(spectrum):
    """The data rows formatted one at a time from numpy scalars, as the writer once did."""
    return "".join(
        f"{f:.17g},{v.real:.17g},{v.imag:.17g}\n"
        for f, v in zip(spectrum.frequencies, spectrum.delta_L)
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=spectra())
@example(spectrum=EDGE_SPECTRUM)
@example(spectrum=EXTREME_SPECTRUM)
def test_spectrum_csv_round_trip_is_bitwise(tmp_path_factory, spectrum):
    folder = tmp_path_factory.mktemp("csv")
    path, again = str(folder / "spectrum.csv"), str(folder / "again.csv")
    write_spectrum_csv(path, spectrum, {"alpha0": 166.66666666666666, "plate": "copper"})
    with open(path, encoding="utf-8") as fh:
        assert fh.read().partition("freq_hz,dL_re,dL_im\n")[2] == _reference_rows(spectrum)
    back = read_spectrum_csv(path)
    for written, read in (
        (spectrum.frequencies, back.frequencies),
        (spectrum.delta_L.real, back.delta_L.real),
        (spectrum.delta_L.imag, back.delta_L.imag),
    ):
        assert read.dtype == np.float64
        assert written.tobytes() == read.tobytes()
    assert back.normalized is spectrum.normalized
    assert back.model_tag == spectrum.model_tag
    # the model and the flag are fields only, so a second write gives the
    # same bytes, and an edited field is what is read back
    assert dict(back.metadata) == {"alpha0": 166.66666666666666, "plate": "copper"}
    write_spectrum_csv(again, back)
    with open(path, "rb") as first, open(again, "rb") as second:
        assert first.read() == second.read()
    edited = dataclasses.replace(back, normalized=not back.normalized, model_tag="edited")
    write_spectrum_csv(again, edited)
    edited_back = read_spectrum_csv(again)
    assert (edited_back.normalized, edited_back.model_tag) == (edited.normalized, "edited")


def test_spectrum_csv_without_rows_is_rejected(tmp_path):
    for body in ("# normalized=true\nfreq_hz,dL_re,dL_im\n", ""):
        path = tmp_path / "empty.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"{path}: no data rows"):
            read_spectrum_csv(str(path))


def test_spectrum_csv_writer_refuses_non_finite_values(tmp_path):
    # A spectrum holds no non-finite value, so the writer never meets one;
    # the reader refuses such a row through the same rule.
    delta = np.array([1.0 + 1.0j, complex(np.nan, 0.0), complex(0.0, np.inf)])
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="^non-finite delta_L at freq_hz = 20$"):
        write_spectrum_csv(str(path), InductanceSpectrum([10.0, 20.0, 30.0], delta, False, "dodd_deeds"))
    assert not path.exists()

    path.write_text("# normalized=false\nfreq_hz,dL_re,dL_im\n10,1,1\n20,nan,0\n30,0,inf\n")
    with pytest.raises(ValueError, match=f"^{path}: non-finite delta_L at freq_hz = 20$"):
        read_spectrum_csv(str(path))


@pytest.mark.parametrize(
    "freqs, values, message",
    [
        ({}, {1: np.nan, 2: np.inf}, "non-finite delta_L at freq_hz = 20$"),
        ({0: -5.0}, {2: np.inf}, r"freq_hz must be from 1e-09 to 1e\+15 Hz, got -5.0 Hz$"),
        ({1: 0.0}, {1: complex(0.0, np.nan)}, "strictly increasing$"),
        ({1: np.nan}, {}, "strictly increasing$"),
    ],
    ids=["non-finite-first", "not-above-zero-first", "both-in-one-row", "nan-freq"],
)
def test_spectrum_csv_writer_names_the_first_bad_row(tmp_path, freqs, values, message):
    # The spectrum refuses a bad row when it is built, before a file is
    # opened: its frequencies first, then the first non-finite value.
    f, delta = np.array([10.0, 20.0, 30.0]), np.ones(3, dtype=complex)
    for row, freq in freqs.items():
        f[row] = freq
    for row, value in values.items():
        delta[row] = value
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=message):
        write_spectrum_csv(str(path), InductanceSpectrum(f, delta, True, "thin_plate"))
    assert not path.exists()


@pytest.mark.parametrize("freq", [-5.0, 0.0, -0.0])
def test_spectrum_csv_rejects_frequencies_not_above_zero(tmp_path, freq):
    # model.RANGES' frequency range, on both sides of the file: the spectrum
    # refuses the row, and the reader names the file and the row's freq_hz.
    message = rf"freq_hz must be from 1e-09 to 1e\+15 Hz, got {freq!r} Hz$"
    with pytest.raises(ValueError, match=f"^{message}"):
        InductanceSpectrum([freq, 20.0, 30.0], np.ones(3, dtype=complex), True, "thin_plate")

    path = tmp_path / "bad.csv"
    path.write_text(f"# normalized=true\nfreq_hz,dL_re,dL_im\n{freq!r},-0.5,0.1\n10,-0.5,0.1\n")
    with pytest.raises(ValueError, match=f"^{path}: {message}"):
        read_spectrum_csv(str(path))


# The ten metadata lines of a thin_plate spectrum that cli.main writes.
THIN_PLATE_HEADER = "".join(
    f"# {line}\n"
    for line in (
        "eddyplate_spectrum_format=1", "model=thin_plate", "normalized=true", "alpha0=166.66666666666666",
        "coil=r=0.006:0.006315 h=0.008 gap=0.002 liftoff=0.001 turns=25/25", "conductivity_Sm=59800000.0",
        "plate=copper", "scenario_sha256=0", "thickness_m=0.00056", "tool_version=0.1.0",
    )
)


def test_spectrum_csv_reader_names_the_line_of_a_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# normalized=true\nfreq_hz,dL_re,dL_im\n10,-0.5,0.1\n20,-0.5\n")
    with pytest.raises(ValueError, match=f"^{path}:4: expected 3 numbers, got '20,-0.5'$"):
        read_spectrum_csv(str(path))


@pytest.mark.parametrize(
    "header, rows, message",
    [
        # rows of 2 and 4 fields hold two rows' numbers, but neither is a row
        (THIN_PLATE_HEADER, "1000,-0.5,0.1\n10,1\n20,2,3,4\n", ":13: expected 3 numbers, got '10,1'"),
        # the first line refused is named, whatever a later one's problem
        ("", "10,x,0.1\n20,-0.5\n", ":2: expected 3 numbers, got '10,x,0.1'"),
        ("", "10,x,0.1\n# eddyplate_spectrum_format=2\n", ":2: expected 3 numbers, got '10,x,0.1'"),
        ("", "10,-0.5,0.1\n# eddyplate_spectrum_format=2\n20,x\n", ":3: unsupported eddyplate_spectrum_format '2'"),
    ],
    ids=["rows-of-2-and-4", "number-before-count", "number-before-format", "format-before-count"],
)
def test_spectrum_csv_reader_names_the_first_refused_line(tmp_path, header, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text(header + "freq_hz,dL_re,dL_im\n" + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}"):
        read_spectrum_csv(str(path))


def test_spectrum_csv_skips_blank_lines(tmp_path):
    rows = ["10,-0.5,0.25", "20,-0.75,0.125", "30,-1,0"]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("# normalized=true\nfreq_hz,dL_re,dL_im\n" + "\n".join(rows) + "\n")
    spaced.write_text("# normalized=true\n\nfreq_hz,dL_re,dL_im\n\n" + "\n  \n".join(rows) + "\n\n")
    a, b = read_spectrum_csv(str(plain)), read_spectrum_csv(str(spaced))
    assert a.frequencies.tolist() == b.frequencies.tolist() == [10.0, 20.0, 30.0]
    assert a.delta_L.tobytes() == b.delta_L.tobytes()
