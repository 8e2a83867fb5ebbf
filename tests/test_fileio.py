import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eddyplate import InductanceSpectrum
from eddyplate.fileio import read_spectrum_csv, write_spectrum_csv

# Every finite double: hypothesis favours the edges (subnormals, -0.0, the
# largest and smallest exponents) besides ordinary values.
finite = st.floats(allow_nan=False, allow_infinity=False)
frequencies = st.lists(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=20, unique=True
).map(sorted)


@st.composite
def spectra(draw):
    freqs = draw(frequencies)
    parts = draw(st.lists(st.tuples(finite, finite), min_size=len(freqs), max_size=len(freqs)))
    delta = np.empty(len(freqs), dtype=complex)
    delta.real, delta.imag = np.array(parts).T
    return InductanceSpectrum(freqs, delta, normalized=draw(st.booleans()), model_tag="dodd_deeds")


# The edges once each, whatever the draws: a signed zero in either part next
# to both signs of the other, subnormals and the extreme exponents.
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1.0, -1.7976931348623157e308]
EDGE_RE, EDGE_IM = np.meshgrid(EDGES, EDGES)
EDGE_SPECTRUM = InductanceSpectrum(
    np.concatenate([[5e-324], np.arange(1.0, EDGE_RE.size - 1), [1.7976931348623157e308]]),
    np.empty(EDGE_RE.size, dtype=complex),
    normalized=True,
    model_tag="dodd_deeds",
)
EDGE_SPECTRUM.delta_L.real, EDGE_SPECTRUM.delta_L.imag = EDGE_RE.ravel(), EDGE_IM.ravel()
# The smallest subnormal and normal and the largest double, with -0.0 in each part of delta_L.
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]
EXTREME_SPECTRUM = InductanceSpectrum(
    EXTREMES, np.empty(4, dtype=complex), normalized=False, model_tag="dodd_deeds"
)
EXTREME_SPECTRUM.delta_L.real = [-0.0, *EXTREMES[1:]]
EXTREME_SPECTRUM.delta_L.imag = [*EXTREMES[:3], -0.0]


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
    path = str(tmp_path_factory.mktemp("csv") / "spectrum.csv")
    write_spectrum_csv(path, spectrum)
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


def test_spectrum_csv_without_rows_is_rejected(tmp_path):
    for body in ("# normalized=true\nfreq_hz,dL_re,dL_im\n", ""):
        path = tmp_path / "empty.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"{path}: no data rows"):
            read_spectrum_csv(str(path))


def test_spectrum_csv_writer_refuses_non_finite_values(tmp_path):
    delta = np.array([1.0 + 1.0j, complex(np.nan, 0.0), complex(0.0, np.inf)])
    spectrum = InductanceSpectrum([10.0, 20.0, 30.0], delta, normalized=False, model_tag="dodd_deeds")
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"{path}: non-finite value at freq_hz = 20;"):
        write_spectrum_csv(str(path), spectrum)
    assert not path.exists()


@pytest.mark.parametrize(
    "freqs, values, message",
    [
        ({2: 0.0}, {1: np.nan}, "non-finite value at freq_hz = 20;"),
        ({0: -5.0}, {2: np.inf}, "freq_hz = -5 is not > 0;"),
        ({1: 0.0}, {1: complex(0.0, np.nan)}, "non-finite value at freq_hz = 0;"),
        ({1: np.nan}, {}, "non-finite value at freq_hz = nan;"),
    ],
    ids=["non-finite-first", "not-above-zero-first", "both-in-one-row", "nan-freq"],
)
def test_spectrum_csv_writer_names_the_first_bad_row(tmp_path, freqs, values, message):
    # Rows are judged in file order; within a row, a non-finite value comes
    # before f <= 0. A spectrum is built valid, but its arrays can be changed.
    spectrum = InductanceSpectrum([10.0, 20.0, 30.0], np.ones(3, dtype=complex), True, "thin_plate")
    for row, freq in freqs.items():
        spectrum.frequencies[row] = freq
    for row, value in values.items():
        spectrum.delta_L[row] = value
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"{path}: {message} nothing written"):
        write_spectrum_csv(str(path), spectrum)
    assert not path.exists()


@pytest.mark.parametrize("freq", [-5.0, 0.0, -0.0])
def test_spectrum_csv_rejects_frequencies_not_above_zero(tmp_path, freq):
    # SweepSpec's rule f_min > 0, on both sides of the file. A spectrum is
    # built with f > 0, but its arrays can be changed afterwards.
    spectrum = InductanceSpectrum([10.0, 20.0, 30.0], np.ones(3, dtype=complex), True, "thin_plate")
    spectrum.frequencies[0] = freq
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"{path}: freq_hz = {freq:g} is not > 0; nothing written"):
        write_spectrum_csv(str(path), spectrum)
    assert not path.exists()

    path.write_text(f"# normalized=true\nfreq_hz,dL_re,dL_im\n10,-0.5,0.1\n{freq!r},-0.5,0.1\n")
    with pytest.raises(ValueError, match=f"{path}:4: non-finite value or freq_hz <= 0 in"):
        read_spectrum_csv(str(path))


def test_spectrum_csv_skips_blank_lines(tmp_path):
    rows = ["10,-0.5,0.25", "20,-0.75,0.125", "30,-1,0"]
    plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
    plain.write_text("# normalized=true\nfreq_hz,dL_re,dL_im\n" + "\n".join(rows) + "\n")
    spaced.write_text("# normalized=true\n\nfreq_hz,dL_re,dL_im\n\n" + "\n  \n".join(rows) + "\n\n")
    a, b = read_spectrum_csv(str(plain)), read_spectrum_csv(str(spaced))
    assert a.frequencies.tolist() == b.frequencies.tolist() == [10.0, 20.0, 30.0]
    assert a.delta_L.tobytes() == b.delta_L.tobytes()
