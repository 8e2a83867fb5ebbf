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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectrum=spectra())
@example(spectrum=EDGE_SPECTRUM)
def test_spectrum_csv_round_trip_is_bitwise(tmp_path_factory, spectrum):
    path = str(tmp_path_factory.mktemp("csv") / "spectrum.csv")
    write_spectrum_csv(path, spectrum)
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
