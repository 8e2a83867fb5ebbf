import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eddyplate
from eddyplate import MU_0, Plate, QuadratureSpec, default_sensor, generalized_reflection
from eddyplate import dodd_deeds, te_layered
from eddyplate.dodd_deeds import _kernel_table

from oracles import (
    HALF_SPACE_EXPONENT,
    complex_sqrt_reflection,
    fresnel,
    series_reflection,
    wavenumber,
)

# The five plates of the benchmark, a vacuum slab, and a thick magnetic
# conductor whose high-frequency elements are in the half-space regime.
BITWISE_PLATES = (
    Plate(59.8e6, 0.56e-3),
    Plate(16.744e6, 2.0e-3),
    Plate(36.9e6, 20e-6),
    Plate(36.9e6 * 20e-6 / 55e-6, 55e-6),
    Plate(5.0e6, 1.0e-3, 200.0),
    Plate(0.0, 1e-3),
    Plate(1e8, 5e-2, 1000.0),
)


def assert_bitwise_equal(a, b):
    """Same complex values bit for bit, signed zeros included."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    assert a.dtype == b.dtype == np.complex128
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_public_surface():
    # The per-interface wavenumbers and Fresnel coefficients are test oracles
    # (oracles.py), not part of the package.
    assert sorted(eddyplate.__all__) == [
        "CoilPair",
        "EquivalenceReport",
        "InductanceSpectrum",
        "MU_0",
        "Plate",
        "QuadratureConvergenceError",
        "QuadratureSpec",
        "SigmaDFit",
        "SweepSpec",
        "TruncationWarning",
        "compare",
        "default_sensor",
        "delta_L",
        "delta_L_air",
        "derive_alpha0",
        "equivalent_plate",
        "fit_sigma_d",
        "frequency_grid",
        "generalized_reflection",
        "normalized_response_thin",
        "sweep",
    ]
    for name in eddyplate.__all__:
        assert getattr(eddyplate, name) is not None
    for module in (eddyplate, te_layered):
        for name in ("wavenumber", "fresnel", "InterfaceCoeffs"):
            assert not hasattr(module, name)


def test_wavenumber_sigma_zero_is_alpha0():
    k = wavenumber(166.67, 2 * np.pi * 123e3, 0.0, MU_0)
    assert k.imag == 0.0
    assert k.real == pytest.approx(166.67, rel=1e-15)


def test_wavenumber_copper_100khz():
    # frozen from a 40-digit evaluation of sqrt(alpha0^2 + j w sigma mu0)
    k = wavenumber(1.0 / 0.006, 2 * np.pi * 100e3, 59.8e6, MU_0)
    assert k.real == pytest.approx(4860.2455392483729, rel=1e-13)
    assert k.imag == pytest.approx(4857.3870469632054, rel=1e-13)


def test_wavenumber_principal_branch():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = wavenumber(
            rng.uniform(1, 1e4),
            2 * np.pi * 10 ** rng.uniform(0, 7),
            10 ** rng.uniform(4, 8),
            MU_0,
        )
        assert k.real > 0.0
        assert k.imag >= 0.0


def test_wavenumber_skin_depth_asymptote():
    sigma, mu, alpha0 = 59.8e6, MU_0, 166.67
    omega = 2 * np.pi * 1e12  # far above any alpha0 influence
    k = wavenumber(alpha0, omega, sigma, mu)
    scale = np.sqrt(omega * sigma * mu / 2.0)
    assert k / scale == pytest.approx(1.0 + 1.0j, rel=1e-6)


def test_fresnel_identities_grid():
    """T = 1 + R to machine precision, antisymmetry, matched media."""
    rng = np.random.default_rng(11)
    count = 0
    while count < 1000:
        a0 = rng.uniform(10, 5e3)
        omega = 2 * np.pi * 10 ** rng.uniform(1, 6)
        sig_i = rng.uniform(0, 60e6)
        sig_j = rng.uniform(0, 60e6)
        mu_i = MU_0 * rng.uniform(1, 100)
        mu_j = MU_0 * rng.uniform(1, 100)
        k_i = wavenumber(a0, omega, sig_i, mu_i)
        k_j = wavenumber(a0, omega, sig_j, mu_j)
        r, t = fresnel(k_i, k_j, mu_i, mu_j)
        assert t == 1.0 + r  # exact algebraic identity
        assert abs(r) <= 1.0 + 1e-12
        # antisymmetry for equal permeabilities
        r_eq, _ = fresnel(k_i, k_j, mu_i, mu_i)
        r_swap, _ = fresnel(k_j, k_i, mu_i, mu_i)
        assert r_swap == pytest.approx(-r_eq, abs=1e-15)
        count += 1

    # matched media
    k = wavenumber(166.67, 2 * np.pi * 1e5, 1e7, MU_0)
    r, t = fresnel(k, k, MU_0, MU_0)
    assert r == 0.0
    assert t == 1.0


def test_fresnel_perfect_conductor_limit():
    k_i = wavenumber(166.67, 2 * np.pi * 1e5, 0.0, MU_0)
    k_j = wavenumber(166.67, 2 * np.pi * 1e5, 1e16, MU_0)
    r, _ = fresnel(k_i, k_j, MU_0, MU_0)
    assert r == pytest.approx(-1.0, abs=1e-4)


def test_fresnel_degenerate_denominator():
    with pytest.raises(ZeroDivisionError):
        fresnel(0.0 + 0.0j, 0.0 + 0.0j, MU_0, MU_0)


def test_generalized_reflection_vacuum_slab():
    plate = Plate(conductivity=0.0, thickness=3e-3)
    assert generalized_reflection(500.0, 2 * np.pi * 1e5, plate) == 0.0


def test_generalized_reflection_half_space_limit():
    omega = 2 * np.pi * 1e5
    a0 = 166.67
    thick = Plate(conductivity=59.8e6, thickness=10.0)  # many skin depths
    k1 = wavenumber(a0, omega, 0.0, MU_0)
    k2 = wavenumber(a0, omega, 59.8e6, MU_0)
    r_half, _ = fresnel(k1, k2, MU_0, MU_0)
    assert generalized_reflection(a0, omega, thick) == pytest.approx(r_half, rel=1e-12)


def test_generalized_reflection_copper_brass_pairing():
    """Equal sigma*D plates give nearly identical layer reflection."""
    a0 = 166.67
    omega = 2 * np.pi * 100e3
    cu = generalized_reflection(a0, omega, Plate(59.8e6, 0.56e-3))
    br = generalized_reflection(a0, omega, Plate(16.744e6, 2.00e-3))
    assert abs(cu - br) / abs(cu) < 0.05  # pairing, not equality
    # and the two values individually match the series oracle
    for plate, closed in ((Plate(59.8e6, 0.56e-3), cu), (Plate(16.744e6, 2.00e-3), br)):
        oracle, _ = series_reflection(a0, omega, plate)
        assert closed == pytest.approx(oracle, rel=1e-9)


def test_closed_form_matches_series_randomized():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        plate = Plate(
            conductivity=rng.uniform(1e6, 60e6),
            thickness=10 ** rng.uniform(np.log10(10e-6), np.log10(5e-3)),
        )
        a0 = rng.uniform(50, 5000)
        omega = 2 * np.pi * 10 ** rng.uniform(1, 6)
        k2 = wavenumber(a0, omega, plate.conductivity, MU_0)
        r21, _ = fresnel(k2, wavenumber(a0, omega, 0.0, MU_0), MU_0, MU_0)
        if abs(r21 * r21 * np.exp(-2 * k2 * plate.thickness)) >= 0.99:
            continue
        oracle, _ = series_reflection(a0, omega, plate)
        closed = generalized_reflection(a0, omega, plate)
        assert closed == pytest.approx(oracle, rel=1e-9)
        checked += 1


def test_reflection_magnitude_nondecreasing_in_thickness():
    """More material reflects more, until internal interference sets in.

    The monotone check is restricted to the pre-interference regime
    (small internal phase 2 Im(k2) D); past it the magnitude genuinely
    overshoots and dips at the percent level.
    """
    a0 = 166.67
    for omega, sigma in ((2 * np.pi * 1e3, 1e6), (2 * np.pi * 5e3, 1e6)):
        thicknesses = np.geomspace(1e-6, 10e-3, 60)
        mags = [abs(generalized_reflection(a0, omega, Plate(sigma, d))) for d in thicknesses]
        assert np.all(np.diff(mags) >= -1e-12)
    # denser interference-limited grid: monotone up to the first phase wrap
    omega, sigma = 2 * np.pi * 50e3, 16.744e6
    k2_imag = wavenumber(a0, omega, sigma, MU_0).imag
    d_wrap = 0.25 * np.pi / (2.0 * k2_imag)
    thicknesses = np.geomspace(1e-6, d_wrap, 40)
    mags = [abs(generalized_reflection(a0, omega, Plate(sigma, d))) for d in thicknesses]
    assert np.all(np.diff(mags) >= -1e-12)


# generalized_reflection against the complex-sqrt form, relative to |R~|: the
# kernel takes k2 without hypot and R~ by three products and one division
# (4.6 eps measured on the grid below).
ULP_BOUND = 8 * np.finfo(float).eps


def in_domain(alpha0, omega, plate):
    """The elements that the docstring of generalized_reflection puts in the
    domain of its three-product form."""
    mu_r = plate.relative_permeability
    k1 = np.abs(alpha0)
    c = np.abs(omega * plate.conductivity * (MU_0 * mu_r))
    return (mu_r <= 1e75) & (k1 <= 1e75 / mu_r) & (c <= 1e150) & ((k1 >= 1e-50) | (c >= 1e-100))


def assert_matches_complex_sqrt_form(value, alpha0, omega, plate):
    """Within ULP_BOUND of complex_sqrt_reflection."""
    value = np.atleast_1d(value)
    oracle = np.atleast_1d(complex_sqrt_reflection(alpha0, omega, plate))
    assert np.all(np.abs(value - oracle) <= ULP_BOUND * np.abs(oracle))


def test_generalized_reflection_matches_complex_sqrt_form():
    coil = default_sensor()
    nodes = _kernel_table(coil, QuadratureSpec().resolve_alpha_max(coil), 128)[0]
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, 400)
    half_space_elements = 0
    for plate in BITWISE_PLATES:
        for start in range(0, omegas.size, 50):
            w = omegas[start : start + 50, None]
            grid = np.broadcast_to(nodes, (w.size, nodes.size))
            assert np.all(in_domain(grid, w, plate))
            # one row per oracle call: below numpy's 256 KiB temporary
            # elision, whose in-place products would change the oracle's bits
            values = generalized_reflection(grid, w, plate)
            for i in range(w.size):
                assert_matches_complex_sqrt_form(values[i], nodes, w[i], plate)
            k2 = wavenumber(grid, w, plate.conductivity, MU_0 * plate.relative_permeability)
            x_re = 2.0 * k2.real * plate.thickness
            half_space_elements += int(np.count_nonzero(x_re > HALF_SPACE_EXPONENT))
    assert half_space_elements > 0, "the grid never reaches the half-space regime"


def test_generalized_reflection_bitwise_scalar_and_negative_alpha():
    # A scalar call rounds as the same element of an array call, and within
    # ULP_BOUND of the complex-sqrt form on a 1-element array.
    omega = 2 * np.pi * 1e5
    alphas = np.geomspace(1e-3, 1e5, 50)
    scalars = (166.67, -166.67, np.float64(3e4), np.array(1e-3), *map(float, alphas))
    for plate in BITWISE_PLATES + (Plate(1.0, 1e-6),):
        row = generalized_reflection(np.array(scalars), omega, plate)
        for a0, element in zip(scalars, row):
            value = generalized_reflection(a0, omega, plate)
            assert type(value) is np.complex128
            assert_bitwise_equal(value, element)
            assert_matches_complex_sqrt_form(value, np.array([a0]), omega, plate)
        # k1 = sqrt(alpha0^2): the sign of alpha0 never matters
        assert_matches_complex_sqrt_form(generalized_reflection(-alphas, omega, plate), -alphas, omega, plate)
        assert_bitwise_equal(
            generalized_reflection(-alphas, omega, plate),
            generalized_reflection(alphas, omega, plate),
        )


def _largest(omega, below, plate):
    """The largest angular frequency up to ``omega`` whose c = omega sigma mu2,
    formed as the kernel forms it, is at most ``below``."""
    while omega * plate.conductivity * (MU_0 * plate.relative_permeability) > below:
        omega = np.nextafter(omega, 0.0)
    return omega


def slab(conductivity, thickness, mu_r):
    """A stand-in for Plate with the attributes the kernel reads, free of the
    input ranges that Plate checks: the kernel's domain reaches past them."""
    return SimpleNamespace(conductivity=conductivity, thickness=thickness, relative_permeability=mu_r)


def test_generalized_reflection_at_the_edges_of_its_domain():
    # The domain's edges: mu_r |alpha0| = 1e75 and c = 1e150, where no square
    # overflows, and |alpha0| = 1e-50 with c below 1e-100 (0 on the vacuum
    # slab), or c = 1e-100 with alpha0 down to 1e-300, where the terms stay
    # normal. Every element is within ULP_BOUND of 150-digit mpmath (1 - E
    # cancels some 53 digits of it at the bottom) and no call warns. mu_r =
    # 1e20 is past the range of Plate.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu_r in (1.0, 200.0, 1e4, 1e20):
            top, bottom = slab(5e6, 1e-3, mu_r), slab(1e-100, 1e-3, mu_r)
            edge = 1e75 / mu_r
            while mu_r * edge > 1e75:
                edge = np.nextafter(edge, 0.0)
            # c = 1e75 * 1e75, which rounds two ulp below the literal 1e150
            c_max = 1e75 * 1e75
            omega_top = _largest(c_max / (top.conductivity * MU_0 * mu_r), c_max, top)
            # the smallest omega whose c is at least 1e-100
            omega_bottom = _largest(1e-100 / (bottom.conductivity * MU_0 * mu_r), 1e-100, bottom)
            omega_bottom = np.nextafter(omega_bottom, np.inf)
            cases = (
                (top, (1.0, edge), (1.0, omega_top)),
                (bottom, (1e-50, 1.0), (1e-3, 1.0)),
                (slab(0.0, 1e-3, mu_r), (1e-50, 1.0), (1.0, 1e3)),
                (bottom, (1e-300, 1e-60), (omega_bottom, 1.0)),
            )
            for plate, alphas, omegas in cases:
                values = generalized_reflection(np.array(alphas)[:, None], np.array(omegas), plate)
                for (i, j), value in np.ndenumerate(values):
                    exact = mp_reflection(alphas[i], omegas[j], plate, digits=150)
                    assert abs(value - exact) <= ULP_BOUND * abs(exact), (mu_r, alphas[i], omegas[j])


def _im_k2(alpha0, c):
    """Im k2 rounded as the docstring of generalized_reflection forms it:
    (c / 2) / t with t^2 = sqrt((alpha0^2 / 2)^2 + (c / 2)^2) + alpha0^2 / 2."""
    half_a2, half_c = 0.5 * (alpha0 * alpha0), 0.5 * c
    return half_c / np.sqrt(np.sqrt(half_a2 * half_a2 + half_c * half_c) + half_a2)


def test_generalized_reflection_where_tau_is_largest():
    # tau = tan(D Im k2) is largest where D Im k2 is the double nearest a
    # pole, (k + 1/2) pi: 1.6e16 at k = 0. X and Y then carry |1 + j tau|,
    # and the products reach some 1e166 at the domain's edges, c = 1e150
    # and mu_r |alpha0| = 1e75. Every element is finite, within ULP_BOUND of
    # 150-digit mpmath, and no call warns.
    mpmath = pytest.importorskip("mpmath")
    c_max = 1e75 * 1e75
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for mu_r in (1.0, 200.0, 1e20):
            edge = 1e75 / mu_r
            while mu_r * edge > 1e75:
                edge = np.nextafter(edge, 0.0)
            conductor = slab(5e6, 1.0, mu_r)
            omega_max = _largest(c_max / (conductor.conductivity * MU_0 * mu_r), c_max, conductor)
            for alpha, omega in ((1.0, omega_max), (edge, omega_max), (edge, 1.0)):
                c = omega * conductor.conductivity * (MU_0 * mu_r)
                s = _im_k2(alpha, c)
                for k in (0, 1, 5):
                    with mpmath.workdps(40):
                        pole = float((k + 0.5) * mpmath.pi)
                    # of the thicknesses next to pole / s, the one whose D s
                    # rounds nearest the pole: a spacing of D moves D s by up
                    # to two of the pole's, so D s may miss its double by one
                    near = pole / s + np.spacing(pole / s) * np.arange(-4, 5)
                    thickness = near[np.argmax(np.abs(np.tan(near * s)))]
                    assert abs(np.tan(thickness * s)) >= 0.5 / np.spacing(pole)
                    plate = slab(conductor.conductivity, thickness, mu_r)
                    value = generalized_reflection(alpha, omega, plate)
                    exact = mp_reflection(alpha, omega, plate, digits=150)
                    assert np.isfinite(value)
                    assert abs(value - exact) <= ULP_BOUND * abs(exact), (mu_r, alpha, omega, k)


def test_generalized_reflection_bits_do_not_depend_on_call_size():
    # 40,000 elements are past numpy's 256 KiB temporary elision, which
    # would make products in place with their operands swapped; expm1 and
    # the products of X and Y write into strided .real and .imag views.
    alphas = np.geomspace(1e-3, 1e4, 40_000)
    for plate in BITWISE_PLATES:
        for frequency in (10.0, 1e3, 1e5):
            omega = 2 * np.pi * frequency
            pieces = [generalized_reflection(part, omega, plate) for part in np.split(alphas, 80)]
            assert_bitwise_equal(generalized_reflection(alphas, omega, plate), np.concatenate(pieces))


def test_generalized_reflection_memory_of_a_delta_L_block(monkeypatch):
    # The largest block of delta_L, (frequencies x nodes) of the default
    # sensor: a sweep makes one block while its size rounds to one
    # _BLOCK_ELEMENTS, about 1.5 x 16,384 elements. The kernel's five buffers
    # and numpy's iteration buffers come to 5.4 complex arrays of the block's
    # size; one more temporary of the block's size would pass 6.
    coil = default_sensor()
    quad = QuadratureSpec()
    nodes = _kernel_table(coil, quad.resolve_alpha_max(coil), quad.n_panels)[0]
    rows = []

    def recording(alpha0, omega, plate):
        rows.append(np.broadcast(alpha0, omega).shape[0])
        return generalized_reflection(alpha0, omega, plate)

    # the blocks of every sweep of up to 400 frequencies of the benchmark's band
    monkeypatch.setattr(dodd_deeds, "generalized_reflection", recording)
    for n in range(1, 401):
        dodd_deeds.delta_L(coil, Plate(59.8e6, 0.56e-3), 2 * np.pi * np.geomspace(10.0, 1e6, n), quad)
    monkeypatch.undo()
    omegas = 2 * np.pi * np.geomspace(10.0, 1e6, max(rows))
    assert 1.4 * dodd_deeds._BLOCK_ELEMENTS < omegas.size * nodes.size < 1.5 * dodd_deeds._BLOCK_ELEMENTS
    tracemalloc.start()
    try:
        generalized_reflection(nodes[None, :], omegas[:, None], Plate(5.0e6, 1.0e-3, 200.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * omegas.size * nodes.size * np.dtype(complex).itemsize


def mp_reflection(alpha0, omega, plate, digits=60):
    """Oracle: R~ = r (1 - E) / (1 - r^2 E) straight from its definition at 60 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        mu1 = mpmath.mpf(MU_0)
        mu2 = mu1 * mpmath.mpf(plate.relative_permeability)
        k1 = mpmath.mpf(alpha0)
        k2 = mpmath.sqrt(k1 * k1 + 1j * mpmath.mpf(omega) * mpmath.mpf(plate.conductivity) * mu2)
        r = (mu2 * k1 - mu1 * k2) / (mu2 * k1 + mu1 * k2)
        E = mpmath.exp(-2 * k2 * mpmath.mpf(plate.thickness))
        return complex(r * (1 - E) / (1 - r * r * E))


def test_generalized_reflection_against_mpmath():
    # alpha from below the default sensor's lowest quadrature node, alpha_max
    # 1e-9 = 6.7e-6 1/m, to beyond its alpha_max of 6,667 1/m
    alphas = np.geomspace(1e-6, 1e5, 34)
    omegas = 2 * np.pi * np.geomspace(1.0, 1e7, 15)
    plates = (
        Plate(59.8e6, 0.56e-3),         # copper
        Plate(36.9e6, 20e-6),           # aluminium foil
        Plate(5.0e6, 1.0e-3, 200.0),    # magnetic steel
        Plate(1.0, 1e-6),               # weakly conducting film
        Plate(1e3, 1e-2),               # poor conductor, thick
        Plate(1e4, 5e-6, 1.04),         # r -> -1 and E -> 1 at small alpha
    )
    worst = 0.0
    for plate in plates:
        values = generalized_reflection(alphas[:, None], omegas[None, :], plate)
        for (i, j), value in np.ndenumerate(values):
            exact = mp_reflection(alphas[i], omegas[j], plate)
            worst = max(worst, abs(value - exact) / abs(exact))
    assert worst < 1e-13


def test_generalized_reflection_against_mpmath_near_tangent_poles_and_zeros():
    # 1 - E takes tan(D Im k2), which is infinite at (k + 1/2) pi and zero at
    # k pi. Drive D Im k2 to within 1e-9 relative of each: with s = Im k2,
    # k2^2 = alpha0^2 + j c gives c = 2 s sqrt(alpha0^2 + s^2).
    plates = (
        Plate(59.8e6, 0.56e-3),         # copper
        Plate(1e4, 5e-6, 1.04),         # film
        Plate(5.0e6, 1.0e-3, 200.0),    # magnetic steel
    )
    angles = [k * np.pi for k in range(1, 6)] + [(k + 0.5) * np.pi for k in range(6)]
    shifts = np.array([-9e-10, -1e-12, 0.0, 1e-12, 9e-10])
    worst = 0.0
    for plate in plates:
        for alpha in (1e-3, 10.0, 300.0):
            s = np.outer(angles, 1.0 + shifts).ravel() / plate.thickness
            c = 2.0 * s * np.sqrt(alpha * alpha + s * s)
            omegas = c / (plate.conductivity * MU_0 * plate.relative_permeability)
            values = generalized_reflection(alpha, omegas, plate)
            for omega, value in zip(omegas, values):
                assert_bitwise_equal(generalized_reflection(alpha, omega, plate), value)
                exact = mp_reflection(alpha, omega, plate)
                worst = max(worst, abs(value - exact) / abs(exact))
    assert worst < 1e-13


def _log_uniform(lo, hi):
    """Floats from lo to hi, drawn uniformly in the exponent."""
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    alpha=st.one_of(st.just(0.0), _log_uniform(1e-9, 1e9)),
    omega=_log_uniform(1e-3, 1e10),
    conductivity=st.one_of(st.just(0.0), _log_uniform(1e-3, 1e9)),
    mu_r=st.one_of(st.just(1.0), _log_uniform(1.0, 1e4)),
    thickness=_log_uniform(1e-9, 10.0),
)
def test_reflection_magnitude_at_most_one(alpha, omega, conductivity, mu_r, thickness):
    # A passive plate reflects no more than it receives. The truncation check
    # of the full solver bounds the tail with |phi| <= 1. (alpha = sigma = 0
    # leaves k1 = k2 = 0, a degenerate interface, and is not drawn.)
    if alpha == 0.0 and conductivity == 0.0:
        alpha = 1e-9
    phi = generalized_reflection(alpha, omega, Plate(conductivity, thickness, mu_r))
    assert abs(phi) <= 1.0 + 4 * np.finfo(float).eps
