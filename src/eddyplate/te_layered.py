"""TE-mode plane-wave propagation through an air / plate / air stack.

Wavenumbers, interface (Fresnel) coefficients, and the generalized
reflection coefficient of a finite-thickness layer including all internal
multiples. All functions are pure and accept numpy arrays in any argument
that is not a structured object, broadcasting as usual. The solver's inner
loop, ``generalized_reflection``, forms k1 = |alpha0| and k2 in real
arithmetic that rounds exactly as ``wavenumber`` would.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import MU_0, Plate


class InterfaceCoeffs(NamedTuple):
    """Fresnel reflection/transmission amplitude ratios at one interface."""

    reflection: np.ndarray | complex
    transmission: np.ndarray | complex


def wavenumber(alpha0, omega, sigma, mu):
    """Layer wavenumber k = sqrt(alpha0^2 + j*omega*sigma*mu), principal branch.

    For sigma = 0 this collapses to the purely real alpha0; Re(k) > 0 always.
    """
    return np.sqrt(alpha0 * alpha0 + 1j * omega * sigma * mu)


def fresnel(k_i, k_j, mu_i, mu_j) -> InterfaceCoeffs:
    """Interface coefficients for a wave going from medium i into medium j.

    reflection = (mu_j k_i - mu_i k_j) / (mu_j k_i + mu_i k_j)
    transmission = 2 mu_j k_i / (mu_j k_i + mu_i k_j) = 1 + reflection
    """
    num = mu_j * k_i - mu_i * k_j
    den = mu_j * k_i + mu_i * k_j
    if np.any(np.abs(den) == 0.0):
        raise ZeroDivisionError("degenerate interface: mu_j k_i + mu_i k_j = 0")
    r = num / den
    # 2 mu_j k_i / den == 1 + r algebraically; the latter keeps the identity
    # exact in floating point as well.
    return InterfaceCoeffs(reflection=r, transmission=1.0 + r)


def _complex(real, imag):
    """Complex array assembled from its parts, with no complex arithmetic."""
    z = np.empty(np.broadcast(real, imag).shape, dtype=complex)
    z.real, z.imag = real, imag
    return z


def generalized_reflection(alpha0, omega, plate: Plate):
    """Effective reflection of the plate seen from the coil side.

    Composition of the interface multiples in closed form,

        R~ = r (1 - E) / ((1 - r^2) + r^2 (1 - E)),   E = exp(-2 k2 D),

    with r the air->plate Fresnel reflection. Both half-space interfaces are
    free space, so the plate->air reflection is exactly -r and the closed
    form collapses to the single-parameter expression above.

    Numerics: r is evaluated from the difference of squared wavenumbers
    (which is j omega sigma mu, known exactly) rather than the difference of
    square roots, 1 - E uses an expm1-style form, and 1 - r^2 =
    4 mu1 mu2 k1 k2 / den^2 shares 1 / den^2 with r. Otherwise the first two
    would lose all significant digits in the weakly conducting / large-alpha
    regime, and 1 - r^2 E where r -> -1 and E -> 1 (small alpha on an
    electrically thin plate). So |R~| <= 1 holds to round-off. Only decaying
    exponentials appear; when Re(2 k2 D) is large, 1 - E rounds to 1 and the
    half-space limit r comes out. k1 = sqrt(alpha0^2) is |alpha0| to the
    last bit (a correctly rounded square has the operand as its root),
    whatever the sign of alpha0. For alpha0 != 0 the principal
    root k2 = t + j s, t = sqrt((hypot(alpha0^2, c) + alpha0^2) / 2), s =
    (c / t) / 2, c = omega sigma mu2, is free of cancellation and is what the
    C library's csqrt, behind numpy's complex sqrt, computes.
    """
    mu2 = MU_0 * plate.relative_permeability
    k1 = np.abs(alpha0)
    a2 = alpha0 * alpha0
    c = omega * plate.conductivity * mu2
    t = np.sqrt(0.5 * (np.hypot(a2, c) + a2))
    s = 0.5 * (c / t)
    # mu2 k1 - mu1 k2 = (mu2^2 k1^2 - mu1^2 k2^2) / (mu2 k1 + mu1 k2), with mu1 = MU_0
    # and k2^2 - k1^2 = j omega sigma2 mu2 exactly. numpy fuses multiply-adds in complex
    # array products only; 0-d calls keep den, num scalars ([()]) to round as the csqrt form.
    den = _complex(mu2 * k1 + MU_0 * t, MU_0 * s)[()]
    num = _complex((mu2 * mu2 - MU_0 * MU_0) * k1 * k1, 0.0 - c * MU_0 * MU_0)[()]
    inv = 1.0 / (den * den)
    r = num * inv
    # 1 - r^2 = 4 mu1 mu2 k1 k2 / den^2 has no cancellation as r -> -1
    q = 4.0 * MU_0 * mu2 * k1
    one_minus_r2 = _complex(q * t, q * s)[()] * inv
    a = 2.0 * t * plate.thickness
    b = 2.0 * s * plate.thickness
    ea = np.exp(-a)
    # 1 - E = 1 - e^{-a} cos b + j e^{-a} sin b, with the real part split into
    # the cancellation-free pieces -expm1(-a) and e^{-a} * 2 sin^2(b/2).
    ome_re = -np.expm1(-a) + ea * 2.0 * np.sin(0.5 * b) ** 2
    one_minus_E = _complex(ome_re, ea * np.sin(b))
    return r * one_minus_E / (one_minus_r2 + r * r * one_minus_E)
