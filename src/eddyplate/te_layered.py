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

    Numerics: mu0 is divided out. r = num / den^2 with den = mu_r k1 + k2
    and num = (mu_r^2 - 1) alpha0^2 - j c, c = omega sigma mu2, from the
    difference of squared wavenumbers (k2^2 - k1^2 = j c exactly), not of
    roots; (1 - r^2) den^2 = q = 4 mu_r k1 k2. R~ is then one fraction,
    num (1 - E) / (q + num r (1 - E)), with no reciprocal. With 2 k2 D =
    a + j b, 1 - E = (e^-a tau sin b - expm1(-a)) + j e^-a sin b takes one
    tangent, tau = tan(b / 2), as sin b = 2 tau / (1 + tau^2). Otherwise r
    (weakly conducting plate, large alpha), 1 - E (small a and b) and
    1 - r^2 E (r -> -1 and E -> 1: small alpha, electrically thin plate)
    would lose all significant digits; so |R~| <= 1 holds to round-off.
    Only decaying exponentials appear: at large a, 1 - E rounds to 1 and the
    half-space limit r comes out. k1 = sqrt(alpha0^2) is |alpha0| to the
    last bit (a correctly rounded square has the operand as its root),
    whatever the sign of alpha0. For alpha0 != 0 the principal root k2 =
    t + j s, t = sqrt((hypot(alpha0^2, c) + alpha0^2) / 2), s = (c / t) / 2,
    is free of cancellation and is what the C library's csqrt, behind
    numpy's complex sqrt, computes.
    """
    # numpy fuses multiply-adds in complex array products only, so a scalar
    # call is evaluated as a 1-element array to round as an array call does.
    scalar = np.ndim(alpha0) == 0 and np.ndim(omega) == 0
    alpha0, omega = np.atleast_1d(alpha0, omega)
    mu_r = plate.relative_permeability
    k1 = np.abs(alpha0)
    a2 = alpha0 * alpha0
    c = omega * plate.conductivity * (MU_0 * mu_r)
    t = np.sqrt(0.5 * (np.hypot(a2, c) + a2))
    s = 0.5 * (c / t)
    k2 = _complex(t, s)
    den = mu_r * k1 + k2
    num = _complex((mu_r - 1.0) * (mu_r + 1.0) * a2, 0.0 - c)
    x = (-2.0 * plate.thickness) * t
    tau = np.tan(plate.thickness * s)
    ea_sin_b = np.exp(x) * (2.0 * tau / (1.0 + tau * tau))
    one_minus_E = _complex(ea_sin_b * tau - np.expm1(x), ea_sin_b)
    value = num * one_minus_E / (4.0 * mu_r * k1 * k2 + num * (num / (den * den) * one_minus_E))
    return value[0] if scalar else value
