"""Independent oracles for the layered reflection, the coil mutual inductance
and the scenario file's lines.

The per-interface wavenumbers and Fresnel coefficients of the TE-mode
derivation, and the references built on them: the multiple-reflection
series, the reflection with both wavenumbers from numpy's complex sqrt, and
the mutual inductance of the two windings in the spatial domain, from
Maxwell's formula for two coaxial filaments. None of them is called by the
package; the solver forms its wavenumbers and its closed-form reflection on
its own, and the tests check it against these. The scenario loader's line
parser is checked against configparser reading the same lines.
"""

from __future__ import annotations

import configparser
import hashlib
from typing import NamedTuple

import numpy as np
from scipy import special

from eddyplate import scenario
from eddyplate.model import MU_0

# Above this Re(2 k2 D) the reference form below sets E = 0 (the half-space
# limit); generalized_reflection has no such branch and must match it anyway.
HALF_SPACE_EXPONENT = 700.0


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


def series_reflection(alpha0, omega, plate, min_terms=20, rel_term=1e-14):
    """Independent oracle: sum the interface multiple-reflection series.

    R~ = R12 + sum_n T12 R23 (R21 R23)^(n-1) T21 E^n,  E = exp(-2 k2 D),
    summed until terms are negligible. Kept deliberately naive.
    """
    mu2 = MU_0 * plate.relative_permeability
    k1 = wavenumber(alpha0, omega, 0.0, MU_0)
    k2 = wavenumber(alpha0, omega, plate.conductivity, mu2)
    r12, t12 = fresnel(k1, k2, MU_0, mu2)
    r21, t21 = fresnel(k2, k1, mu2, MU_0)
    r23 = r21
    E = np.exp(-2.0 * k2 * plate.thickness)
    total = r12
    term = t12 * r23 * t21 * E
    n = 1
    while True:
        total = total + term
        if n >= min_terms and abs(term) < rel_term * abs(total):
            return total, n
        if n > 100000:
            raise RuntimeError("series did not converge")
        term = term * (r21 * r23 * E)
        n += 1


def _complex(real, imag):
    """Complex array assembled from its parts, with no complex arithmetic."""
    z = np.empty(np.broadcast(real, imag).shape, dtype=complex)
    z.real, z.imag = real, imag
    return z


def complex_sqrt_reflection(alpha0, omega, plate):
    """Reference: the reflection with both wavenumbers from complex sqrt.

    ``generalized_reflection`` builds k1 = |alpha0| and k2 in real
    arithmetic and must round exactly like this form.
    """
    mu_r = plate.relative_permeability
    mu2 = MU_0 * mu_r
    k1 = wavenumber(alpha0, omega, 0.0, MU_0)
    k2 = wavenumber(alpha0, omega, plate.conductivity, mu2)
    den = mu_r * k1 + k2
    num = (mu_r - 1.0) * (mu_r + 1.0) * (k1 * k1) - 1j * omega * plate.conductivity * mu2
    x = (-2.0 * plate.thickness) * k2.real
    tau = np.tan(plate.thickness * k2.imag)
    ea_sin_b = np.exp(x) * (2.0 * tau / (1.0 + tau * tau))
    one_minus_E = np.where(
        x < -HALF_SPACE_EXPONENT, 1.0, _complex(ea_sin_b * tau - np.expm1(x), ea_sin_b)
    )
    q = 4.0 * mu_r * k1 * k2
    return num * one_minus_E / (q + num * (num / (den * den) * one_minus_E))


def filament_mutual(r_a, r_b, z):
    """Oracle: Neumann mutual inductance of two coaxial circular filaments.

    M = mu0 sqrt(ra rb) [(2/k - k) K(k^2) - (2/k) E(k^2)]   (scipy's m = k^2
    convention for the complete elliptic integrals).
    """
    m = 4.0 * r_a * r_b / ((r_a + r_b) ** 2 + z * z)
    k = np.sqrt(m)
    return (
        MU_0
        * np.sqrt(r_a * r_b)
        * ((2.0 / k - k) * special.ellipk(m) - (2.0 / k) * special.ellipe(m))
    )


def winding_mutual(coil, n=32, mirrored=False):
    """Oracle: mutual inductance of the two rectangular windings.

    Each winding carries its turns at uniform density over its cross-section
    r1..r2 by coil_height. The transmitter's lower face is at z = liftoff
    above the plate surface z = 0, the receiver's a coil height and the gap
    higher; ``mirrored`` reflects the receiver in the plate surface. The
    mean of filament_mutual over both cross-sections is taken by a tensor
    n-point Gauss-Legendre rule in (r, z) on each: no Bessel function, no
    spectral integral and no reflection coefficient.
    """
    x, weight = np.polynomial.legendre.leggauss(n)
    r1, r2, h = coil.inner_radius, coil.outer_radius, coil.coil_height
    r = r1 + (r2 - r1) * (x + 1.0) / 2.0
    dz = (x + 1.0) * h / 2.0
    z_tx = coil.liftoff + dz
    z_rx = coil.liftoff + h + coil.gap + dz
    if mirrored:
        z_rx = -z_rx
    weight = weight / 2.0  # each rule's weights sum to 1: a mean
    # axes (transmitter r, receiver r, receiver z), one transmitter z at a time
    r_tx, r_rx = r[:, None, None], r[None, :, None]
    w3 = weight[:, None, None] * weight[None, :, None] * weight
    total = 0.0
    for z, w_z in zip(z_tx, weight):
        total += w_z * np.sum(w3 * filament_mutual(r_tx, r_rx, z_rx - z))
    return total * coil.turns_tx * coil.turns_rx


def configparser_scenario(path):
    """Oracle: the Scenario of a scenario file whose lines configparser reads.

    configparser as the loader once used it: ';' and '#' comments, inline
    after whitespace too, case-sensitive keys, no [DEFAULT] section, and its
    continuation lines and %-interpolation. Its {section: {key: value}} goes
    through the loader's own validation. Raises configparser.Error or
    ValueError where either rejects the file.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section="\n")
    cp.optionxform = str
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    cp.read_string(raw)
    sections = {name: dict(cp.items(name)) for name in cp.sections()}
    return scenario._scenario(sections, hashlib.sha256(raw.encode("utf-8")).hexdigest())
