"""Closed-form thin-plate response and the sigma*D equivalence transform.

The normalized response is delta-L / L_air at a single representative
spatial frequency alpha0. Two forms are provided: the exact finite-thickness
bracket (identical to the layered-media generalized reflection with
k1 = alpha0) and the thin-plate limit, which depends on the plate only
through the product sigma * D.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import MU_0, Plate
from .te_layered import generalized_reflection

# Above this value of D * alpha0 the dropped exp(-2 D alpha0) factor starts
# to matter at the percent level.
THIN_REGIME_LIMIT = 0.1


class ThinRegimeWarning(UserWarning):
    """The plate is too thick for the thin-plate approximation."""


def _require_nonmagnetic(plate: Plate) -> None:
    if plate.relative_permeability != 1.0:
        raise ValueError(
            "thin-plate response is derived for non-magnetic plates "
            f"(relative_permeability = {plate.relative_permeability})"
        )


def normalized_response_exact(alpha0, omega, plate: Plate):
    """Exact finite-thickness normalized response delta-L / L_air.

    Equals the generalized layer reflection evaluated at k1 = alpha0.
    """
    _require_nonmagnetic(plate)
    return generalized_reflection(alpha0, omega, plate)


def normalized_response_thin(alpha0, omega, plate: Plate):
    """Thin-plate limit of the normalized response.

    value = -c / (1 + c)  with  c = j omega mu0 (sigma D) / (2 alpha0),

    the first-order-in-thickness resummation of the exact bracket. Depends
    on the plate only through sigma * D, which makes the response exactly
    invariant under the reciprocal conductivity/thickness transform. Warns
    (but still evaluates) when D * alpha0 exceeds the thin regime.
    """
    _require_nonmagnetic(plate)
    if plate.thickness * np.max(alpha0) > THIN_REGIME_LIMIT:
        warnings.warn(
            f"D * alpha0 = {plate.thickness * np.max(alpha0):.3g} > "
            f"{THIN_REGIME_LIMIT}: outside the thin-plate regime",
            ThinRegimeWarning,
            stacklevel=2,
        )
    return _thin_response(alpha0, omega, plate.sigma_thickness_product)


def _thin_response(alpha0, omega, sigma_d):
    """-c / (1 + c) with c = j omega mu0 sigma_d / (2 alpha0), for any sigma_d."""
    c = 1j * omega * MU_0 * sigma_d / (2.0 * alpha0)
    return -c / (1.0 + c)


def equivalent_plate(original: Plate, target_thickness: float) -> Plate:
    """Plate of the given thickness with the same sigma*D product.

    conductivity = sigma1 * D1 / D2, so D1/D2 = sigma2/sigma1.
    """
    _require_nonmagnetic(original)
    if not 0.0 < target_thickness < np.inf:
        raise ValueError(f"target thickness must be positive and finite, got {target_thickness}")
    if target_thickness == original.thickness:
        return original
    return Plate(
        conductivity=original.sigma_thickness_product / target_thickness,
        thickness=target_thickness,
    )


def equivalent_thickness(original: Plate, target_conductivity: float) -> Plate:
    """Plate of the given conductivity with the same sigma*D product."""
    _require_nonmagnetic(original)
    if not 0.0 < target_conductivity < np.inf:
        raise ValueError(
            f"target conductivity must be positive and finite, got {target_conductivity}"
        )
    if target_conductivity == original.conductivity:
        return original
    return Plate(
        conductivity=target_conductivity,
        thickness=original.sigma_thickness_product / target_conductivity,
    )
