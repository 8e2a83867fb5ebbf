"""Thin-plate response and the sigma*D equivalence transform.

The normalized response is delta-L / L_air at a single representative
spatial frequency alpha0. Its exact finite-thickness form is the layered
reflection te_layered.generalized_reflection at k1 = alpha0; this module
holds its thin-plate limit, which depends on the plate only through the
product sigma * D, and the transform that keeps sigma * D.
"""

from __future__ import annotations

import warnings

import numpy as np

from .model import MU_0, Plate

# Above this value of D * alpha0 the model warns. Its relative error against
# the exact bracket is about D * alpha0 itself, largest at low frequencies:
# at alpha0 = 166.67 1/m and 100 Hz it is 9.6% on the bundled copper (D *
# alpha0 = 0.093, no warning) and 3.3e-3 on the foil (0.0033). So the
# warning marks an error of about 10%.
THIN_REGIME_LIMIT = 0.1


class ThinRegimeWarning(UserWarning):
    """The plate is too thick for the thin-plate approximation."""


def _require_nonmagnetic(plate: Plate) -> None:
    if plate.relative_permeability != 1.0:
        raise ValueError(
            "thin-plate response is derived for non-magnetic plates "
            f"(relative_permeability = {plate.relative_permeability})"
        )


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


def equivalent_plate(original: Plate, thickness=None, *, conductivity=None) -> Plate:
    """Plate of the same sigma*D and one target, a thickness or a conductivity.

    Exactly one must be given; the other value is sigma*D / target, so
    D1/D2 = sigma2/sigma1. A target equal to the original's own value returns
    the original. Magnetic plates are rejected.
    """
    _require_nonmagnetic(original)
    if (thickness is None) == (conductivity is None):
        raise ValueError("give exactly one of thickness or conductivity")
    name = "thickness" if conductivity is None else "conductivity"
    target = thickness if conductivity is None else conductivity
    if not 0.0 < target < np.inf:
        raise ValueError(f"target {name} must be positive and finite, got {target}")
    if target == getattr(original, name):
        return original
    if conductivity is None:
        return Plate(conductivity=original.sigma_thickness_product / target, thickness=target)
    return Plate(conductivity=target, thickness=original.sigma_thickness_product / target)
