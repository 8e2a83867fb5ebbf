"""Where the thin-plate (sigma*D) approximation is valid.

The normalized plate response has a closed thin-limit form that depends
only on the product sigma*D. This script compares it against the exact
finite-thickness layer reflection for plates of increasing electrical
thickness D*alpha0 and shows the approximation error growing linearly
with D*alpha0, as expected from the first neglected order.

Run:  python3 demos/thin_plate_regime.py
"""

import warnings

import numpy as np

from eddyplate import (
    Plate,
    default_sensor,
    derive_alpha0,
    generalized_reflection,
    normalized_response_thin,
)
from eddyplate.thin_plate import ThinRegimeWarning

alpha0 = derive_alpha0(default_sensor())
freqs = np.geomspace(10.0, 1e6, 60)
omegas = 2 * np.pi * freqs

print(f"alpha0 = {alpha0:.2f} 1/m (default sensor)\n")
print(f"{'D*alpha0':>10}  {'D [um]':>9}  {'max rel deviation thin vs exact':>32}")

sigma = 36.9e6  # aluminium
for d_alpha in (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
    plate = Plate(sigma, d_alpha / alpha0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinRegimeWarning)
        exact = generalized_reflection(alpha0, omegas, plate)
        thin = normalized_response_thin(alpha0, omegas, plate)
    rel = np.max(np.abs(exact - thin) / np.maximum(np.abs(exact), np.abs(thin)))
    print(f"{d_alpha:10.0e}  {plate.thickness*1e6:9.2f}  {rel:32.3%}")

print("\nThe deviation tracks D*alpha0 almost exactly: below 1e-2 the")
print("thin form is good to 1%, which is the regime where sigma and D")
print("are individually invisible and only their product matters.")
