"""Host-speed calibration for the benchmark's end-to-end times.

On a shared host the speed of one vCPU drifts by 1.5x over spells of seconds
to minutes, far beyond any bound a regression check can use. The numpy on
complex arrays of a few thousand nodes and the plain Python that the package
runs slow down by about the same factor, so the benchmark runs a fixed unit
of that mix, which uses nothing of eddyplate, right after each op and each
set-up, and scales that op or set-up time by

    NOMINAL_UNIT_S / (time of the unit beside it),

which reports every time at the speed at which the unit takes NOMINAL_UNIT_S.
Pairing each op with its own unit follows the host's spells more closely
than scaling by a whole run's median.
"""

from statistics import median
from time import perf_counter

import numpy as np

# About the unit's median time in a quiet spell on a 2-vCPU KVM guest (Xeon,
# Sapphire Rapids). Any fixed value serves; this one makes gated times read
# close to the real times of such a spell.
NOMINAL_UNIT_S = 5.0e-3

_Z = np.linspace(0.1, 10.0, 2048) * (1.0 + 1.0j)


def unit():
    """Seconds taken by one fixed unit of numpy and Python work."""
    start = perf_counter()
    z = _Z
    for _ in range(20):
        z = np.sqrt(z * z + 1.0j) * np.exp(-1e-3 * z)
    acc = 0.0
    for k in range(40000):
        acc += k * 0.5
    return perf_counter() - start


def scaled(times, unit_times):
    """Each time scaled by the unit time beside it."""
    return [t * NOMINAL_UNIT_S / u for t, u in zip(times, unit_times)]


def spell(n=9):
    """Median unit time over a short spell, after one unrecorded warm-up unit."""
    unit()
    return median(unit() for _ in range(n))
