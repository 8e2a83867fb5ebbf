"""The solvers and the fit at the corners of the input ranges of model.RANGES.

Over those ranges no solver checks its floating-point arithmetic: every call
must give a finite value (with or without a TruncationWarning), refuse an
input over the work budget, or fail to converge, and warn nothing else.
"""

import warnings
from itertools import product

import numpy as np
import pytest

from eddyplate import (
    MU_0,
    CoilPair,
    Plate,
    QuadratureConvergenceError,
    QuadratureSpec,
    SweepSpec,
    TruncationWarning,
    delta_L,
    delta_L_air,
    dodd_deeds,
    fit_sigma_d,
    sweep,
)
from eddyplate.model import RANGES
from eddyplate.thin_plate import ThinRegimeWarning

LENGTH_MIN, LENGTH_MAX, _ = RANGES["length"]
SIGMA_MAX = RANGES["conductivity"][1]
MU_R_MAX = RANGES["relative_permeability"][1]
F_MIN, F_MAX, _ = RANGES["frequency"]
TURNS_MAX = RANGES["turns"][1]
ALPHA_MIN, ALPHA_MAX, _ = RANGES["spatial_frequency"]


def coil(r1, r2, height, gap, liftoff, turns=25):
    return CoilPair(r1, r2, height, gap, liftoff, turns, turns, 1e-2)


# The smallest coil, whose derived alpha_max (4e13 1/m) is the largest and
# whose P^2 the budget lets the rule take up to the top of the range.
TINY = coil(LENGTH_MIN, 2 * LENGTH_MIN, LENGTH_MIN, LENGTH_MIN, LENGTH_MIN)
# The largest kernel prefactor pi mu0 N^2 / ((r2 - r1)^2 h^2): most turns,
# the narrowest winding (one ulp) and the lowest height.
PREFACTOR = coil(LENGTH_MIN, np.nextafter(LENGTH_MIN, 1.0), LENGTH_MIN, 0.0, LENGTH_MIN, int(TURNS_MAX))
# The largest coil, whose derived alpha_max (4e-5 1/m) is the smallest.
HUGE = coil(LENGTH_MAX / 2, LENGTH_MAX, LENGTH_MAX, LENGTH_MAX, LENGTH_MAX)
# The default sensor's shape, and one whose gap under a tenth of inner_radius
# takes L_air's derived alpha_max to its top, 4e14 1/m.
SENSOR = coil(6e-3, 6.315e-3, 8e-3, 2e-3, 1e-3)
TOUCHING = coil(LENGTH_MIN, 2 * LENGTH_MIN, LENGTH_MIN, 0.0, LENGTH_MIN)

# |omega sigma mu0 mu_r| at its largest, mu_r alpha at its largest, and
# plates that reflect with c = 0 (sigma = 0) or with the smallest c.
STRONGEST = Plate(SIGMA_MAX, LENGTH_MAX, MU_R_MAX)
THIN_STRONGEST = Plate(SIGMA_MAX, LENGTH_MAX)
MAGNETIC_INSULATOR = Plate(0.0, LENGTH_MIN, MU_R_MAX)
FAINTEST = Plate(5e-324, LENGTH_MIN)
OMEGAS = 2.0 * np.pi * np.array([F_MIN, 1.0, F_MAX])


def outcome(call):
    """'value', 'truncated', 'budget' or 'no convergence': what ``call`` gave,
    with every RuntimeWarning an error. Anything else fails the test."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = call()
        except QuadratureConvergenceError:
            return "no convergence"
        except ValueError as exc:
            assert "more than the budget" in str(exc), exc
            return "budget"
    values = np.atleast_1d(value.delta_L if hasattr(value, "delta_L") else value)
    assert np.all(np.isfinite(values)), values
    kinds = {w.category for w in caught}
    assert kinds <= {TruncationWarning, ThinRegimeWarning}, [str(w.message) for w in caught]
    return "truncated" if TruncationWarning in kinds else "value"


FULL_SOLVER_CORNERS = [
    # (coil, plate, alpha_max): the largest c and mu_r alpha_max, on the
    # smallest coil, at the top of alpha_max's range and at its derived value
    (TINY, STRONGEST, ALPHA_MAX),
    (TINY, STRONGEST, None),
    (SENSOR, STRONGEST, None),
    # the largest prefactor
    (PREFACTOR, STRONGEST, None),
    (PREFACTOR, MAGNETIC_INSULATOR, None),
    # the smallest alpha_max, set and derived, and with it the lowest nodes,
    # on a plate that reflects with c = 0, and with the smallest c
    (SENSOR, MAGNETIC_INSULATOR, ALPHA_MIN),
    (HUGE, MAGNETIC_INSULATOR, ALPHA_MIN),
    (HUGE, MAGNETIC_INSULATOR, None),
    (HUGE, FAINTEST, None),
    (TINY, FAINTEST, ALPHA_MIN),
    # the top of alpha_max's range on a coil too wide for the budget
    (HUGE, STRONGEST, ALPHA_MAX),
]


@pytest.mark.parametrize("rule", ["fixed", "adaptive"])
def test_full_solver_at_the_corners(rule):
    seen = set()
    for coil_, plate, alpha_max in FULL_SOLVER_CORNERS:
        quad = QuadratureSpec(alpha_max=alpha_max, rule=rule)
        seen.add(outcome(lambda: delta_L(coil_, plate, OMEGAS, quad)))
        seen.add(outcome(lambda: delta_L_air(coil_, quad)))
    for coil_ in (TOUCHING, PREFACTOR):
        seen.add(outcome(lambda: delta_L_air(coil_, QuadratureSpec(rule=rule))))
    # the corners reach the solver's arithmetic, not just its refusals
    assert {"value", "truncated", "budget"} <= seen


def test_ranges_lie_inside_the_reflection_domain():
    # generalized_reflection's documented domain: mu_r and mu_r |alpha0| at
    # most 1e75, |c| = omega sigma mu0 mu_r at most 1e150, and |alpha0| at
    # least 1e-50 where c = 0. Its docstring states the margins: mu_r alpha
    # at most 1e25 1/m, |c| at most about 8e59 1/m^2, and a lowest node
    # above 1e-19 1/m, which delta_L reaches at the lowest alpha_max.
    assert MU_R_MAX * ALPHA_MAX <= 1e25
    assert 2.0 * np.pi * F_MAX * SIGMA_MAX * MU_0 * MU_R_MAX < 8e59
    lowest = min(
        dodd_deeds._kernel_table(dodd_deeds._cross_section(c), ALPHA_MIN, n_panels)[0][-1]
        for c in (TINY, coil(1e-7, 1.6e-7, 1e-3, 1e-3, 1e-3), SENSOR, HUGE)
        for n_panels in range(8, 25)
    )
    assert 1e-19 < lowest < 1e-18


@pytest.mark.parametrize("model", ["thin_plate", "thin_plate_exact"])
def test_normalized_models_at_the_corners(model):
    # The thin model's largest |c| = omega mu0 sigma D / (2 alpha0), about
    # 4e64, is THIN_STRONGEST's at F_MAX and ALPHA_MIN; the smallest nonzero
    # is FAINTEST's at F_MIN and ALPHA_MAX.
    spec = SweepSpec(F_MIN, F_MAX, 25)
    for plate in (THIN_STRONGEST, Plate(SIGMA_MAX, LENGTH_MIN), FAINTEST, Plate(0.0, LENGTH_MAX)):
        for alpha0 in (ALPHA_MIN, 1.0, ALPHA_MAX):
            assert outcome(lambda: sweep(model, SENSOR, plate, spec, alpha0=alpha0)) == "value"


def test_fit_at_the_corners():
    # fit_sigma_d checks alpha0 against its range and nothing of its own
    # arithmetic: over the frequency and alpha0 ranges, (omega mu0 / (2
    # alpha0))^2 lies from about 1.6e-59 to 1.6e37. Thin-model spectra at the
    # corners of both, fitted at each end of alpha0's range, give a finite
    # fit or a refusal of the data.
    specs = [SweepSpec(F_MIN, F_MAX, 25), SweepSpec(F_MIN, 3 * F_MIN, 3), SweepSpec(F_MAX / 3, F_MAX, 3)]
    plates = [THIN_STRONGEST, Plate(SIGMA_MAX, LENGTH_MIN), Plate(59.8e6, 0.56e-3), FAINTEST]
    ends = (ALPHA_MIN, ALPHA_MAX)
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ThinRegimeWarning)
        warnings.simplefilter("error", RuntimeWarning)
        for spec, plate, alpha0, fit_alpha0 in product(specs, plates, (ALPHA_MIN, 1.0, ALPHA_MAX), ends):
            spectrum = sweep("thin_plate", SENSOR, plate, spec, alpha0=alpha0)
            try:
                fit = fit_sigma_d(spectrum, fit_alpha0)
            except ValueError as exc:
                assert "identically zero" in str(exc) or "misfit overflows" in str(exc), exc
                continue
            assert np.isfinite(fit.sigma_d) and np.isfinite(fit.residual_norm), fit
            seen.add(fit.converged)
    # the corners reach the fit's arithmetic, not just its refusals
    assert True in seen
