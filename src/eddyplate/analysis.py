"""Sweep orchestration, spectrum comparison, and sigma*D inversion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dodd_deeds, te_layered, thin_plate
from .model import (
    MU_0,
    CoilPair,
    InductanceSpectrum,
    Plate,
    SweepSpec,
    derive_alpha0,
    frequency_grid,
    require_range,
)

# Frequencies where the reference magnitude is zero or drops below this
# fraction of its peak are excluded from relative-error statistics (and counted).
NEAR_ZERO_FRACTION = 1e-3

# Every model sweep evaluates: two normalized single-alpha0 models, then the
# full solver.
MODELS = ("thin_plate", "thin_plate_exact", "dodd_deeds")

_MAX_FIT_ITERATIONS = 100
_STEP_TOLERANCE = 1e-9
_RESIDUAL_TOLERANCE = 1e-12


@dataclass
class EquivalenceReport:
    """Paired-spectrum relative-error statistics over a frequency band."""

    per_frequency_rel_error: np.ndarray  # nan where the reference is near zero
    max_rel_error: float
    max_rel_error_band: tuple[float, float]
    band_filter: tuple[float, float] | None = None
    n_excluded: int = 0


@dataclass
class SigmaDFit:
    """Least-squares estimate of the sigma*D product from a spectrum."""

    sigma_d: float               # [S]
    sigma_d_std: float           # [S], linearized 1-sigma error
    residual_norm: float         # ||model - data|| / ||data||
    iterations: int              # full steps judged, the last one included
    converged: bool
    history: list = field(default_factory=list, repr=False)


def sweep(
    model: str,
    coil: CoilPair,
    plate: Plate,
    spec: SweepSpec,
    quad: dodd_deeds.QuadratureSpec | None = None,
    alpha0: float | None = None,
) -> InductanceSpectrum:
    """Evaluate one forward model on a frequency grid.

    ``model`` is one of MODELS: "thin_plate" (normalized, sigma*D-only form),
    "thin_plate_exact" (normalized finite-thickness bracket, the layered
    reflection at k1 = alpha0), both for non-magnetic plates only, or
    "dodd_deeds" (absolute henries, the whole grid in one batched
    ``dodd_deeds.delta_L`` call, whose QuadratureConvergenceError names the
    first frequency that did not converge). ``alpha0``, given or derived
    from the coil, is a spatial frequency in model.RANGES, and over the
    ranges of its inputs each model is finite and, for "thin_plate_exact",
    in generalized_reflection's domain.
    """
    if alpha0 is not None:
        require_range("alpha0", alpha0, "spatial_frequency")
    freqs = frequency_grid(spec)
    omegas = 2.0 * np.pi * freqs

    if model in MODELS[:2]:
        alpha0 = derive_alpha0(coil) if alpha0 is None else alpha0
        thin_plate._require_nonmagnetic(plate)
        # the exact bracket is the layered reflection at k1 = alpha0
        if model == "thin_plate":
            response = thin_plate.normalized_response_thin
        else:
            response = te_layered.generalized_reflection
        delta, metadata = response(alpha0, omegas, plate), {"alpha0": alpha0}
    elif model == "dodd_deeds":
        q = quad if quad is not None else dodd_deeds.QuadratureSpec()
        delta = dodd_deeds.delta_L(coil, plate, omegas, q)
        metadata = {
            "quadrature": f"alpha_max={q.resolve_alpha_max(coil):.6g} "
            f"n_panels={q.n_panels} rule={q.rule} rel_tolerance={q.rel_tolerance:g}"
        }
    else:
        raise ValueError(f"unknown model {model!r}")
    return InductanceSpectrum(freqs, delta, model != "dodd_deeds", model, metadata)


def compare(
    a: InductanceSpectrum,
    b: InductanceSpectrum,
    band: tuple[float, float] | None = None,
) -> EquivalenceReport:
    """Per-frequency relative error |a - b| / |a| and its band maximum.

    ``a`` is the reference ("original structure"); swapping the arguments
    changes only the normalization. Both spectra must share the frequency
    grid and the normalized flag; ``band`` must be finite with lo <= hi.
    """
    if not np.array_equal(a.frequencies, b.frequencies):
        raise ValueError("spectra are on different frequency grids")
    if a.normalized != b.normalized:
        raise ValueError("cannot compare normalized against absolute spectra")
    if band is not None and not -np.inf < band[0] <= band[1] < np.inf:
        raise ValueError(f"band must be finite with lo <= hi, got {band}")

    mag = np.abs(a.delta_L)
    usable = (mag > 0.0) & (mag >= NEAR_ZERO_FRACTION * mag.max())
    rel = np.full(a.frequencies.shape, np.nan)
    rel[usable] = np.abs(a.delta_L[usable] - b.delta_L[usable]) / mag[usable]

    # the frequencies increase strictly, so with no band this selects them all
    lo, hi = band if band is not None else (a.frequencies[0], a.frequencies[-1])
    in_band = (a.frequencies >= lo) & (a.frequencies <= hi)

    selected = rel[in_band]
    max_err = float(np.nanmax(selected)) if np.any(np.isfinite(selected)) else float("nan")
    return EquivalenceReport(
        per_frequency_rel_error=rel,
        max_rel_error=max_err,
        max_rel_error_band=(float(lo), float(hi)),
        band_filter=band,
        n_excluded=int(np.count_nonzero(~usable & in_band)),
    )


def _thin_slope(u, sigma_d):
    """d/d(sigma_d) of the thin-plate response -c / (1 + c), c = u sigma_d."""
    return -u / (1.0 + u * sigma_d) ** 2


def _linear_start(u, data) -> float:
    """Least-squares sigma_d of s = -u sigma_d (1 + s), the model made linear.

    Its residual is (1 + c) times the model's, so each equation is scaled by
    1 + s = 1 / (1 + c) to weigh the frequencies as the fit does. Exact on
    noiseless data. A negative result falls back to its magnitude, and a
    zero or non-finite one (a = 0 where s = -1, or huge data) to 1 S.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = -u * (1.0 + data) ** 2
        guess = np.vdot(a, data * (1.0 + data)).real / np.vdot(a, a).real
    return float(abs(guess)) if np.isfinite(guess) and guess != 0.0 else 1.0


def fit_sigma_d(spectrum: InductanceSpectrum, alpha0: float) -> SigmaDFit:
    """Damped Gauss-Newton fit of sigma*D at a given alpha0.

    Minimizes the squared misfit |model - data|^2 of the thin-plate model
    against a normalized spectrum. The model depends on the plate only
    through sigma*D / alpha0, so at a known alpha0 sigma*D is its one
    unknown, and each step is the scalar -Re<J, r> / ||J||^2. The fit stops
    at the top of an iteration, before its line search, when the full step
    is at most 1e-9 of sigma*D, or smaller than sigma*D with a predicted drop
    ||J||^2 step^2 of at most 1e-12 of the cost. A line search that finds no
    lower cost ends the fit as not converged: the model cannot reach the
    data from there. alpha0 is a spatial frequency in model.RANGES; with the
    spectrum's frequencies in theirs, (omega mu0 / (2 alpha0))^2 lies from
    about 1.6e-59 to 1.6e37, a normal double. A spectrum whose misfit
    overflows is rejected: the fit could not tell convergence. A fit whose
    standard error is not finite, so that the data do not pin sigma*D down,
    is reported as not converged.
    """
    require_range("alpha0", alpha0, "spatial_frequency")
    if not spectrum.normalized:
        raise ValueError("fit_sigma_d needs a normalized (thin-plate form) spectrum")
    if spectrum.frequencies.size < 3:
        raise ValueError("need at least 3 frequencies")
    if np.all(spectrum.delta_L == 0):
        raise ValueError("spectrum is identically zero")

    omegas = 2.0 * np.pi * spectrum.frequencies
    u = 1j * omegas * MU_0 / (2.0 * alpha0)
    data = spectrum.delta_L

    def misfit(sigma_d):
        r = thin_plate._thin_response(alpha0, omegas, sigma_d) - data
        return r, float(np.vdot(r, r).real)

    sigma_d = _linear_start(u, data)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        r, cost = misfit(sigma_d)
    if not np.isfinite(cost):
        raise ValueError("the squared misfit overflows: spectrum values are too large")
    history = [cost]
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_FIT_ITERATIONS + 1):
        jac = _thin_slope(u, sigma_d)
        jac_sq = np.vdot(jac, jac).real
        step = -np.vdot(jac, r).real / jac_sq
        # Judge the full step: negligible against sigma*D, or, where round-off
        # in the cost hides the last digits of sigma*D, a predicted drop the
        # residual tolerance stops at. A step as large as sigma*D means the
        # model cannot reach the data: no optimum, however flat.
        if abs(step) <= _STEP_TOLERANCE * sigma_d or (
            abs(step) < sigma_d and jac_sq * step * step <= _RESIDUAL_TOLERANCE * cost
        ):
            converged = True
            break

        # Backtracking: halve the step until the cost drops at a positive
        # iterate. If none does, the fit is stuck short of an optimum.
        lam = 1.0
        for _ in range(30):
            cand = sigma_d + lam * step
            if cand > 0.0:
                r_cand, cost_cand = misfit(cand)
                if cost_cand < cost:
                    break
            lam *= 0.5
        else:
            break

        sigma_d, r, cost = cand, r_cand, cost_cand
        history.append(cost)

    # Linearized 1-sigma error, with the noise variance taken from the
    # residual over 2N real residuals and one parameter.
    jac = _thin_slope(u, sigma_d)
    noise_var = cost / (2 * data.size - 1)
    with np.errstate(over="ignore"):  # inf: the data pin sigma*D down not at all
        sigma_d_std = float(np.sqrt(noise_var / np.vdot(jac, jac).real))
    return SigmaDFit(
        sigma_d=float(sigma_d),
        sigma_d_std=sigma_d_std,
        residual_norm=float(np.sqrt(cost / np.vdot(data, data).real)),
        iterations=iterations,
        converged=converged and bool(np.isfinite(sigma_d_std)),
        history=history,
    )
