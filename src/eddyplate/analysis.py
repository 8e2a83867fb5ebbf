"""Sweep orchestration, spectrum comparison, and sigma*D inversion."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dodd_deeds, thin_plate
from .model import (
    MU_0,
    CoilPair,
    InductanceSpectrum,
    Plate,
    SweepSpec,
    derive_alpha0,
    frequency_grid,
)

# Frequencies where the reference magnitude drops below this fraction of its
# peak are excluded from relative-error statistics (and counted).
NEAR_ZERO_FRACTION = 1e-3

_MAX_FIT_ITERATIONS = 100
_STEP_TOLERANCE = 1e-9
_RESIDUAL_TOLERANCE = 1e-12


class SweepError(RuntimeError):
    """A solver failure annotated with the frequency it occurred at."""


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
    alpha0_fit: float | None
    residual_norm: float         # ||model - data|| / ||data||
    iterations: int
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

    ``model`` is one of "thin_plate" (normalized, sigma*D-only form),
    "thin_plate_exact" (normalized finite-thickness bracket) or
    "dodd_deeds" (absolute henries, the whole grid in one batched
    ``dodd_deeds.delta_L`` call).
    """
    if alpha0 is not None and not 0.0 < alpha0 < np.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")
    freqs = frequency_grid(spec)
    omegas = 2.0 * np.pi * freqs

    if model in ("thin_plate", "thin_plate_exact"):
        a0 = derive_alpha0(coil) if alpha0 is None else alpha0
        fn = (
            thin_plate.normalized_response_thin
            if model == "thin_plate"
            else thin_plate.normalized_response_exact
        )
        return InductanceSpectrum(
            frequencies=freqs,
            delta_L=fn(a0, omegas, plate),
            normalized=True,
            model_tag=model,
            metadata={"alpha0": a0},
        )

    if model == "dodd_deeds":
        q = quad if quad is not None else dodd_deeds.QuadratureSpec()
        try:
            values = dodd_deeds.delta_L(coil, plate, omegas, q)
        except dodd_deeds.QuadratureConvergenceError as exc:
            raise SweepError(f"solver failed: {exc}") from exc
        return InductanceSpectrum(
            frequencies=freqs,
            delta_L=values,
            normalized=False,
            model_tag="dodd_deeds",
            metadata={"quadrature": q},
        )

    raise ValueError(f"unknown model {model!r}")


def compare(
    a: InductanceSpectrum,
    b: InductanceSpectrum,
    band: tuple[float, float] | None = None,
) -> EquivalenceReport:
    """Per-frequency relative error |a - b| / |a| and its band maximum.

    ``a`` is the reference ("original structure"); swapping the arguments
    changes only the normalization. Both spectra must share the frequency
    grid and the normalized flag.
    """
    if not np.array_equal(a.frequencies, b.frequencies):
        raise ValueError("spectra are on different frequency grids")
    if a.normalized != b.normalized:
        raise ValueError("cannot compare normalized against absolute spectra")

    mag = np.abs(a.delta_L)
    usable = mag >= NEAR_ZERO_FRACTION * mag.max()
    rel = np.full(a.frequencies.shape, np.nan)
    rel[usable] = np.abs(a.delta_L[usable] - b.delta_L[usable]) / mag[usable]

    if band is None:
        in_band = np.ones(a.frequencies.shape, dtype=bool)
        effective = (float(a.frequencies[0]), float(a.frequencies[-1]))
    else:
        lo, hi = band
        in_band = (a.frequencies >= lo) & (a.frequencies <= hi)
        effective = (float(lo), float(hi))

    selected = rel[in_band]
    max_err = float(np.nanmax(selected)) if np.any(np.isfinite(selected)) else float("nan")
    return EquivalenceReport(
        per_frequency_rel_error=rel,
        max_rel_error=max_err,
        max_rel_error_band=effective,
        band_filter=band,
        n_excluded=int(np.count_nonzero(~usable & in_band)),
    )


def _thin_model(omega, sigma_d, alpha0):
    c = 1j * omega * MU_0 * sigma_d / (2.0 * alpha0)
    return -c / (1.0 + c)


def _thin_model_jacobian(omega, sigma_d, alpha0, fit_alpha0):
    """Analytic derivatives of the thin-plate model w.r.t. the fit parameters."""
    u = 1j * omega * MU_0
    den = 2.0 * alpha0 + u * sigma_d
    cols = [-2.0 * alpha0 * u / den**2]
    if fit_alpha0:
        cols.append(2.0 * u * sigma_d / den**2)
    return np.stack(cols, axis=-1)


def initial_sigma_d(spectrum: InductanceSpectrum, alpha0: float) -> float:
    """Closed-form starting guess from the low-frequency imaginary slope.

    Im(s)/omega -> -mu0 sigma D / (2 alpha0) as omega -> 0.
    """
    omega0 = 2.0 * np.pi * spectrum.frequencies[0]
    guess = -2.0 * alpha0 * np.imag(spectrum.delta_L[0]) / (omega0 * MU_0)
    if not np.isfinite(guess) or guess <= 0.0:
        guess = abs(guess) or 1.0
    return float(guess)


def fit_sigma_d(
    spectrum: InductanceSpectrum,
    alpha0: float,
    fit_alpha0: bool = False,
) -> SigmaDFit:
    """Damped Gauss-Newton fit of sigma*D (and optionally alpha0).

    Minimizes the stacked real/imaginary squared misfit of the thin-plate
    model against a normalized spectrum.
    """
    if not 0.0 < alpha0 < np.inf:
        raise ValueError(f"alpha0 must be positive and finite, got {alpha0}")
    if not spectrum.normalized:
        raise ValueError("fit_sigma_d needs a normalized (thin-plate form) spectrum")
    if spectrum.frequencies.size < 3:
        raise ValueError("need at least 3 frequencies")
    if np.all(spectrum.delta_L == 0):
        raise ValueError("spectrum is identically zero")

    omegas = 2.0 * np.pi * spectrum.frequencies
    data = spectrum.delta_L
    data_norm = float(np.linalg.norm(np.concatenate([data.real, data.imag])))

    theta = np.array(
        [initial_sigma_d(spectrum, alpha0)] + ([alpha0] if fit_alpha0 else [])
    )

    # The model depends on sigma_d and alpha0 only through their ratio, so
    # the two-parameter problem is degenerate along (t*sigma_d, t*alpha0).
    # A weak gauge penalty anchors alpha0 to its supplied starting value;
    # the data still fully determine the identifiable ratio.
    gauge_weight = 1e-3 * data_norm

    def residual(t):
        a0 = t[1] if fit_alpha0 else alpha0
        diff = _thin_model(omegas, t[0], a0) - data
        parts = [diff.real, diff.imag]
        if fit_alpha0:
            parts.append(np.array([gauge_weight * (t[1] / alpha0 - 1.0)]))
        return np.concatenate(parts)

    r = residual(theta)
    cost = float(r @ r)
    history = [cost]
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_FIT_ITERATIONS + 1):
        a0 = theta[1] if fit_alpha0 else alpha0
        jc = _thin_model_jacobian(omegas, theta[0], a0, fit_alpha0)
        jac = np.concatenate([jc.real, jc.imag])
        if fit_alpha0:
            jac = np.vstack([jac, [0.0, gauge_weight / alpha0]])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)

        # Backtracking damping: halve until the cost decreases and the
        # iterate stays in the positive-parameter domain.
        lam = 1.0
        accepted = False
        for _ in range(30):
            cand = theta + lam * step
            if np.all(cand > 0.0):
                r_cand = residual(cand)
                cost_cand = float(r_cand @ r_cand)
                if cost_cand < cost:
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            converged = True  # no descent direction left: at the optimum
            break

        step_size = np.linalg.norm(lam * step) / np.linalg.norm(cand)
        cost_drop = (cost - cost_cand) / cost if cost > 0 else 0.0
        theta, r, cost = cand, r_cand, cost_cand
        history.append(cost)
        if step_size < _STEP_TOLERANCE or cost_drop < _RESIDUAL_TOLERANCE:
            converged = True
            break

    return SigmaDFit(
        sigma_d=float(theta[0]),
        alpha0_fit=float(theta[1]) if fit_alpha0 else None,
        residual_norm=float(np.sqrt(cost)) / data_norm,
        iterations=iterations,
        converged=converged,
        history=history,
    )
