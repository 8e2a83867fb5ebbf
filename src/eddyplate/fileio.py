"""Spectrum CSV and report file formats.

A spectrum file is plain CSV with '#'-prefixed metadata comment lines, then
a header row ``freq_hz,dL_re,dL_im`` and one row per frequency. Numbers use
17 significant digits so files round-trip doubles exactly. Reports are JSON.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

from .analysis import EquivalenceReport, SigmaDFit
from .model import InductanceSpectrum

FORMAT_VERSION = "1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_spectrum_csv(path: str, spectrum: InductanceSpectrum, metadata: dict | None = None):
    meta = dict(spectrum.metadata)
    if metadata:
        meta.update(metadata)
    lines = [
        f"# eddyplate_spectrum_format={FORMAT_VERSION}",
        f"# model={spectrum.model_tag}",
        f"# normalized={str(spectrum.normalized).lower()}",
    ]
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    lines.append("freq_hz,dL_re,dL_im")
    for f, v in zip(spectrum.frequencies, spectrum.delta_L):
        # the reader rejects such a row: refuse it before the file is opened
        if not (math.isfinite(f) and cmath.isfinite(v)):
            raise ValueError(f"{path}: non-finite value at freq_hz = {_fmt(f)}; nothing written")
        if not f > 0.0:
            raise ValueError(f"{path}: freq_hz = {_fmt(f)} is not > 0; nothing written")
        lines.append(f"{_fmt(f)},{_fmt(v.real)},{_fmt(v.imag)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spectrum_csv(path: str) -> InductanceSpectrum:
    """Parse a spectrum file.

    A malformed data row (not three finite numbers, or freq_hz not > 0), or a
    format line naming another version than FORMAT_VERSION, raises ValueError
    naming its line; a file with no data row raises ValueError naming the file.
    """
    meta: dict[str, str] = {}
    freqs, re, im = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key, value = key.strip(), value.strip()
                    if key == "eddyplate_spectrum_format" and value != FORMAT_VERSION:
                        raise ValueError(
                            f"{path}:{lineno}: unsupported eddyplate_spectrum_format "
                            f"{value!r}, expected {FORMAT_VERSION!r}"
                        )
                    meta[key] = value
                continue
            if line.startswith("freq_hz"):
                continue
            try:
                f, dl_re, dl_im = map(float, line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 3 numbers, got {line!r}") from None
            if not (0.0 < f < math.inf and math.isfinite(dl_re) and math.isfinite(dl_im)):
                raise ValueError(f"{path}:{lineno}: non-finite value or freq_hz <= 0 in {line!r}")
            freqs.append(f)
            re.append(dl_re)
            im.append(dl_im)
    if not freqs:
        raise ValueError(f"{path}: no data rows")
    # assembled part by part: re + 1j * im would turn -0.0 parts into +0.0
    delta = np.empty(len(re), dtype=complex)
    delta.real, delta.imag = re, im
    return InductanceSpectrum(
        frequencies=np.array(freqs),
        delta_L=delta,
        normalized=meta.get("normalized", "false") == "true",
        model_tag=meta.get("model", "unknown"),
        metadata=meta,
    )


def _json_value(value):
    """value with every float in it that is not finite (JSON has none) as None."""
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path: str, payload: dict, extra: dict | None):
    if extra:
        payload.update(extra)
    payload = {key: _json_value(value) for key, value in payload.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_report_json(path: str, report: EquivalenceReport, extra: dict | None = None):
    payload = {
        "max_rel_error": report.max_rel_error,
        "max_rel_error_band_hz": list(report.max_rel_error_band),
        "band_filter_hz": list(report.band_filter) if report.band_filter else None,
        "n_excluded": report.n_excluded,
        "per_frequency_rel_error": list(report.per_frequency_rel_error),
    }
    _write_json(path, payload, extra)


def write_fit_json(path: str, fit: SigmaDFit, extra: dict | None = None):
    payload = {
        "sigma_d_S": fit.sigma_d,
        "sigma_d_std_S": fit.sigma_d_std,
        "residual_norm": fit.residual_norm,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }
    _write_json(path, payload, extra)
