"""Spectrum CSV and report file formats.

A spectrum file is plain CSV with '#'-prefixed metadata comment lines, then
a header row ``freq_hz,dL_re,dL_im`` and one row per frequency. Numbers use
17 significant digits so files round-trip doubles exactly. Reports are JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .analysis import EquivalenceReport, SigmaDFit
from .model import InductanceSpectrum

FORMAT_VERSION = "1"


def write_spectrum_csv(path: str, spectrum: InductanceSpectrum):
    """Write ``spectrum`` to ``path``: a header of its fields and metadata, then its rows."""
    header = {
        "eddyplate_spectrum_format": FORMAT_VERSION,
        "model": spectrum.model_tag,
        "normalized": "true" if spectrum.normalized else "false",
        **dict(sorted(spectrum.metadata.items())),
    }
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append("freq_hz,dL_re,dL_im\n")
    freqs, values = spectrum.frequencies, spectrum.delta_L
    # Python floats format to the same .17g bytes as numpy scalars, and faster.
    numbers = np.column_stack((freqs, values.real, values.imag)).ravel().tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + ("%.17g,%.17g,%.17g\n" * freqs.size) % tuple(numbers))


def read_spectrum_csv(path: str) -> InductanceSpectrum:
    """Parse a spectrum file.

    The model and normalized lines become the spectrum's fields, the other
    '#' lines but the format line its metadata. A data row that is not three
    numbers, a format line naming another version than FORMAT_VERSION, a
    normalized line other than true or false, or a header key given a
    second time raises ValueError naming its line, the first such line if
    there are several. No data row, or rows or an alpha0 InductanceSpectrum
    refuses, raise ValueError naming the file.
    """
    meta: dict[str, str] = {}
    rows, fields = [], []  # (lineno, line) of each data row, and its fields
    problem = None  # the message naming the first line that is refused
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                key, value = key.strip(), value.strip()
                if key in meta:
                    problem = f"{path}:{lineno}: key {key!r} given a second time"
                elif key == "eddyplate_spectrum_format" and value != FORMAT_VERSION:
                    problem = (
                        f"{path}:{lineno}: unsupported eddyplate_spectrum_format "
                        f"{value!r}, expected {FORMAT_VERSION!r}"
                    )
                elif key == "normalized" and value not in ("true", "false"):
                    problem = f"{path}:{lineno}: normalized must be true or false, got {value!r}"
                if problem:
                    break
                meta[key] = value
            continue
        if line.startswith("freq_hz"):
            continue
        row = line.split(",")
        if len(row) != 3:  # per line: rows of 2 and 4 fields must not pair up
            problem = f"{path}:{lineno}: expected 3 numbers, got {line!r}"
            break
        rows.append((lineno, line))
        fields += row
    try:
        # numpy parses each field as float() does, to the same bits
        table = np.array(fields, dtype=float).reshape(-1, 3)
    except ValueError:  # a row before any other problem is not three numbers
        for lineno, line in rows:  # the same strings, so one of them fails again
            try:
                np.array(line.split(","), dtype=float)
            except ValueError:
                problem = f"{path}:{lineno}: expected 3 numbers, got {line!r}"
                break
    if problem:
        raise ValueError(problem)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    # assembled part by part: re + 1j * im would turn -0.0 parts into +0.0
    delta = np.empty(len(table), dtype=complex)
    delta.real, delta.imag = table[:, 1], table[:, 2]
    meta.pop("eddyplate_spectrum_format", None)
    try:
        return InductanceSpectrum(
            frequencies=table[:, 0],
            delta_L=delta,
            normalized=meta.pop("normalized", "false") == "true",
            model_tag=meta.pop("model", "unknown"),
            metadata=meta,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
        fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


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
