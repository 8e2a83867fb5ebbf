"""The benchmark's workloads, the inputs they draw from a seed, and their gates.

Every workload is a closed loop with one client: ``op(i)`` starts only after
``op(i - 1)`` has returned. The package sees only the generated inputs, and
only through its public entry points (``analysis.sweep``,
``dodd_deeds.delta_L_air``, ``fileio``, ``cli.main``). A workload's life is
``setup()`` (input generation and warm-up, counted in ``setup_s``), then
timed ``op(i)`` calls each followed by an untimed ``check(i, output)``, and
``close()``. The gate compares with ``refs``, which ``reference()`` solves
after the same set-up; the harness runs it in another process, so that the
reference solves stay out of this one's peak memory.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from eddyplate import analysis, cli, dodd_deeds, fileio
from eddyplate.model import (
    MU_0,
    InductanceSpectrum,
    Plate,
    SweepSpec,
    default_sensor,
    derive_alpha0,
    frequency_grid,
)

BENCH_DIR = Path(__file__).resolve().parent

MAX_OPS = 100_000  # inputs drawn per run; far more than any run reaches
REL_TOL = 1e-6
# Fixed-rule reference grid: 4x the 128-panel level at which the adaptive
# rule converges on every input below.
REF_QUAD = dodd_deeds.QuadratureSpec(rule="fixed", n_panels=512)

PLATES = (
    Plate(59.8e6, 0.56e-3),                 # copper
    Plate(16.744e6, 2.0e-3),                # brass, copper's sigma*D equivalent
    Plate(36.9e6, 20e-6),                   # aluminium foil
    Plate(36.9e6 * 20e-6 / 55e-6, 55e-6),   # the foil's 55 um equivalent
    Plate(5.0e6, 1.0e-3, 200.0),            # magnetic steel
)


def check_values(values, refs, tol=REL_TOL):
    """Gate for the full solver: all finite, reference indices within ``tol``.

    ``refs`` maps an index of ``values`` to its reference value. Returns
    None when the output passes, else the reason it fails.
    """
    values = np.asarray(values)
    if not np.all(np.isfinite(values)):
        return "non-finite value"
    for k, ref in refs.items():
        err = abs(values[k] - ref) / abs(ref)
        if not err <= tol:
            return f"value {k} differs from its reference by {err:.3g} relative"
    return None


def check_inversion(codes, fit, report, sigma_d, bound):
    """Gate for the CLI round trip; None when it passes, else the reason."""
    if any(codes):
        return f"exit codes {codes}"
    if fit.get("converged") is not True:
        return "fit did not converge"
    if not report.get("max_rel_error", np.inf) <= 1e-12:
        return f"sigma*D equivalents differ by {report.get('max_rel_error')}"
    err = abs(fit.get("sigma_d_S", np.inf) - sigma_d)
    if not err <= bound:
        return f"fitted sigma*D off by {err:.3g} S, bound {bound:.3g} S"
    return None


def _plate_order(rng, n):
    """Plate indices for n ops: each run of len(PLATES) ops is a seeded permutation."""
    blocks = -(-n // len(PLATES))
    return rng.permuted(np.tile(np.arange(len(PLATES)), (blocks, 1)), axis=1).ravel()[:n]


class Workload:
    """The life cycle shared by the workloads; see the module docstring."""

    def __init__(self, seed, max_ops=MAX_OPS):
        self.seed, self.max_ops = seed, max_ops
        self.refs = None

    def reference(self):
        return None

    def close(self):
        pass


class DdWideband(Workload):
    """400-point 10 Hz - 1 MHz full-solver sweep per op, warm kernel cache."""

    spec = SweepSpec(10.0, 1.0e6, 400)
    n_checked = 8  # reference frequencies per plate

    def setup(self):
        self.coil = default_sensor()
        self.order = _plate_order(np.random.default_rng([self.seed, 0]), self.max_ops)
        for plate in PLATES:  # fills the kernel cache at every level used
            analysis.sweep("dodd_deeds", self.coil, plate, SweepSpec(10.0, 1.0e6, 2))

    def reference(self):
        rng = np.random.default_rng([self.seed, 1])
        freqs = frequency_grid(self.spec)
        refs = []
        for plate in PLATES:
            picked = np.sort(rng.choice(freqs.size, self.n_checked, replace=False))
            refs.append({
                int(k): analysis.sweep(
                    "dodd_deeds", self.coil, plate, SweepSpec(freqs[k], freqs[k], 1), quad=REF_QUAD
                ).delta_L[0]
                for k in picked
            })
        return refs

    def op(self, i):
        return analysis.sweep("dodd_deeds", self.coil, PLATES[self.order[i]], self.spec).delta_L

    def check(self, i, out):
        return check_values(out, self.refs[self.order[i]])


class DdLiftoffScan(Workload):
    """A new lift-off per op: L_air, a 4-point sweep and dL / L_air."""

    spec = SweepSpec(1.0e3, 1.0e5, 4)
    quad = dodd_deeds.QuadratureSpec()
    n_checked = 16
    check_window = 512  # checked ops are drawn from the first ops of a run

    def setup(self):
        rng = np.random.default_rng([self.seed, 0])
        liftoffs = rng.uniform(0.5e-3, 3.0e-3, self.max_ops + 1)
        if np.unique(liftoffs).size != liftoffs.size:
            raise RuntimeError("repeated lift-off draw")
        self.warm_liftoff, self.liftoffs = liftoffs[0], liftoffs[1:]
        self.order = _plate_order(rng, self.max_ops)
        self._solve(self.warm_liftoff, PLATES[0], self.quad)

    def _solve(self, liftoff, plate, quad):
        coil = dataclasses.replace(default_sensor(), liftoff=float(liftoff))
        l_air = dodd_deeds.delta_L_air(coil, quad)
        dl = analysis.sweep("dodd_deeds", coil, plate, self.spec, quad=quad).delta_L
        return np.concatenate([[l_air], dl, dl / l_air])

    def reference(self):
        rng = np.random.default_rng([self.seed, 1])
        window = min(self.max_ops, self.check_window)
        picked = rng.choice(window, min(self.n_checked, window), replace=False)
        n_raw = 1 + self.spec.n_points  # L_air and dL; the ratio follows from them
        refs = {}
        for k in np.sort(picked):
            ref = self._solve(self.liftoffs[k], PLATES[self.order[k]], REF_QUAD)
            refs[int(k)] = dict(enumerate(ref[:n_raw]))
        return refs

    def op(self, i):
        return self._solve(self.liftoffs[i], PLATES[self.order[i]], self.quad)

    def check(self, i, out):
        return check_values(out, self.refs.get(i, {}))


def _run_cli(*argv):
    """cli.main with its console output discarded; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code if isinstance(exc.code, int) else 1


class ThinInvertCli(Workload):
    """Thin plate and its sigma*D equivalent through spectrum, invert and compare."""

    spec = SweepSpec(10.0, 1.0e6, 50)
    noise = 1e-3  # std of each of Re and Im of the added noise, normalized units
    n_sigma = 6.0  # the fit gate in linearized standard deviations of sigma*D

    def setup(self):
        coil = default_sensor()
        omega = 2.0 * np.pi * frequency_grid(self.spec)
        self._u = 1j * omega * MU_0 / (2.0 * derive_alpha0(coil))
        rng = np.random.default_rng([self.seed, 0])
        n = self.max_ops + 1
        # D * alpha0 < 0.1 keeps both plates in the thin regime: D < 0.6 mm.
        self.sigma = rng.uniform(10e6, 60e6, n)
        self.thickness = rng.uniform(20e-6, 300e-6, n)
        self.thickness_eq = self.thickness * rng.uniform(0.4, 1.9, n)
        self.coil_lines = "".join(
            f"{key} = {value!r}\n"
            for key, value in (
                ("inner_radius_m", coil.inner_radius),
                ("outer_radius_m", coil.outer_radius),
                ("height_m", coil.coil_height),
                ("gap_m", coil.gap),
                ("liftoff_m", coil.liftoff),
                ("turns_tx", coil.turns_tx),
                ("turns_rx", coil.turns_rx),
                ("drive_current_A", coil.drive_current),
            )
        )
        self.workdir = Path(tempfile.mkdtemp(prefix="work-", dir=BENCH_DIR))
        self.files = {
            k: str(self.workdir / name)
            for k, name in (
                ("scenario", "plates.ini"),
                ("original", "original.csv"),
                ("equivalent", "equivalent.csv"),
                ("noisy", "noisy.csv"),
                ("fit", "fit.json"),
                ("report", "report.json"),
            )
        }
        self._round_trip(0)
        for key in ("fit", "report"):
            Path(self.files[key]).unlink()

    def sigma_d_bound(self, sigma_d):
        """n_sigma linearized standard deviations of the fitted sigma*D.

        The thin model is s = -c / (1 + c) with c = u * sigma*D, so
        ds/d(sigma*D) = -u / (1 + c)^2; with independent noise of std
        ``noise`` on Re and Im the least-squares estimate has variance
        noise^2 / sum |ds/d(sigma*D)|^2.
        """
        c = self._u * sigma_d
        jac = -self._u / (1.0 + c) ** 2
        return self.n_sigma * self.noise / np.sqrt(np.sum(np.abs(jac) ** 2))

    def _round_trip(self, k):
        f = self.files
        sigma, thickness, thickness_eq = (
            float(a[k]) for a in (self.sigma, self.thickness, self.thickness_eq)
        )
        with open(f["scenario"], "w", encoding="utf-8") as fh:
            fh.write(
                f"[coil]\n{self.coil_lines}\n"
                f"[plate.original]\nconductivity_Sm = {sigma!r}\n"
                f"thickness_m = {thickness!r}\n\n"
                f"[plate.equivalent]\nconductivity_Sm = {sigma * thickness / thickness_eq!r}\n"
                f"thickness_m = {thickness_eq!r}\n\n"
                f"[sweep]\nf_min_Hz = {self.spec.f_min!r}\nf_max_Hz = {self.spec.f_max!r}\n"
                f"n_points = {self.spec.n_points}\nspacing = {self.spec.spacing}\n"
            )
        codes = [
            _run_cli("spectrum", f["scenario"], plate, "--model", "thin_plate", "-o", f[plate])
            for plate in ("original", "equivalent")
        ]
        clean = fileio.read_spectrum_csv(f["original"])
        rng = np.random.default_rng([self.seed, 2, k])
        noise = rng.normal(0.0, self.noise, (2, clean.delta_L.size))
        noisy = InductanceSpectrum(
            frequencies=clean.frequencies,
            delta_L=clean.delta_L + noise[0] + 1j * noise[1],
            normalized=True,
            model_tag=clean.model_tag,
            metadata={"alpha0": clean.metadata["alpha0"]},
        )
        fileio.write_spectrum_csv(f["noisy"], noisy)
        codes.append(_run_cli("invert", f["noisy"], "-o", f["fit"]))
        codes.append(
            _run_cli("compare", f["original"], f["equivalent"], "--report", f["report"])
        )
        return codes

    def op(self, i):
        return self._round_trip(i + 1)

    def check(self, i, codes):
        try:
            outputs = []
            for key in ("fit", "report"):
                path = Path(self.files[key])
                outputs.append(json.loads(path.read_text(encoding="utf-8")))
                path.unlink()  # so that the next op cannot pass on a stale file
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        fit, report = outputs
        sigma_d = self.sigma[i + 1] * self.thickness[i + 1]
        return check_inversion(codes, fit, report, sigma_d, self.sigma_d_bound(sigma_d))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "dd_wideband": DdWideband,
    "dd_liftoff_scan": DdLiftoffScan,
    "thin_invert_cli": ThinInvertCli,
}
