"""eddyplate benchmark: runs one workload and prints its metrics as JSON.

Run from the repository root; it imports the package from ``src/``:

    python3 bench/run.py --workload dd_wideband --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` traces every
layer on every second op and reports the per-layer metrics. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``. The
line before it is the report: the environment stamp, the first failures,
and with ``--trace 0`` every end-to-end metric as measured, including
``op_ms.p90`` on runs of at least 100 ops and ``ops_failed_fraction``; the
result line carries the gated ones, with times scaled to a nominal host
speed (see ``calibration.py``). An op that raises or fails its correctness
gate counts as failed and the run goes on.
"""

import os

# One thread everywhere; set before numpy is first imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dd_wideband", "dd_liftoff_scan", "thin_invert_cli")
SETUP_SAMPLES = 5  # this run's own set-up plus four in fresh interpreters
P90_MIN_OPS = 100  # so that at least 10 samples lie beyond the p90


def import_package():
    """Import eddyplate from this checkout's src/; returns the seconds taken."""
    package = SRC / "eddyplate"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no eddyplate sources in {package}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import eddyplate.cli  # noqa: F401  (pulls in every module)
    elapsed = time.perf_counter() - start
    import eddyplate

    if Path(eddyplate.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported eddyplate from {eddyplate.__file__}")
    sys.path.insert(0, str(BENCH_DIR))
    return elapsed


def measure(workload, seconds, start, tracer=None):
    """Closed loop from op ``start`` for ``seconds`` (at least one op).

    One calibration unit follows each op, outside its timing. With a tracer,
    every second op runs traced, so that traced and untraced ops share the
    host's slow and fast spells.
    """
    import calibration

    latencies, traced, units, failures = [], [], [], []
    i = start
    deadline = time.perf_counter() + seconds
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while i < workload.max_ops:
            on = tracer is not None and i % 2 == 1
            with tracer.installed() if on else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    out = workload.op(i)
                except Exception as exc:  # counted as a failed op, never raised
                    t1 = time.perf_counter()
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    t1 = time.perf_counter()
                    reason = None
            if reason is None:
                reason = checked(workload, i, out)
            latencies.append(t1 - t0)
            traced.append(on)
            units.append(calibration.unit())
            if reason is not None:
                failures.append(f"op {i}: {reason}")
            i += 1
            if t1 >= deadline:
                break
    return {
        "latencies": latencies,
        "traced": traced,
        "units": units,
        "failures": failures,
        "warnings": Counter(w.category.__name__ for w in caught),
    }


def checked(workload, i, out):
    """The workload's gate verdict on one output; a gate that raises fails it."""
    try:
        return workload.check(i, out)
    except Exception as exc:
        return f"gate raised {type(exc).__name__}: {exc}"


def rate(latencies, failed=0):
    """Successful ops per second of time spent inside ops."""
    return (len(latencies) - failed) / sum(latencies) if latencies else 0.0


def set_up(args):
    """Import, input generation and warm-up.

    Returns the workload, the seconds taken, and those seconds scaled by a
    calibration spell run right after.
    """
    import_s = import_package()
    import calibration
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    start = time.perf_counter()
    workload.setup()
    seconds = import_s + time.perf_counter() - start
    return workload, seconds, calibration.scaled([seconds], [calibration.spell()])[0]


def rerun(args, flag):
    """Standard output of this script run with ``flag`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), flag]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=170, check=True).stdout


def setup_sample(args):
    """(seconds, scaled seconds) of the same set-up in a fresh interpreter."""
    return tuple(json.loads(rerun(args, "--setup-only").splitlines()[-1])["setup_s"])


def reference(args):
    """The workload's reference values, solved after the same set-up in a
    fresh interpreter, so that their memory stays out of this process's peak
    RSS."""
    return pickle.loads(rerun(args, "--reference-only"))  # written by our own child


def git_commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, n_ops):
    import numpy
    import scipy

    import eddyplate

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "eddyplate": eddyplate.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
    }


def end_to_end(run, setup_samples):
    """(gated metrics, every end-to-end metric as measured).

    Gated times scale each op by the calibration unit run after it; peak RSS
    needs no scaling.
    """
    import calibration

    lat_ms = [t * 1e3 for t in run["latencies"]]
    scaled_ms = calibration.scaled(lat_ms, run["units"])
    n, failed = len(lat_ms), len(run["failures"])
    peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    gated = {
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "op_ms.p50": (statistics.median(scaled_ms), "ms"),
        "peak_rss_mb": peak_rss,
    }
    measured = {
        "setup_s": (statistics.median(raw for raw, _ in setup_samples), "s"),
        "ops_per_s": (rate(run["latencies"], failed), "1/s"),
        "op_ms.p50": (statistics.median(lat_ms), "ms"),
        "op_ms.min": (min(lat_ms), "ms"),
        "peak_rss_mb": peak_rss,
        "ops_failed_fraction": (failed / n, "fraction"),
        "calibration_unit_ms.p50": (statistics.median(run["units"]) * 1e3, "ms"),
    }
    if n >= P90_MIN_OPS:
        measured["op_ms.p90"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    return gated, measured


def as_json(metrics):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload, *setup = set_up(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.reference_only:
            sys.stdout.buffer.write(pickle.dumps(workload.reference()))
            return 0
        workload.refs = reference(args)
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            run = measure(workload, args.seconds, 0, tracer)
        else:
            # Set-up samples before and after the timed loop, so that they
            # fall in different spells of load on a shared host.
            setup_samples = [tuple(setup)] + [setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
            run = measure(workload, args.seconds, 0)
            setup_samples += [setup_sample(args) for _ in range(len(setup_samples), SETUP_SAMPLES)]
    finally:
        workload.close()

    attempted, failures = len(run["latencies"]), run["failures"]
    report = {"environment": environment(args, attempted), "failures": failures[:10]}
    if args.trace:
        traced = [t for t, on in zip(run["latencies"], run["traced"]) if on]
        plain = [t for t, on in zip(run["latencies"], run["traced"]) if not on]
        overhead = 1.0 - rate(traced) / rate(plain) if traced and plain else 0.0
        metrics = tracer.metrics(len(traced), sum(traced), run["warnings"], overhead)
        report["untraced_ops_per_s"] = rate(plain)
        report["traced_ops_per_s"] = rate(traced)
    else:
        metrics, measured = end_to_end(run, setup_samples)
        report["measured"] = as_json(measured)
        report["setup_samples_s"] = setup_samples
        if "op_ms.p90" in measured:
            report["op_ms.p90_samples"] = attempted
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
