"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Runs every workload for a fraction of a second in both modes and checks the
result line against BENCHMARK.json, checks that a corrupted output is
counted as a failed op, and that the benchmark refuses to run without the
package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run.import_package()
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    report = json.loads(lines[-2])
    assert report["environment"]["seed"] == 3
    if not trace:
        measured = report["measured"]
        assert set(expected) | {"op_ms.min", "ops_failed_fraction"} <= set(measured)
        assert measured["ops_failed_fraction"]["value"] == 0.0


class Corrupting:
    """Delegates to a workload but corrupts the output of one op."""

    def __init__(self, inner, bad_op, corrupt):
        self.inner, self.bad_op, self.corrupt = inner, bad_op, corrupt
        self.max_ops = inner.max_ops

    def op(self, i):
        out = self.inner.op(i)
        return self.corrupt(self.inner, out) if i == self.bad_op else out

    def check(self, i, out):
        return self.inner.check(i, out)


def _scale_checked_value(wl, out):
    bad = out.copy()
    k = next(iter(wl.refs[1]))
    bad[k] *= 1.0 + 1e-5  # ten times the gate's tolerance
    return bad


def _double_fitted_sigma_d(wl, codes):
    path = Path(wl.files["fit"])
    fit = json.loads(path.read_text())
    fit["sigma_d_S"] *= 2.0
    path.write_text(json.dumps(fit))
    return codes


@pytest.mark.parametrize(
    "name, corrupt",
    [("dd_liftoff_scan", _scale_checked_value), ("thin_invert_cli", _double_fitted_sigma_d)],
)
def test_gate_counts_a_corrupted_output_as_failed(name, corrupt):
    wl = workloads.WORKLOADS[name](seed=3, max_ops=3)
    wl.setup()
    try:
        wl.refs = wl.reference()
        result = run.measure(Corrupting(wl, 1, corrupt), seconds=60.0, start=0)
    finally:
        wl.close()
    assert len(result["latencies"]) == 3
    assert len(result["failures"]) == 1 and result["failures"][0].startswith("op 1:")


def test_gates_reject_bad_values():
    assert workloads.check_values([1.0, 2.0], {1: 2.0}) is None
    assert workloads.check_values([1.0, float("nan")], {}) is not None
    assert workloads.check_inversion([0, 0, 0, 2], {"converged": True}, {}, 1.0, 1.0) is not None
    fit = {"converged": False, "sigma_d_S": 1.0}
    assert workloads.check_inversion([0] * 4, fit, {"max_rel_error": 0.0}, 1.0, 1.0) is not None
    fit["converged"] = True
    assert workloads.check_inversion([0] * 4, fit, {"max_rel_error": 1e-9}, 1.0, 1.0) is not None
    assert workloads.check_inversion([0] * 4, fit, {"max_rel_error": 0.0}, 1.0, 1e-3) is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", "work-*")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    done = run_bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
