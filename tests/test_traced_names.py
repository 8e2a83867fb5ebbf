"""The benchmark's tracer finds every function it traces.

bench/tracing.py wraps each name of its LAYERS by looking it up in its
module, and skips one that is gone: a function moved or renamed would then
read 0 in every per-layer metric without an error. This test loads the
tracer's source, without writing anything under bench/, and resolves each
name.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# Traced under a name that no function has had since the coil kernel became
# the cached tables of dodd_deeds: its metrics read 0 until the tracer counts
# those tables instead.
GONE = {"dodd_deeds.coil_kernel"}


def test_every_traced_name_resolves_to_a_function():
    tracing = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
    layers = tracing["LAYERS"]
    assert GONE <= set(layers)
    for name in layers:
        module, attr = name.rsplit(".", 1)
        target = getattr(importlib.import_module(f"eddyplate.{module}"), attr, None)
        if name in GONE:
            assert target is None, name
        else:
            assert callable(target), name
