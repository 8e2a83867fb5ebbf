"""In-memory span tracing of eddyplate's public functions, for per-layer metrics.

Each traced function is replaced, in every ``eddyplate`` module namespace
that binds it, by a wrapper that records one span: name, start, end, the
index of the enclosing span and one count taken from the call (nodes for the
alpha-grid kernels, iterations for the fit, bytes for the writers). Wrapping
the binding in the calling module's namespace (``eddyplate.dodd_deeds.
generalized_reflection``, ``eddyplate.cli.load_scenario``, ...) catches calls
made through a module attribute and through a ``from ... import`` alike.

A span's self time is its duration minus the durations of its direct
children; the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

GR = "te_layered.generalized_reflection"
CK = "dodd_deeds.coil_kernel"
DL = "dodd_deeds.delta_L"
FIT = "analysis.fit_sigma_d"
WRITERS = (
    "fileio.write_spectrum_csv",
    "fileio.write_fit_json",
    "fileio.write_report_json",
)

LAYERS = (
    GR,
    CK,
    DL,
    "dodd_deeds.delta_L_air",
    "analysis.sweep",
    FIT,
    "analysis.compare",
    "thin_plate.normalized_response_thin",
    "scenario.load_scenario",
    "fileio.read_spectrum_csv",
    *WRITERS,
    "cli.main",
)

WARNINGS = ("TruncationWarning", "ThinRegimeWarning")


def _argument_size(index, keyword):
    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[keyword]
        return int(np.size(value))

    return count


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


_COUNTS = {
    GR: _argument_size(0, "alpha0"),
    CK: _argument_size(1, "alpha"),
    FIT: lambda args, kwargs, fit: fit.iterations,
    **{name: _file_size for name in WRITERS},
}


class Tracer:
    """Records spans while installed; computes per-layer metrics from them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, count]
        self.errors = Counter()
        self._stack = []

    def _wrap(self, name, fn):
        count = _COUNTS.get(name)
        spans, stack, errors = self.spans, self._stack, self.errors

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block.

        A layer whose function no longer exists is skipped; its metrics
        then read 0.
        """
        patches = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "eddyplate" or key.startswith("eddyplate."))
        ]
        for name in LAYERS:
            module, attr = name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"eddyplate.{module}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    patches.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def metrics(self, n_ops, op_seconds, warning_counts, overhead_fraction):
        """Per-layer metrics, {name: (value, unit)}.

        Calls, counts and self times are per op, so that they compare across
        commits whatever the op rate; errors and warnings are totals.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for idx, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(idx)

        calls, self_s, counts = Counter(), Counter(), Counter()
        tail = Counter()  # coil_kernel calls on one node: the per-frequency tail check
        for idx, (name, start, end, _, count) in enumerate(spans):
            own = end - start - child_time[idx]
            calls[name] += 1
            self_s[name] += own
            counts[name] += count
            if name == CK and count == 1:
                tail["calls"] += 1
                tail["self_s"] += own

        levels = nodes = final_nodes = 0
        for idx, span in enumerate(spans):
            if span[0] != DL:
                continue
            grids = [spans[c][4] for c in children[idx] if spans[c][0] == GR]
            levels += len(grids)
            nodes += sum(grids)
            final_nodes += grids[-1] if grids else 0

        per_op = 1.0 / max(n_ops, 1)
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name] * per_op, "calls/op")
            out[f"{name}.self_s"] = (self_s[name] * per_op, "s/op")
            out[f"{name}.errors"] = (self.errors[name], "count")
        out[f"{GR}.nodes"] = (counts[GR] * per_op, "nodes/op")
        out[f"{GR}.ns_per_node"] = (_ratio(self_s[GR] * 1e9, counts[GR]), "ns")
        out[f"{CK}.nodes"] = (counts[CK] * per_op, "nodes/op")
        out[f"{CK}.tail_calls"] = (tail["calls"] * per_op, "calls/op")
        out[f"{CK}.tail_self_s"] = (tail["self_s"] * per_op, "s/op")
        out[f"{CK}.table_builds"] = ((calls[CK] - tail["calls"]) * per_op, "calls/op")
        out[f"{CK}.table_build_self_s"] = ((self_s[CK] - tail["self_s"]) * per_op, "s/op")
        out["dodd_deeds.levels_per_freq"] = (_ratio(levels, calls[DL]), "levels/freq")
        out["dodd_deeds.nodes_per_freq"] = (_ratio(nodes, calls[DL]), "nodes/freq")
        out["dodd_deeds.useful_node_fraction"] = (_ratio(final_nodes, nodes), "fraction")
        out[f"{FIT}.iterations"] = (counts[FIT] * per_op, "iterations/op")
        out["fileio.bytes_written"] = (sum(counts[w] for w in WRITERS) * per_op, "bytes/op")
        for category in WARNINGS:
            out[f"warnings.{category}"] = (warning_counts.get(category, 0), "count")
        out["trace.overhead_fraction"] = (overhead_fraction, "fraction")
        out["trace.self_time_coverage"] = (_ratio(sum(self_s.values()), op_seconds), "fraction")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
