"""Span recorder for the traced benchmark run.

Wraps each public xythermo function on a workload path, in every module
that binds it by name, plus ``numpy.linalg.det``.  A span is (layer,
parent span, start, end); spans stay in memory in flat arrays and are
written once, at the end.  A layer's self time is its span time minus the
time of its direct child spans.
"""
from __future__ import annotations

import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (layer name, module that defines the function, attribute)
LAYERS = (
    ("cli.main", "xythermo.cli", "main"),
    ("faraday.temperature_snr", "xythermo.faraday", "temperature_snr"),
    ("thermometry.ensemble", "xythermo.thermometry", "ensemble"),
    ("thermometry.snr_crb", "xythermo.thermometry", "snr_crb"),
    ("spectrum.mode_table", "xythermo.spectrum", "mode_table"),
    ("correlations.kernel", "xythermo.correlations", "kernel"),
    ("correlations.var_jx", "xythermo.correlations", "var_jx"),
    ("correlations.mean_jz", "xythermo.correlations", "mean_jz"),
    ("correlations.var_jz", "xythermo.correlations", "var_jz_from_kernel"),
    ("correlations.fourth_moment", "xythermo.correlations", "fourth_moment_from_kernel"),
    ("lapack.det", "numpy.linalg", "det"),
)

# upper edges of the det matrix-size buckets (m x m); the last is open
DET_BUCKETS = (16, 64, 256)


def det_buckets() -> list[str]:
    return [f"m_le_{edge}" for edge in DET_BUCKETS] + [f"m_gt_{DET_BUCKETS[-1]}"]


def det_bucket(m: int) -> str:
    for edge in DET_BUCKETS:
        if m <= edge:
            return f"m_le_{edge}"
    return f"m_gt_{DET_BUCKETS[-1]}"


class SpanRecorder:
    """Flat in-memory span store; one instance per traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.det_span = array("i")  # span index of each det call
        self.det_m = array("i")     # matrix order
        self.det_batch = array("i")  # matrices in the call
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._wrappers: dict[str, object] = {}

    def wrap(self, name: str, fn):
        """The recording wrapper of ``fn`` under layer ``name`` (made once)."""
        if name not in self._wrappers:
            self._wrappers[name] = self._make(name, fn)
        return self._wrappers[name]

    def _make(self, name: str, fn):
        layer_id = len(self.names)
        self.names.append(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        if name != "lapack.det":
            return wrapper

        def det(a, *args, **kwargs):
            shape = np.shape(a)
            self.det_span.append(len(layer))
            self.det_m.append(int(shape[-1]))
            self.det_batch.append(int(np.prod(shape[:-2], dtype=np.int64)))
            return wrapper(a, *args, **kwargs)

        return det

    def summary(self) -> dict:
        """Per-layer calls, inclusive seconds and self seconds, plus det sizes."""
        layer = np.asarray(self.layer)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        k = len(self.names)
        out = {name: {"calls": int(c), "s": float(s), "self_s": float(o), "det_s": 0.0}
               for name, c, s, o in zip(self.names, np.bincount(layer, minlength=k),
                                        np.bincount(layer, dur, minlength=k),
                                        np.bincount(layer, own, minlength=k))}
        # det time attributed to the layer that called it
        det_idx = np.asarray(self.det_span)
        for idx in det_idx:
            p = parent[idx]
            if p >= 0:
                out[self.names[layer[p]]]["det_s"] += float(dur[idx])
        m = np.asarray(self.det_m, dtype=float)
        batch = np.asarray(self.det_batch, dtype=float)
        buckets = {}
        for i, edge_name in enumerate(det_bucket(int(v)) for v in m):
            b = buckets.setdefault(edge_name, {"matrices": 0, "s": 0.0})
            b["matrices"] += int(batch[i])
            b["s"] += float(dur[det_idx[i]])
        return {
            "layers": out,
            "det": {
                "matrices": int(batch.sum()),
                "flops_computed": float(np.sum(batch * (2.0 / 3.0) * m**3)),
                "bytes_computed": float(np.sum(batch * 8.0 * m**2)),
                "buckets": buckets,
            },
            "spans": int(len(dur)),
            "unwrapped": list(self.missing),
        }

    def write(self, path: str) -> None:
        doc = {
            "layers": self.names,
            "layer": self.layer.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "det": {"span": self.det_span.tolist(), "m": self.det_m.tolist(),
                    "batch": self.det_batch.tolist()},
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


@contextmanager
def installed(recorder: SpanRecorder):
    """Replace every binding of each traced function with its wrapper."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "xythermo" or name.startswith("xythermo."))]
    restore = []
    try:
        for layer, home, attr in LAYERS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                if layer not in recorder.missing:
                    recorder.missing.append(layer)
                continue
            wrapper = recorder.wrap(layer, fn)
            owners = modules + [sys.modules[home]]
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield recorder
    finally:
        for mod, key, fn in reversed(restore):
            setattr(mod, key, fn)
