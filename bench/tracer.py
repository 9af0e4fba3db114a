"""Span tracer that wraps deltakit's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of each
`deltakit.<module>` (and `TestFunction.__call__`) with a wrapper that records
a span, in every deltakit module that binds the function by name: so
`adaptive_quad` is wrapped where `pairing`, `seqdist` and `special` import it,
and `si` where `families` imports it. The quadrature wrappers also wrap the
integrand they receive, counting its points and its 0-d (scalar fallback)
calls. `Tracer.uninstall()` puts every original back.

Spans live in memory as parallel typed arrays (name, start, end, parent,
operation) and are written out once, by `dump`. A span's self time is its duration minus
the time covered by its child spans; spans of one thread nest, so that is the
sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import inspect
from array import array
import json
import sys
import time

import numpy as np

INTEGRAND = "integrand"
_QUAD_FUNCS = ("adaptive_quad", "anchored_primitive_values")


def self_times(start, end, parent):
    """Duration of each span minus the durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _deltakit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "deltakit" or name.startswith("deltakit."))]


def _x_index(fn):
    """Position of the parameter named x, which carries the evaluation points."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    return params.index("x") if "x" in params else None


class Tracer:
    """Records spans and counters at deltakit's module boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_id = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._stack = []
        self._active = []
        self.calls = []
        self.points = []
        self.outer_s = []  # summed durations of spans not nested in a same-named span
        self.site_calls = {}  # (binding module, function name) -> calls through it
        self.quad = {"calls": 0, "panels": 0, "maxed": 0, "converged": 0,
                     "scalar_fallback_points": 0}
        self.op = -1
        self.op_labels = []
        self._patched = []

    # -- spans -------------------------------------------------------------

    def name_id(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
            self.calls.append(0)
            self.points.append(0)
            self.outer_s.append(0.0)
        return nid

    def begin_op(self, label):
        """Start a new operation; later spans carry its id."""
        self.op = len(self.op_labels)
        self.op_labels.append(label)

    def open(self, nid, points=0):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._active[nid] += 1
        self.calls[nid] += 1
        self.points[nid] += points
        self.span_start.append(self.clock())
        return idx

    def close(self, idx):
        end = self.clock()
        self.span_end[idx] = end
        self._stack.pop()
        nid = self.span_name[idx]
        self._active[nid] -= 1
        if self._active[nid] == 0:
            self.outer_s[nid] += end - self.span_start[idx]

    def self_times(self):
        return self_times(self.span_start, self.span_end, self.span_parent)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name, site):
        nid = self.name_id(name)
        xi = _x_index(fn)
        tracer = self
        self.site_calls.setdefault(site, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.site_calls[site] += 1
            if xi is None:
                pts = 0
            elif xi < len(args):
                pts = np.size(args[xi])
            else:
                pts = np.size(kwargs.get("x", 0))
            idx = tracer.open(nid, pts)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _integrand(self, f):
        if getattr(f, "_bench_traced", False):
            return f  # anchored_primitive_values hands its traced f to adaptive_quad
        nid = self.name_id(INTEGRAND)
        tracer = self

        def traced_integrand(x):
            if np.ndim(x) == 0:
                tracer.quad["scalar_fallback_points"] += 1
            idx = tracer.open(nid, np.size(x))
            try:
                return f(x)
            finally:
                tracer.close(idx)

        traced_integrand._bench_traced = True
        return traced_integrand

    def _wrap_quad(self, fn, name, site):
        """Span wrapper that also traces the integrand and reads the result."""
        defaults = {k: p.default for k, p in inspect.signature(fn).parameters.items()
                    if p.default is not inspect.Parameter.empty}
        inner = self._wrap(fn, name, site)
        tracer = self
        counts_result = fn.__name__ == "adaptive_quad"

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            res = inner(tracer._integrand(f), *args, **kwargs)
            if counts_result:
                q = tracer.quad
                q["calls"] += 1
                q["panels"] += res.panels_used
                if res.panels_used >= kwargs.get("max_panels", defaults["max_panels"]):
                    q["maxed"] += 1
                if res.abs_error_estimate <= kwargs.get("tol", defaults["tol"]):
                    q["converged"] += 1
            return res

        return traced

    def install(self):
        """Wrap every public deltakit function at each module that binds it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _deltakit_modules()
        originals = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if mod.__name__ == "deltakit" or layer.startswith("_"):
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = f"{layer}.{attr}"
        for mod in modules:
            site_mod = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                name = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if name is None:
                    continue
                wrap = self._wrap_quad if obj.__name__ in _QUAD_FUNCS else self._wrap
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrap(obj, name, (site_mod, obj.__name__)))
        testfn = sys.modules["deltakit.testfn"]
        call = testfn.TestFunction.__call__
        self._patched.append((testfn.TestFunction, "__call__", call))
        testfn.TestFunction.__call__ = self._wrap(call, "testfn.TestFunction.__call__",
                                                  ("testfn", "TestFunction.__call__"))
        return self

    def uninstall(self):
        """Restore every original binding, in reverse order of patching."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def dump(self, path):
        """Write every span as JSON columns: name id, start, end, parent, op id."""
        start = np.asarray(self.span_start)
        t0 = start[0] if start.size else 0.0
        payload = {
            "names": self.names,
            "op_labels": self.op_labels,
            "name": self.span_name.tolist(),
            "start_s": (start - t0).round(9).tolist(),
            "end_s": (np.asarray(self.span_end) - t0).round(9).tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
