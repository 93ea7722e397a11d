"""Timing wrappers for the traced run.

The wrappers go on the public functions of gupmol's layer modules, in every
gupmol module that holds a reference to them, so calls made inside the
program are seen as well as the benchmark's own.  A span's self time is its
duration minus the spans of wrapped functions it called.  Spans are kept in
memory (flat arrays, up to SPAN_CAP of them) and written out at the end;
per-pass sums of calls, self time and counters feed the per-layer metrics.

Every layer module is imported when the tracer is made, so a layer that a
workload never calls shows zero calls; functions that a layer no longer has
are simply not wrapped, and the metrics built from them are reported absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
from array import array
from collections import defaultdict

LAYERS = ("kratzer", "pho", "spectroscopy", "oracle", "verify")
EXTRA = (("cli", "main"),)
SPAN_CAP = 2_000_000
WARNING_COUNTER = "spectroscopy.perturbation_warnings"


def _first(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counters taken from a call's arguments or result, keyed by function.
COUNTERS = {
    "spectroscopy.load_molecules": ("spectroscopy.load_molecules.rows",
                                    lambda a, k, r: len(r)),
    "spectroscopy.closed_form_table": ("spectroscopy.closed_form_table.levels",
                                       lambda a, k, r: len(r.entries)),
    "spectroscopy.fit_dunham": ("spectroscopy.fit_dunham.rows",
                                lambda a, k, r: len(_first(a, k, 0, "table").entries)),
    "oracle.solve_radial": ("oracle.solve_radial.grid_points",
                            lambda a, k, r: _first(a, k, 3, "grid").points),
    "verify.closed_vs_oracle_sweep": ("verify.sweep.cells", lambda a, k, r: len(r.cells)),
}


class _WarningsProxy:
    """Stands in for the ``warnings`` module inside gupmol modules and counts
    PerturbationWarning; everything else is the real module."""

    def __init__(self, tracer: "Tracer", category):
        self._tracer = tracer
        self._category = category

    def warn(self, message, category=None, stacklevel=1, source=None):
        if category is not None and self._category is not None and issubclass(
                category, self._category):
            self._tracer.counts[WARNING_COUNTER] += 1
        warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.span_key = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._stack: list[list] = []  # [span index, child time]
        self._patches: list[tuple] = []
        self.targets = self._discover()

    # -- discovery ---------------------------------------------------------
    def _discover(self) -> list[tuple[str, object]]:
        targets = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"gupmol.{layer}")
            except ImportError:
                continue
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                targets.append((f"{layer}.{attr}", obj))
        for layer, attr in EXTRA:
            try:
                obj = getattr(importlib.import_module(f"gupmol.{layer}"), attr, None)
            except ImportError:
                obj = None
            if inspect.isfunction(obj):
                targets.append((f"{layer}.{attr}", obj))
        for key, _ in targets:
            self.keys.append(key)
            self.calls.append(0)
            self.self_s.append(0.0)
        return targets

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, index: int, key: str, fn):
        counter = COUNTERS.get(key)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        span_key, span_parent = self.span_key, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(span_key) < SPAN_CAP:
                span = len(span_key)
                span_key.append(index)
                span_parent.append(parent)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                span = -1
                self.spans_dropped += 1
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][1] += duration
                calls[index] += 1
                self_s[index] += duration - frame[1]
                if span >= 0:
                    span_start[span] = t0
                    span_end[span] = t1
            if counter is not None:
                try:
                    counts[counter[0]] += counter[1](args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        """Replace every gupmol-held reference to a target by its wrapper."""
        wrappers = {id(fn): self._wrap(i, key, fn) for i, (key, fn) in enumerate(self.targets)}
        gupmol = sys.modules.get("gupmol")
        category = getattr(gupmol, "PerturbationWarning", None)
        proxy = _WarningsProxy(self, category)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gupmol" or name.startswith("gupmol.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
                elif value is warnings:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, proxy)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- per-pass sums -----------------------------------------------------
    def snapshot(self) -> dict:
        """Sums since the last snapshot, then reset them."""
        out = {"calls": dict(zip(self.keys, self.calls)),
               "self_s": dict(zip(self.keys, self.self_s)),
               "counts": dict(self.counts)}
        for i in range(len(self.keys)):
            self.calls[i] = 0
            self.self_s[i] = 0.0
        self.counts.clear()
        return out

    def spans(self) -> dict:
        return {"keys": list(self.keys), "key": self.span_key, "parent": self.span_parent,
                "start": self.span_start, "end": self.span_end,
                "dropped": self.spans_dropped}
