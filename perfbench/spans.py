"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` swaps every module-level binding of each function named
in ``LAYERS`` inside the loaded ``freqbin`` modules for a timing wrapper,
so nested calls made through another module's import (the pair solves
inside ``crossing_temperature``, ``biphoton.solve_signal_idler``, ...) are
recorded too. ``uninstall`` puts the original objects back. A function
that the program no longer exports is listed in ``Tracer.absent`` and its
metrics are left out rather than reported as zero.

A span is (id, parent id, name, start, end, counters, error). Self time is
a span's duration minus the summed durations of its direct children: the
tracer keeps one call stack on one thread, so siblings never overlap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _joint_spectrum(bound, result):
    return {"points": len(result.omega)}


def _segment_amplitude(bound, result):
    return {"points": int(np.size(bound.arguments["omega_s"]))}


def _reduce_to_bins(bound, result):
    # computed from array shapes: the delay scan builds a complex128
    # tau_scan_points x N array (801 x 4097 x 16 B = 52.5 MB)
    scan = bound.arguments.get("tau_scan_points", 801)
    n = len(bound.arguments["sa"].omega)
    return {"scan_bytes_computed": int(scan) * n * 16}


def _fit_homi(bound, result):
    return {"iterations": int(result.n_iter),
            "points": len(bound.arguments["scan"].delays)}


def _mle_tomography(bound, result):
    n_iter = getattr(result, "n_iter", None)
    return {} if n_iter is None else {"iterations": int(n_iter)}


# module -> {public function -> counter extractor or None}
LAYERS = {
    "dispersion": {"load_sellmeier": None, "group_index": None},
    "qpm": {"load_crystal": None, "solve_signal_idler": None,
            "tuning_curve": None, "crossing_temperature": None},
    "biphoton": {"joint_spectrum": _joint_spectrum,
                 "segment_amplitude": _segment_amplitude,
                 "reduce_to_bins": _reduce_to_bins},
    "hom": {"synthesize_scan": None, "fit_homi": _fit_homi},
    "entanglement": {"load_projectors": None, "rho_freq": None,
                     "mode_convert": None, "simulate_counts": None,
                     "mle_tomography": _mle_tomography},
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counters",
                 "error")

    def __init__(self, id, parent, name, start, end=0.0, counters=None,
                 error=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.counters = counters or {}
        self.error = error

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """In-memory span recorder; one per process, enabled while installed."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._patched = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        sig = inspect.signature(fn) if count else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name,
                        clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counters = count(sig.bind(*args, **kwargs), result)
            return result
        return wrapper

    def install(self, layers=LAYERS, package: str = "freqbin") -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package
                                        or n.startswith(package + "."))]
        for module_name, functions in layers.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for fname, count in functions.items():
                fn = getattr(module, fname, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{fname}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fname}", fn, count)
                for mod in loaded:
                    for attr in [a for a, v in vars(mod).items() if v is fn]:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the summed durations of direct children."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans) -> dict:
    """Per span name: calls, total_s, self_s, failed, summed and maximal
    counters, and the number of child calls by child name."""
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "failed": 0, "sum": defaultdict(float),
                               "max": {}, "children": defaultdict(int)})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += selfs[s.id]
        row["failed"] += s.error is not None
        for k, v in s.counters.items():
            row["sum"][k] += v
            row["max"][k] = max(row["max"].get(k, v), v)
        if s.parent is not None:
            out[names[s.parent]]["children"][s.name] += 1
    return dict(out)
