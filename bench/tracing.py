"""Call tracing of the package's layers from outside the package.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper in every package namespace that binds the original
(``spectra.z_extremes``, ``spectra.eval_form``, ``polyroots.count_roots``,
the package root, ...), so calls between layers are seen too.  Each call
becomes a span (name, start, end, parent span, operation id, outcome) held
in flat arrays; self time is a span's duration minus that of its direct
children.  Counts that only the returned objects know (critical points,
non-converged eigenpairs) are tallied as the calls return.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("core", "polyroots", "associated", "vandermonde", "plane", "spectra", "cli", "serialize", "worked_examples")

OK, NUMERICAL_ERROR, OVERRUN, OTHER_ERROR = 0, 1, 2, 3


class Tracer:
    def __init__(self, package, overrun_type):
        self.package = package
        self.overrun_type = overrun_type
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")
        self.counts = Counter()
        self._stack = [-1]
        self._op = -1
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, label):
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.outcome.append(OK)
        self._stack.append(sid)
        return sid

    def _close(self, sid, t0, t1, outcome):
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1
        self.outcome[sid] = outcome

    def span(self, label, fn, *args, **kwargs):
        sid = self._open(label)
        outcome = OTHER_ERROR
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            outcome = OK
            return out
        except self.overrun_type:
            outcome = OVERRUN
            raise
        except self.package.NumericalError:
            outcome = NUMERICAL_ERROR
            raise
        finally:
            self._close(sid, t0, time.perf_counter(), outcome)

    def operation(self, op_id, fn, *args):
        """Run one benchmark operation as a root span tagged ``op_id``."""
        self._op = op_id
        try:
            return self.span("bench.op", fn, *args)
        finally:
            self._op = -1

    # -- installation ------------------------------------------------------

    def _wrap(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(label, fn, *args, **kwargs)
            if label == "plane.copositive_check":
                counts["plane.copositive_check.critical_points"] += len(out.critical_points)
            elif label == "spectra.zeig_extreme" and not out.converged:
                counts["spectra.zeig_extreme.nonconverged"] += 1
            return out

        return traced

    def install(self):
        pkg_name = self.package.__name__
        modules = {layer: importlib.import_module(f"{pkg_name}.{layer}") for layer in LAYERS}
        namespaces = [self.package, *modules.values()]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per span name: call count, total self seconds and outcome counts."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        outcome = np.frombuffer(self.outcome, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        out = {}
        for i, label in enumerate(self.names):
            mine = outcome[name == i]
            out[label] = {
                "calls": int(calls[i]),
                "self_s": float(selfs[i]),
                "numerical_errors": int(np.sum(mine == NUMERICAL_ERROR)),
                "overruns": int(np.sum(mine == OVERRUN)),
            }
        return out

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            outcome=np.frombuffer(self.outcome, dtype=np.int8),
        )
