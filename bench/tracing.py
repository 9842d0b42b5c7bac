"""Span tracing of hamest from outside the library.

`Tracer.install()` wraps every public function of the layer modules (and
the public methods of their classes) plus `scipy.optimize.minimize`, then
rebinds every module-level name that refers to an original: a function
imported with `from .x import f` lives in several namespaces, and a call
through any of them must be recorded. `uninstall()` restores the originals.

Spans are kept in memory as parallel columns and summarized (or written)
when the run ends. Only the thread that installed the tracer records; the
benchmark never traces a multi-threaded phase.
"""

import functools
import importlib
import sys
import threading
import time
import types
from array import array

import numpy as np

LAYERS = ("core", "qfim", "variance", "adaptive", "robustness", "simulator", "util", "cli")
MINIMIZE = "scipy.optimize.minimize"


def _is_function(obj):
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.error_col = array("b")
        self.minimize_nit = 0
        self._stack = []
        self._thread = None
        self._bindings = []  # (container, key, original, is_mapping)
        self._originals = {}  # id(original) -> wrapper

    # -- recording -------------------------------------------------------

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.end_col.append(0)
        self.error_col.append(0)
        self._stack.append(idx)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def close(self, idx, error):
        self.end_col[idx] = time.perf_counter_ns()
        if error:
            self.error_col[idx] = 1
        self._stack.pop()

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span that the benchmark itself opens."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name, fn, on_result=None):
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, True)
                raise
            tracer.close(idx, False)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_nit(self, result):
        self.minimize_nit += int(getattr(result, "nit", 0))

    # -- patching --------------------------------------------------------

    def _namespaces(self):
        return [m for name, m in sorted(sys.modules.items()) if name == "hamest" or name.startswith("hamest.")]

    def install(self):
        import scipy.optimize

        self._thread = threading.get_ident()
        targets = []  # (owner, attr, original, span name)
        for layer in LAYERS:
            mod = importlib.import_module(f"hamest.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if _is_function(obj) and obj.__module__ == mod.__name__:
                    targets.append((mod, attr, obj, f"{layer}.{attr}"))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            targets.append((obj, meth, fn, f"{layer}.{obj.__name__}.{meth}"))
        targets.append((scipy.optimize, "minimize", scipy.optimize.minimize, MINIMIZE))

        for owner, attr, original, name in targets:
            hook = self._count_nit if name == MINIMIZE else None
            wrapper = self._wrap(name, original, hook)
            self._originals[id(original)] = wrapper
            self._bind(owner, attr, original, wrapper, mapping=False)
        for mod in self._namespaces():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in self._originals:
                    self._bind(mod, attr, obj, self._originals[id(obj)], mapping=False)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in self._originals:
                            self._bind(obj, key, val, self._originals[id(val)], mapping=True)

    def _bind(self, container, key, original, wrapper, mapping):
        if mapping:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)
        self._bindings.append((container, key, original, mapping))

    def uninstall(self):
        for container, key, original, mapping in reversed(self._bindings):
            if mapping:
                container[key] = original
            else:
                setattr(container, key, original)
        self._bindings.clear()

    def unpatched_bindings(self):
        """Module-level names (and registry dict entries) that still bind an
        original instead of its wrapper; empty when installation is complete."""
        import scipy.optimize

        missed = []
        for mod in self._namespaces() + [scipy.optimize]:
            for attr, obj in vars(mod).items():
                if id(obj) in self._originals:
                    missed.append(f"{mod.__name__}.{attr}")
                elif isinstance(obj, dict) and mod is not scipy.optimize:
                    for key, val in obj.items():
                        if id(val) in self._originals:
                            missed.append(f"{mod.__name__}.{attr}[{key!r}]")
        return missed

    # -- results ---------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, errors.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly on one thread, so the children never
        overlap each other.
        """
        names = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent_col, dtype=np.int64)
        dur = (np.frombuffer(self.end_col, dtype=np.int64) - np.frombuffer(self.start_col, dtype=np.int64)) * 1e-9
        errors = np.frombuffer(self.error_col, dtype=np.int8)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - child, minlength=k)
        errs = np.bincount(names, weights=errors, minlength=k)
        return {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i]), "errors": int(errs[i])}
            for i, n in enumerate(self.names)
        }

    @property
    def span_count(self):
        return len(self.start_col)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
            error=np.frombuffer(self.error_col, dtype=np.int8),
        )
