"""In-memory span tracer for the ckgeom layers, installed from outside the package.

Each layer is one package module.  `Tracer.install` replaces every public
function of a layer and every hand-written method of its public classes
(including `__post_init__` and operator dunders, excluding the methods a
dataclass generates) with a wrapper that records one span per call:
name, start, end, parent span and whether the call ended in a ckgeom
exception.  Names that other ckgeom modules imported (`poisson` imports
`coords_from_group`, `checks` imports `sklyanin_numeric`, ...) are rebound
to the same wrapper.  `Tracer.uninstall` puts every original binding back.

Spans live in typed arrays, so a sweep's million calls cost tens of
megabytes, and are written out only by `Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from types import ModuleType

import numpy as np

PACKAGE = "ckgeom"
LAYERS = ("ktrig", "algebra", "group", "spaces", "dualities", "poisson", "quantum", "checks", "cli")

_MARK = "__perfbench_traced__"


def _is_marked(obj) -> bool:
    if isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    return getattr(obj, _MARK, False)


class Tracer:
    """Wraps the layers of the imported package and records a span per call."""

    def __init__(self, layers: tuple[str, ...] = LAYERS, clock=time.perf_counter) -> None:
        self.layers = layers
        self.clock = clock
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.raised = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # Exceptions counted as `raised`; install() narrows it to the package's own.
        self.error_type: type[BaseException] = Exception

    # --- recording ------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """A wrapper of fn that records one span named name per call."""
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(self.layers.index(layer))
        start, end, parent, name_id, raised = self.start, self.end, self.parent, self.name_id, self.raised
        stack = self._stack
        clock = self.clock
        error_type = self.error_type

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except error_type:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(traced, _MARK, True)
        return traced

    # --- installing -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls: type, layer: str, source: str) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, property) and raw.fget is not None and _defined_in(raw.fget, source):
                self._set(cls, attr, property(self.wrap(raw.fget, name, layer), raw.fset, raw.fdel, raw.__doc__))
            elif isinstance(raw, (classmethod, staticmethod)) and _defined_in(raw.__func__, source):
                self._set(cls, attr, type(raw)(self.wrap(raw.__func__, name, layer)))
            elif inspect.isfunction(raw) and _defined_in(raw, source):
                self._set(cls, attr, self.wrap(raw, name, layer))

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.error_type = sys.modules[f"{PACKAGE}.errors"].GeometryError
        wrapped: dict[int, object] = {}
        for layer in self.layers:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            source = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, source)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- reading --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Span columns; parent is -1 for a root span."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
        }

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the time its child spans cover.

        Calls are synchronous on one thread, so the children of a span
        never overlap each other and lie inside their parent."""
        s = self.spans()
        duration = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=duration[child], minlength=len(duration))
        return duration - covered

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and raised summed per layer (every layer listed)."""
        s = self.spans()
        layer_of = np.asarray(self.name_layer, dtype=np.int64)[s["name_id"]]
        n = len(self.layers)
        calls = np.bincount(layer_of, minlength=n)
        self_s = np.bincount(layer_of, weights=self.self_times(), minlength=n)
        raised = np.bincount(layer_of, weights=s["raised"], minlength=n)
        return {
            layer: {"calls": int(calls[i]), "self_s": float(self_s[i]), "raised": int(raised[i])}
            for i, layer in enumerate(self.layers)
        }

    def name_totals(self) -> dict[str, dict[str, float]]:
        """calls, self_s and total_s (durations, counting nested calls of the
        same name twice) summed per span name, for names that were called."""
        s = self.spans()
        n = len(self.names)
        calls = np.bincount(s["name_id"], minlength=n)
        self_s = np.bincount(s["name_id"], weights=self.self_times(), minlength=n)
        total_s = np.bincount(s["name_id"], weights=s["end"] - s["start"], minlength=n)
        return {
            self.names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i]), "total_s": float(total_s[i])}
            for i in np.flatnonzero(calls)
        }

    def dump(self, path: str) -> None:
        """Write the spans and the name table to a compressed .npz file."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.spans())


def _defined_in(fn, source: str) -> bool:
    # Methods a dataclass generates are compiled from strings, not the module file.
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == source


def _package_modules() -> list[ModuleType]:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def leftover_wrappers() -> list[str]:
    """Bindings in the package's modules and classes that are still tracer wrappers."""
    found = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if _is_marked(obj):
                found.append(f"{mod.__name__}.{attr}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{obj.__name__}.{a}" for a, raw in vars(obj).items() if _is_marked(raw))
    return found
