"""Span tracer that wraps the program's public functions from outside.

The program is not modified.  ``Tracer.install()`` replaces every public
function and every public method (plus ``__init__``) of every loaded
``repro`` module with a timing wrapper, at class or module level, and
keeps wrapping modules that load later.  Classes are wrapped before any
instance exists, which matters because ``Hierarchy`` binds peer methods
and ``Stats.inc`` into attributes in its ``__init__``.

Each call becomes one span: name id, start, end, parent span index and
iteration id, appended to flat arrays in memory.  A generator function
gets one span per resume, so the work done while producing each item is
charged to the generator's layer.  ``dump()`` writes the spans out when
the traced pass ends; forked pool workers start with empty arrays and
dump each time their span stack empties, so nothing is lost when the
pool shuts down.  ``load_chunks``/``self_times`` turn the files back into
per-name call counts and self time (duration minus time covered by child
spans).

Known gap: ``Hierarchy`` increments ``stats._counters`` directly on its
hot path, so those increments never pass through ``Stats.inc`` and the
``sim.stats`` layer is only partly visible from outside.
"""

from __future__ import annotations

import functools
import glob
import importlib.abc
import importlib.machinery
import inspect
import os
import pickle
import sys
import time
from array import array
from enum import Enum
from typing import Callable, Dict, List

PACKAGE = "repro"


class _WrapOnImport(importlib.abc.MetaPathFinder):
    """Wraps ``repro`` modules that load after ``install()``."""

    def __init__(self, tracer: "Tracer") -> None:
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        loader_exec = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            loader_exec(module)
            tracer.wrap_modules([module])

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    """In-memory span recorder plus the wrapping machinery."""

    def __init__(self, layer_of: Callable[[str], str], out_path: str,
                 iteration: int = 0) -> None:
        self.layer_of = layer_of
        self.out_path = out_path
        self.iteration = iteration
        #: name id -> "layer:qualified.name"
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_iter = array("H")
        self.stack: List[int] = []
        #: Numbers the post-call hooks observe (summed across a dump).
        self.counters: Dict[str, float] = {}
        #: id(original) -> wrapper, so an aliased function keeps one wrapper
        #: and identity checks in the program (``a is B.f``) still hold.
        self._wrapped: Dict[int, Callable] = {}
        self._originals: Dict[int, Callable] = {}
        self._done_modules: set = set()
        #: "module.Qualname" -> hook(tracer, args, result), run after the span.
        self.hooks: Dict[str, Callable] = {}
        self._dump_on_root = False

    # -- spans -----------------------------------------------------------
    def name_id(self, layer: str, qualname: str) -> int:
        key = f"{layer}:{qualname}"
        nid = self.name_ids.get(key)
        if nid is None:
            nid = self.name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_iter.append(self.iteration)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()
        if self._dump_on_root and not self.stack:
            self.dump()

    def _clear(self) -> None:
        for arr in (self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_iter):
            del arr[:]
        self.counters = {}

    def dump(self) -> None:
        """Append the recorded spans (and hook counters) to ``out_path``."""
        if not len(self.span_name) and not self.counters:
            return
        chunk = {
            "pid": os.getpid(),
            "names": list(self.names),
            "name": self.span_name.tobytes(),
            "start": self.span_start.tobytes(),
            "end": self.span_end.tobytes(),
            "parent": self.span_parent.tobytes(),
            "iter": self.span_iter.tobytes(),
            "counters": self.counters,
        }
        # One file per process: pool workers dump concurrently.
        with open(f"{self.out_path}.{os.getpid()}", "ab") as handle:
            pickle.dump(chunk, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._clear()

    def _after_fork(self) -> None:
        # A pool worker inherits the parent's open spans; its own calls
        # are roots, and each root's spans are written as soon as it ends.
        self._clear()
        self.stack.clear()
        self._dump_on_root = True

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- wrapping --------------------------------------------------------
    def original(self, fn: Callable) -> Callable:
        return self._originals.get(id(fn), fn)

    def _wrap(self, fn: Callable, layer: str, qualname: str) -> Callable:
        wrapper = self._wrapped.get(id(fn))
        if wrapper is not None:
            return wrapper
        nid = self.name_id(layer, qualname)
        hook = self.hooks.get(f"{fn.__module__}.{fn.__qualname__}")
        tracer = self
        span_open, span_close = self.open, self.close

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = span_open(nid)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        span_close(idx)
                    yield item
        elif hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = span_open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span_close(idx)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = span_open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span_close(idx)
                hook(tracer, args, result)
                return result

        self._wrapped[id(fn)] = wrapper
        self._originals[id(wrapper)] = fn
        return wrapper

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, (BaseException, Enum)):
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(value, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(value.__func__, layer, value.__func__.__qualname__)))
            elif isinstance(value, classmethod):
                setattr(cls, attr, classmethod(
                    self._wrap(value.__func__, layer, value.__func__.__qualname__)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self._wrap(value, layer, value.__qualname__))

    def wrap_modules(self, modules) -> None:
        """Wrap what each module defines, then rebind imported aliases."""
        for module in modules:
            name = module.__name__
            if name in self._done_modules:
                continue
            self._done_modules.add(name)
            layer = self.layer_of(name)
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != name:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, layer)
                elif inspect.isfunction(value) and not attr.startswith("_"):
                    setattr(module, attr, self._wrap(value, layer, value.__qualname__))
        # ``from x import f`` copied the original into other namespaces.
        for module in _loaded_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every loaded ``repro`` module and every one loaded later."""
        self.wrap_modules(_loaded_modules())
        sys.meta_path.insert(0, _WrapOnImport(self))
        os.register_at_fork(after_in_child=self._after_fork)


def _loaded_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


# -- reading spans back -----------------------------------------------------
def load_chunks(path: str) -> List[dict]:
    """Every chunk the processes of one traced pass wrote for ``path``."""
    chunks = []
    for name in sorted(glob.glob(glob.escape(path) + ".*")):
        with open(name, "rb") as handle:
            while True:
                try:
                    chunks.append(pickle.load(handle))
                except EOFError:
                    break
    return chunks


def self_times(chunks: List[dict]):
    """Per span name: [calls, self seconds]; plus the summed hook counters.

    Spans within one chunk nest properly (one thread per process), so the
    part of a span its children cover is the sum of their durations.
    """
    table: Dict[str, List[float]] = {}
    counters: Dict[str, float] = {}
    spans = 0
    for chunk in chunks:
        names = array("H"); names.frombytes(chunk["name"])
        start = array("d"); start.frombytes(chunk["start"])
        end = array("d"); end.frombytes(chunk["end"])
        parent = array("i"); parent.frombytes(chunk["parent"])
        dur = [e - s for s, e in zip(start, end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                covered[p] += dur[i]
        per_id: Dict[int, List[float]] = {}
        for nid, d, c in zip(names, dur, covered):
            entry = per_id.get(nid)
            if entry is None:
                entry = per_id[nid] = [0, 0.0]
            entry[0] += 1
            entry[1] += d - c
        for nid, (calls, self_s) in per_id.items():
            entry = table.setdefault(chunk["names"][nid], [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        spans += len(names)
        for key, value in chunk["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    return table, counters, spans


__all__ = ["Tracer", "load_chunks", "self_times"]
