"""In-memory span recorder wrapped around kochnet's public functions.

``Tracer.install()`` rebinds every public kochnet function in every
loaded ``kochnet`` module namespace to a wrapper, so each caller sees the
wrapped name (``kochnet.verify.route`` and ``kochnet.routing.route`` are
both wrapped and record the span ``routing.route``).  ``KochGraph``'s
export methods and cached index properties are wrapped on the class.

A span is (name id, parent span index, start, end), appended to compact
arrays, so millions of spans fit in tens of megabytes.  ``summary()``
reduces them to per-name calls, inclusive seconds and self seconds (the
span's duration minus the durations of its direct children).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

_PAGE = os.sysconf("SC_PAGE_SIZE")

GRAPH_METHODS = ("write_edgelist", "write_json", "write_dot")


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fp:
        return int(fp.read().split()[1]) * _PAGE


def _span_name(fn) -> str:
    module = fn.__module__.removeprefix("kochnet.")
    return f"{module}.{fn.__qualname__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn):
        name = _span_name(fn)
        nid = self._intern(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        after = self._after_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _after_hook(self, name: str):
        counters = self.counters
        if name == "routing.route":
            def after(path):
                counters["routing.ops_total"] = counters.get("routing.ops_total", 0) + path.ops_used
            return after
        return None

    def _wrap_build(self, fn):
        """graph.build also records the RSS it adds, per vertex built."""
        inner = self.wrap(fn)
        counters = self.counters

        @functools.wraps(fn)
        def build(*args, **kwargs):
            before = current_rss_bytes()
            graph = inner(*args, **kwargs)
            counters["graph.bytes_per_vertex"] = (current_rss_bytes() - before) / graph.n_vertices
            return graph

        build.__wrapped_by_tracer__ = True
        return build

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public kochnet function where each module can see it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kochnet" or n.startswith("kochnet.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr.startswith("_"):
                    continue
                if not obj.__module__.startswith("kochnet") or obj.__name__.startswith("_"):
                    continue
                if getattr(obj, "__wrapped_by_tracer__", False):
                    continue
                if id(obj) not in wrappers:
                    is_build = obj.__module__ == "kochnet.graph" and obj.__name__ == "build"
                    wrappers[id(obj)] = self._wrap_build(obj) if is_build else self.wrap(obj)
                self._set(module, attr, wrappers[id(obj)])

        graph_cls = sys.modules["kochnet.graph"].KochGraph
        for attr in GRAPH_METHODS:
            self._set(graph_cls, attr, self.wrap(graph_cls.__dict__[attr]))
        for attr, prop in list(vars(graph_cls).items()):
            if isinstance(prop, functools.cached_property):
                wrapped = functools.cached_property(self.wrap(prop.func))
                wrapped.__set_name__(graph_cls, attr)
                self._set(graph_cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus counters."""
        name = np.asarray(self.name, np.int32)
        parent = np.asarray(self.parent, np.int32)
        dur = np.asarray(self.end, np.float64) - np.asarray(self.start, np.float64)
        child = np.zeros(dur.shape[0])
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        spans = {
            n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
            for i, n in enumerate(self.names)
            if calls[i]
        }
        return {"spans": spans, "counters": dict(self.counters), "n_spans": int(dur.shape[0])}


def dump(summary: dict, path: str) -> None:
    with open(path, "w") as fp:
        json.dump(summary, fp, indent=1, sort_keys=True)
        fp.write("\n")
