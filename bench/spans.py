"""Span tracer for gramspec, installed from outside the package.

Every public function of every gramspec module is wrapped, and the wrapper
replaces the original in each gramspec module namespace that refers to it,
so calls between modules (and within one) nest as child spans.  A span
records its name, start, end, parent span and document id, plus flags for an
exception and for a call made with ``extended=True``.  Spans stay in memory
(flat arrays) until the run writes them out; self time is derived from them
afterwards: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("document", "spectrum", "companion", "gramians", "inverse", "energy",
          "oracle", "cli", "setup")
ERROR = 1
EXTENDED = 2


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.doc = array("i")
        self.flags = array("b")
        self.start = array("d")
        self.end = array("d")
        self.doc_id = -1
        self._stack: list = []
        self._patches: list = []
        self._wrappers: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float, doc: int) -> None:
        self.name.append(self._name_id(name))
        self.parent.append(-1)
        self.doc.append(doc)
        self.flags.append(0)
        self.start.append(start)
        self.end.append(end)

    def _wrap(self, fn, span_name: str):
        nid = self._name_id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.doc.append(self.doc_id)
            self.flags.append(EXTENDED if kwargs.get("extended") is True else 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.flags[idx] |= ERROR
                raise
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Patch wrappers into every loaded gramspec module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "gramspec" or name.startswith("gramspec.")) and m is not None]
        if not self._wrappers:
            for module in modules:
                layer = module.__name__.rpartition(".")[2]
                for name, obj in vars(module).items():
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not name.startswith("_")):
                        self._wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._patches):
            setattr(module, name, obj)
        self._patches.clear()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names if self.names else [""]),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            doc=np.frombuffer(self.doc, dtype=np.int32),
            flags=np.frombuffer(self.flags, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def load(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def concatenate(parts: list) -> dict:
    """Join span files; parent indices are shifted to stay file-local."""
    names: list = []
    ids: dict = {}
    out = {k: [] for k in ("name", "parent", "doc", "flags", "start", "end")}
    offset = 0
    for spans in parts:
        remap = np.array([ids.setdefault(str(n), len(ids)) for n in spans["names"]],
                         dtype=np.int32)
        out["name"].append(remap[spans["name"]] if spans["name"].size else spans["name"])
        out["parent"].append(np.where(spans["parent"] >= 0, spans["parent"] + offset, -1))
        for key in ("doc", "flags", "start", "end"):
            out[key].append(spans[key])
        offset += spans["name"].size
    names = sorted(ids, key=ids.get)
    joined = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    joined["names"] = np.array(names if names else [""])
    return joined


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    covered = np.bincount(spans["parent"][has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def summarize(spans: dict, doc_ms: dict) -> dict:
    """Per-layer and per-function figures per document.

    ``doc_ms`` maps each traced document id to its wall time in ms; spans of
    other documents (such as an in-process import, document -1) are left
    out.  Returns {"layers": {layer: {calls, self_ms, share, errors}},
    "functions": {span name: {calls, ms, errors, extended}}}.
    """
    docs = len(doc_ms)
    total_ms = sum(doc_ms.values())
    keep = np.isin(spans["doc"], np.fromiter(doc_ms, dtype=np.int64))
    duration = (spans["end"] - spans["start"]) * 1e3
    own = self_times(spans) * 1e3
    names = [str(n) for n in spans["names"]]
    functions = {}
    layers = {layer: {"calls": 0.0, "self_ms": 0.0, "share": 0.0, "errors": 0.0}
              for layer in LAYERS}
    for nid, name in enumerate(names):
        mask = keep & (spans["name"] == nid)
        if not mask.any():
            continue
        flags = spans["flags"][mask]
        functions[name] = {
            "calls": int(mask.sum()) / docs,
            "ms": float(duration[mask].sum()) / docs,
            "errors": int(np.count_nonzero(flags & ERROR)) / docs,
            "extended": int(np.count_nonzero(flags & EXTENDED)) / docs,
        }
        layer = layers[name.partition(".")[0]]
        layer["calls"] += int(mask.sum()) / docs
        layer["self_ms"] += float(own[mask].sum()) / docs
        layer["errors"] += int(np.count_nonzero(flags & ERROR)) / docs
    for layer in layers.values():
        layer["share"] = layer["self_ms"] * docs / total_ms if total_ms else 0.0
    return {"layers": layers, "functions": functions}
