"""Spans around omska's public functions, installed from outside the package.

install() wraps every public module-level function of the six layer modules
(and SeedHasher construction, the one per-seed table build) and rebinds each
name that refers to the original anywhere in the package, so calls between
modules (protocol calling source.detect_bsc_chain, for example) are seen too.
Each call records a span (name, start, end, parent, root); the benchmark opens
a root span per operation.  Spans stay in flat arrays until the run ends and
self time is derived from them afterwards: a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = ("source", "uhash", "planner", "protocol", "verifier", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.hooks: dict = {}
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(idx)
            hook = self.hooks.get(name)
            if hook is not None:
                stack = self._stack
                root = self.names[self.name[stack[0]]] if stack else name
                hook(self.counts, root, args, kwargs, result, dur)
            return result
        return traced

    def install(self, package: str = "omska") -> None:
        pkg = importlib.import_module(package)
        mods = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, mods):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [pkg] + mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        hasher = pkg.uhash.SeedHasher
        self._undo.append((hasher, "__init__", hasher.__init__))
        hasher.__init__ = self.wrap("uhash.SeedHasher.build", hasher.__init__)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def arrays(self, limit: int | None = None) -> dict:
        """The first `limit` spans (all by default) as numpy arrays."""
        cut = slice(0, limit)
        return {"name": np.frombuffer(self.name, dtype=np.int32)[cut].copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32)[cut].copy(),
                "root": np.frombuffer(self.root, dtype=np.int32)[cut].copy(),
                "start": np.frombuffer(self.start, dtype=np.float64)[cut].copy(),
                "end": np.frombuffer(self.end, dtype=np.float64)[cut].copy()}

    def aggregate(self) -> dict:
        """{(root name, span name): (calls, inclusive s, self s)} over all spans."""
        a = self.arrays()
        if a["name"].size == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        root_name = a["name"][a["root"]]
        key = root_name.astype(np.int64) * len(self.names) + a["name"]
        uniq, inv = np.unique(key, return_inverse=True)
        calls = np.bincount(inv)
        incl = np.bincount(inv, weights=dur)
        own = np.bincount(inv, weights=self_time)
        out = {}
        for j, k in enumerate(uniq):
            r, nm = divmod(int(k), len(self.names))
            out[(self.names[r], self.names[nm])] = (int(calls[j]), float(incl[j]),
                                                    float(own[j]))
        return out
