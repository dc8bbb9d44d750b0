"""Spans around calls into classconv's layer modules, from outside them.

``install`` wraps every public function of the six layer modules, and the
construction of ``CharacterTable``, in every ``classconv`` module that
binds the name, so calls between layers nest as child spans.  No file of
the program changes.  Each span records its name, start, end and parent;
a call that returns a generator is timed once per resumption, not over the
consumer's loop body.  Spans are kept in memory until ``summary`` reduces
them to per-function totals when the stream ends:

- ``calls``: calls made (a generator counts once, however often resumed);
- ``self_s``: span time minus the time its child spans cover;
- ``yielded``: items a generator produced;
- ``terms`` (``product_expansion``) and ``pairs`` (``enumerate_F``): the
  size of each answer, counted at the same boundary;
- ``convolve_under_enumerate_F``: ``fillings.convolve`` calls made inside
  ``enumerate_F``, the attempts behind its pairs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from types import GeneratorType

LAYERS = ("partitions", "partial_perm", "class_algebra", "fillings",
          "characters", "filtrations")
REQUEST = "request"
ANSWER_SIZES = {"class_algebra.product_expansion": "terms",
                "fillings.enumerate_F": "pairs"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.open[-1])
        self.end.append(0.0)
        self.open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.open.pop()

    def resumptions(self, nid: int, gen: GeneratorType):
        name = self.names[nid]
        try:
            while True:
                i = self.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.finish(i)
                self.counts[(name, "yielded")] += 1
                yield item
        finally:
            gen.close()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        size_stat = ANSWER_SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[(name, "calls")] += 1
            i = self.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if isinstance(out, GeneratorType):
                return self.resumptions(nid, out)
            if size_stat:
                self.counts[(name, size_stat)] += len(out)
            return out
        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function totals; parents always precede their children."""
        n = len(self.name)
        covered = [0.0] * n
        under_F = bytearray(n)
        enumerate_F = {i for i, name in enumerate(self.names)
                       if name == "fillings.enumerate_F"}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
                under_F[i] = self.name[p] in enumerate_F or under_F[p]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            stats = out[self.names[self.name[i]]]
            stats["self_s"] += self.end[i] - self.start[i] - covered[i]
            if under_F[i] and self.names[self.name[i]] == "fillings.convolve":
                out["fillings.enumerate_F"]["convolve_under_enumerate_F"] += 1
        for (name, stat), value in self.counts.items():
            out[name][stat] += value
        return {name: dict(stats) for name, stats in out.items()}


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap the layer functions everywhere they are bound; returns the undo list."""
    wrappers: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"classconv.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "classconv" and not modname.startswith("classconv."):
            continue
        for attr, obj in list(vars(module).items()):
            original, traced = wrappers.get(id(obj), (None, None))
            if obj is original:
                setattr(module, attr, traced)
                patched.append((module, attr, obj))
    table = importlib.import_module("classconv.characters").CharacterTable
    patched.append((table, "__init__", table.__init__))
    table.__init__ = tracer.wrap("characters.CharacterTable", table.__init__)
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)
