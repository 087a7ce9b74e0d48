"""Spans around calls into decouplab's modules, installed from outside.

`Tracer.install()` replaces every public function of each traced module
with a wrapper, as a module attribute, so calls made through the module
(``linalg.spectral(...)``) and calls inside it (``spectral(...)`` resolves
through the module's globals) are both recorded. Three methods are wrapped
as class attributes: `UnitaryEnsemble.sample`, `ChannelStinespring.
apply_matrix` and `DensitySystem.__post_init__` (the validation run on every
density-operator construction, recorded as ``quantum.validate``).

Spans are kept in memory as columns (name, start, end, parent, experiment
id, bytes of ndarray arguments into `linalg`) and written out at the end.
Nothing in the package itself changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("linalg", "quantum", "entropy", "ensembles", "decoupling", "stats",
           "typicality", "cli")

# (module, class, attribute, span name)
METHODS = (
    ("ensembles", "UnitaryEnsemble", "sample", "ensembles.sample"),
    ("quantum", "ChannelStinespring", "apply_matrix", "quantum.apply_matrix"),
    ("quantum", "DensitySystem", "__post_init__", "quantum.validate"),
)


def _array_bytes(args, kwargs) -> int:
    n = 0
    for a in args:
        if isinstance(a, np.ndarray):
            n += a.nbytes
    for a in kwargs.values():
        if isinstance(a, np.ndarray):
            n += a.nbytes
    return n


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.exp = array("l")
        self.nbytes = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.experiment = -1

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, fn, label: str):
        nid = self._label_id(label)
        count_bytes = label.startswith("linalg.")
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.exp.append(self.experiment)
            self.nbytes.append(_array_bytes(args, kwargs) if count_bytes else 0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        import importlib

        for short in MODULES:
            mod = importlib.import_module(f"decouplab.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, f"{short}.{attr}"))
        for short, cls_name, attr, label in METHODS:
            cls = getattr(importlib.import_module(f"decouplab.{short}"), cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(orig, label))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        """Spans as gzipped CSV: name,start_s,end_s,parent,experiment,bytes_in."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,experiment,bytes_in\n")
            labels = self.labels
            for i in range(len(self.start)):
                fh.write(f"{labels[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.exp[i]},{self.nbytes[i]}\n")

    def aggregate(self) -> dict:
        """Per label: calls, inclusive and self seconds; plus nesting facts.

        Self time is a span's duration minus the durations of its direct
        children. Parents are recorded before their children, so one forward
        pass resolves "has an ancestor named X".
        """
        n = len(self.start)
        labels = self.labels
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per = {lab: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes_in": 0}
               for lab in labels}
        prepare_id = self._label_ids.get("decoupling.prepare", -2)
        under_prepare = [False] * n
        in_prepare_counts: dict[str, int] = {}
        root_s = 0.0
        for i in range(n):
            lab = labels[self.name[i]]
            row = per[lab]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            row["bytes_in"] += self.nbytes[i]
            p = self.parent[i]
            if p < 0:
                root_s += dur[i]
            else:
                under_prepare[i] = under_prepare[p] or self.name[p] == prepare_id
                if under_prepare[i]:
                    in_prepare_counts[lab] = in_prepare_counts.get(lab, 0) + 1
        return {"labels": per, "root_s": root_s,
                "in_prepare_calls": in_prepare_counts}

    def covered_s(self, members, experiments=None) -> float:
        """Wall time inside spans whose label is in `members`, nested ones
        counted once; only in the given experiment ids, if any are given."""
        ids = {self._label_ids[m] for m in members if m in self._label_ids}
        n = len(self.start)
        inside = [False] * n
        total = 0.0
        for i in range(n):
            p = self.parent[i]
            above = p >= 0 and inside[p]
            member = self.name[i] in ids
            inside[i] = above or member
            if (member and not above and
                    (experiments is None or self.exp[i] in experiments)):
                total += self.end[i] - self.start[i]
        return total
