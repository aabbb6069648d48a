"""Spans around the public calls into lingrad, installed from outside.

``Tracer.install`` replaces every public function, public method and
constructor defined in the layer modules with a wrapper that records a
span (name, start, end, parent span, computed argument+result bytes).
Every alias of a wrapped function in any ``lingrad`` module is replaced
too, because the modules import each other's functions by name.  The
program itself is not edited; ``Tracer.uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "integrands", "energy", "solver", "certificate", "gallery")


def _nbytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    values = getattr(obj, "values", None)  # Field / DualField
    return values.nbytes if isinstance(values, np.ndarray) else 0


class Tracer:
    """Spans kept in memory; the parent is the span open when a call starts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, bytes]
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn, count_bytes):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count_bytes:
                span[4] = (sum(_nbytes(a) for a in args)
                           + sum(_nbytes(v) for v in kwargs.values())
                           + _nbytes(out))
            return out

        return traced

    def install(self):
        import lingrad

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lingrad" or n.startswith("lingrad.")]
        wrapped = {}  # original function -> wrapper
        for layer in LAYERS:
            module = getattr(lingrad, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj,
                                              layer == "energy")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__"
                                                       or not meth.startswith("_")):
                            self._patch(obj, meth, self._wrap(
                                f"{layer}.{attr}.{meth}", fn, False))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def durations(self, name, parent=None):
        """Durations in s of the spans called ``name``, optionally only those
        opened directly inside a span called ``parent``."""
        spans = self.spans
        return [s[2] - s[1] for s in spans
                if s[0] == name and (parent is None
                                     or (s[3] >= 0 and spans[s[3]][0] == parent))]

    def durations_per_root(self, name, root):
        """Durations of the spans ``name`` grouped by their enclosing ``root``
        span, in call order."""
        spans = self.spans
        groups = defaultdict(list)
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != root:
                p = spans[p][3]
            if p >= 0:
                groups[p].append(s[2] - s[1])
        return list(groups.values())

    def bytes_per_call(self, names):
        b = [s[4] for s in self.spans if s[0] in names]
        return sum(b) / len(b) if b else 0.0

    def self_share(self, name):
        """Share of the time inside spans ``name`` that no child span covers."""
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        total = own = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name:
                total += s[2] - s[1]
                own += s[2] - s[1] - child[i]
        return own / total if total else 0.0


def median_or_zero(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0
