"""Span recorder that wraps the package's functions from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
every ``feedback_lens`` module that holds a reference to it (modules import
each other's functions by name), and ``Tracer.remove`` puts the originals
back.  A span has a name, a start, an end and a parent (the span open below
it on the stack); its self time is its duration minus the time its child
spans cover.  Spans are aggregated by name as they close.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.stack = []  # open spans, innermost last: [name, start_ns, child_ns]
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> [calls, incl_ns, self_ns]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.minima = {}
        self._patched = []

    # -- spans -------------------------------------------------------------

    def open(self, name):
        self.stack.append([name, _now(), 0])

    def close(self):
        end = _now()
        name, start, child = self.stack.pop()
        incl = end - start
        total = self.totals[name]
        total[0] += 1
        total[1] += incl
        total[2] += incl - child
        if self.stack:
            self.stack[-1][2] += incl  # the parent's child time

    def unwind(self, depth):
        """Close spans left open when an exception (such as a deadline
        signal) arrived between a wrapper's entry and its bookkeeping."""
        while len(self.stack) > depth:
            self.close()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters ----------------------------------------------------------

    def count(self, name, value=1.0):
        self.counts[name] += value

    def high(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def low(self, name, value):
        self.minima[name] = min(self.minima.get(name, value), value)

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """``targets`` maps ``(module, attribute)`` to ``(span name, hook)``."""
        modules = [m for n, m in sys.modules.items()
                   if n == "feedback_lens" or n.startswith("feedback_lens.")]
        for (module, attr), (name, hook) in targets.items():
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def mean_us(self, name):
        calls, incl, _ = self.totals.get(name, (0, 0, 0))
        return incl / calls / 1e3 if calls else 0.0

    def self_us(self, name):
        calls, _, own = self.totals.get(name, (0, 0, 0))
        return own / calls / 1e3 if calls else 0.0

    def table(self):
        return {
            name: {"calls": c, "incl_us": round(i / c / 1e3, 3), "self_us": round(s / c / 1e3, 3)}
            for name, (c, i, s) in sorted(self.totals.items())
        }
