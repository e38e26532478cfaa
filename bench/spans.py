"""Span tracer that times calls into prmimo's public functions from outside.

Each site is a (module, name) pair: the module whose global namespace the
caller looks the name up in. Installing the tracer replaces that attribute
with a timing wrapper and restores it afterwards, so nothing under `src/`
changes. A span's self time is its duration minus the durations of the
spans it directly encloses. Spans are aggregated in memory per site.
"""

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self, keep_durations=()):
        self.total_ns = defaultdict(int)
        self.child_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.durations = {name: [] for name in keep_durations}
        self.layer = {}  # site name -> owning module of the wrapped function
        self._stack = []  # child time accumulated by each open span

    def wrap(self, name, fn):
        self.layer[name] = fn.__module__.rsplit(".", 1)[-1]
        kept = self.durations.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0]
            self._stack.append(children)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._stack.pop()
                self.total_ns[name] += elapsed
                self.child_ns[name] += children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                if kept is not None:
                    kept.append(elapsed)

        return traced

    @contextmanager
    def installed(self, sites):
        """Wrap every present site for the duration of the block.

        Sites whose name no longer exists in the module are skipped, so a
        later refactor that removes a function reports zero for it instead
        of breaking the traced run.
        """
        originals = []
        try:
            for name, (module, attr) in sites.items():
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    originals.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    def self_ns(self, name):
        return self.total_ns[name] - self.child_ns[name]

    def layer_self_ns(self):
        """Self time summed per owning module."""
        totals = defaultdict(int)
        for name, layer in self.layer.items():
            totals[layer] += self.self_ns(name)
        return dict(totals)
