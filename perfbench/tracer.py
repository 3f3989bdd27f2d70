"""Spans around calls into ricci_lab's public functions, recorded from outside.

The tracer swaps module attributes for thin wrappers while it is installed.
Calls made through the module (``im.big_theta(...)`` from another module, or
a module-global lookup inside the defining module) therefore pass through the
wrapper; nothing in ``src/`` is edited.  Spans nest through a stack, so a
span's self time is its duration minus the durations of the spans it directly
encloses.  Per-name totals are kept in memory and read by the benchmark after
each operation.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    """Aggregated spans over a fixed list of (module, attribute) targets.

    targets: iterable of (module, attribute, span name).
    record:  span names whose individual calls are also kept, with their
             positional and keyword arguments, for per-call metrics.
    """

    def __init__(self, targets, record=()):
        self.targets = list(targets)
        self.record = frozenset(record)
        self._saved = []
        self._stack = []
        self.reset()

    def reset(self):
        # name -> [calls, total_s, self_s, raised]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (name, parent name) -> calls
        self.parents = defaultdict(int)
        # (name, args, kwargs, total_s, self_s, raised) for recorded names
        self.calls = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in self.targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        stack = self._stack
        keep = name in self.record

        def span(*args, **kwargs):
            frame = [name, 0.0]  # [span name, time covered by child spans]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            raised = 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = 0
                return out
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                own = dt - frame[1]
                row = self.totals[name]
                row[0] += 1
                row[1] += dt
                row[2] += own
                row[3] += raised
                self.parents[(name, parent)] += 1
                if keep:
                    self.calls.append((name, args, kwargs, dt, own, raised))

        return span

    def snapshot(self):
        """Copy of the totals, parent counts and recorded calls since reset()."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "parents": dict(self.parents),
                "calls": list(self.calls)}
