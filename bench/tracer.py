"""Span tracing around matfuse's public functions, from outside the program.

`Tracer.install` replaces a function in the module namespace where its
callers look it up (for example `matfuse.search.fusion_legal`, which
`search` imported by name from `fuse`) with a wrapper that times the call.
Layer calls are far too many to keep one record each (a GA makes hundreds
of thousands of `fusion_legal` calls), so they are aggregated per name
into calls, total time and self time; self time is a span's duration
minus the time its child spans cover.  The benchmark's own operations
(one search, one tuning run, one kernel build) are kept as whole spans
with a parent id and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str, span_id: int | None = None):
        self._stack.append([name, 0.0, span_id])
        return time.perf_counter()

    def _leave(self, name: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        _, child, _ = self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        s = self.stats[name]
        s[0] += 1
        s[1] += dt
        s[2] += dt - child
        return dt

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def op(self, name: str, **attrs):
        """Context manager for one benchmark operation (kept as a span)."""
        return _OpSpan(self, name, attrs)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without counting them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def count(self, name: str, amount: float = 1):
        if self.enabled:
            self.counts[name] += amount

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._leave(name, t0)
            if on_result is not None:
                on_result(out, args)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- per-round snapshots ----------------------------------------------

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat per-round figures: <name>.calls, <name>.s, <name>.self_s,
        plus every count."""
        out = dict(self.counts)
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        return out


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        t = self.tracer
        self.live = t.enabled
        if self.live:
            self.span_id = t._next_id
            t._next_id += 1
            self.parent = next(
                (f[2] for f in reversed(t._stack) if f[2] is not None), None)
            self.start = t._enter(self.name, self.span_id)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        if self.live:
            dt = t._leave(self.name, self.start)
            t.spans.append({"id": self.span_id, "parent": self.parent,
                            "name": self.name, "start": self.start,
                            "seconds": dt, **self.attrs})
        return False
