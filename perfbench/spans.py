"""Call spans recorded around library functions, and their self times.

A `Tracer` replaces a function at its module (or class) attribute with a
wrapper that records one span per call: name, start, end, the span that was
open when the call began, and the pass it belongs to.  Spans stay in memory;
the caller reads `tracer.spans` when the run ends.  `restore` puts every
original function back.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

from summary import percentile

ROOT_SPAN = "bench.pass"


class Amount(NamedTuple):
    """Work a traced call did, reported per pass as `<layer>.<suffix>`."""
    measure: Callable        # (args, result) -> int, run after the span closes
    suffix: str              # "bytes", "nodes"
    unit: str


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    pass_id: int
    amount: int = 0          # work the call did: bytes, nodes; 0 when not counted

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans for the functions passed to `wrap` until `restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, amount: Amount | None = None) -> None:
        """Trace calls of `owner.attr` under `name`, recording `amount` if given."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if amount is not None:
                span.amount = amount.measure(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def open(self, name: str) -> Span:
        parent = self._open[-1].sid if self._open else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent,
                    self.pass_id)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def tracing(self, layers):
        """Trace one pass: wrap `layers` (owner, attr, name, amount), open
        the pass's root span, and undo both on exit."""
        self.pass_id += 1
        for owner, attr, name, amount in layers:
            self.wrap(owner, attr, name, amount)
        root = self.open(ROOT_SPAN)
        try:
            yield
        finally:
            self.close(root)
            self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so the result never goes below zero.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start_ns):
            lo = max(c.start_ns, cursor)
            hi = min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration_ns - covered
    return out


def layer_metrics(spans: list[Span], passes: int, layers, entry=()) -> dict:
    """Per-layer metrics over `passes` traced passes, as {name: (value, unit)}.

    For each layer: calls and self milliseconds per pass (median over
    passes), median self microseconds per call, and for layers with an
    `Amount` the recorded amount per pass.
    `trace.coverage_pct` is the share of each pass's root span that the
    layers' self times account for, median over passes.  The `entry` layers
    are left out of it: they span the whole pass, so their self time holds
    whatever work no other layer wraps.
    """
    self_ns = self_times_ns(spans)
    per_pass = {name: [[] for _ in range(passes)] for _, _, name, _ in layers}
    amounts = {name: [0] * passes for name in per_pass}
    pass_ns = [0] * passes
    unattributed_ns = [0] * passes
    for s in spans:
        if s.name == ROOT_SPAN:
            pass_ns[s.pass_id - 1] = s.duration_ns
        else:
            per_pass[s.name][s.pass_id - 1].append(self_ns[s.sid])
            amounts[s.name][s.pass_id - 1] += s.amount
        if s.name == ROOT_SPAN or s.name in entry:
            unattributed_ns[s.pass_id - 1] += self_ns[s.sid]
    coverage = [100.0 * (1 - u / t) for u, t in zip(unattributed_ns, pass_ns)]
    out = {}
    for _, _, name, amount in layers:
        selfs = per_pass[name]
        calls = [ns for p in selfs for ns in p]
        out[f"{name}.calls"] = (statistics.median(len(p) for p in selfs), "count")
        out[f"{name}.self_ms"] = (statistics.median(sum(p) for p in selfs) / 1e6, "ms")
        out[f"{name}.us_per_call_p50"] = (
            percentile(calls, 50) / 1e3 if calls else 0.0, "us")
        if amount is not None:
            out[f"{name}.{amount.suffix}"] = (statistics.median(amounts[name]), amount.unit)
    out["trace.coverage_pct"] = (statistics.median(coverage), "%")
    return out
