"""Spans and call meters for the benchmark's traced run.

A span is recorded by the benchmark around each call it makes into a layer:
``[id, layer, stage, start, end, parent id, operation id]``. Call meters
replace module-level function references inside swapsensus for the traced
run only, and count calls, busy time and distinct first arguments; what a
meter gathered during an operation is attached to the span it ran under as
an aggregate ``[layer, busy, calls, distinct, parent id, operation id]``.
Everything stays in memory until the run writes it out.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class CallMeter:
    """Counts and times calls through ``module.name`` while installed."""

    def __init__(self, module, name: str, layer: str, distinct: bool = False):
        self.module, self.name, self.layer = module, name, layer
        self.distinct = distinct
        self.calls, self.busy, self.seen = 0, 0.0, set()

    def install(self) -> None:
        orig = self.orig = getattr(self.module, self.name)
        clock, seen, distinct = time.perf_counter, self.seen, self.distinct

        def metered(s, t):
            t0 = clock()
            out = orig(s, t)
            self.busy += clock() - t0
            self.calls += 1
            if distinct:
                seen.add(s)
            return out

        setattr(self.module, self.name, metered)

    def remove(self) -> None:
        setattr(self.module, self.name, self.orig)

    def harvest(self) -> tuple[int, float, int]:
        out = (self.calls, self.busy, len(self.seen))
        self.calls, self.busy = 0, 0.0
        self.seen.clear()
        return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggregates: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1

    @contextmanager
    def span(self, layer: str, stage: str | None = None, parent: int | None = None):
        rec = [len(self.spans), layer, stage, 0.0, 0.0, parent, self.op]
        self.spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            yield rec[0]
        finally:
            rec[4] = time.perf_counter()

    def attach(self, meter: CallMeter, parent: int) -> tuple[int, float, int]:
        """Record what ``meter`` saw since its last harvest under span ``parent``."""
        calls, busy, distinct = meter.harvest()
        if calls:
            self.aggregates.append([meter.layer, busy, calls, distinct, parent, self.op])
        return calls, busy, distinct

    def aggregate(self, layer: str, busy: float, parent: int) -> None:
        """Record time a layer reported for itself under span ``parent``."""
        self.aggregates.append([layer, busy, 1, 0, parent, self.op])

    def duration(self, sid: int) -> float:
        return self.spans[sid][4] - self.spans[sid][3]

    def busy(self, layer: str, stage: str | None = None) -> float:
        return sum(
            s[4] - s[3] for s in self.spans if s[1] == layer and stage in (None, s[2])
        )

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the child spans and other layers under it.

        A child is a span or aggregate whose parent is the span; an aggregate
        of another layer moves its busy time to that layer.
        """
        covered: dict[int, float] = defaultdict(float)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[5] is not None:
                covered[s[5]] += s[4] - s[3]
        for layer, busy, _, _, parent, _ in self.aggregates:
            if layer != self.spans[parent][1]:
                covered[parent] += busy
                out[layer] += busy
        for s in self.spans:
            out[s[1]] += s[4] - s[3] - covered[s[0]]
        return out
