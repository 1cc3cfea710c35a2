"""In-memory spans recorded around the benchmark's calls into spherestab.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the id of the item it
belongs to (one map, one (n, k) block or one fit).  Spans are only recorded
when tracing is on; with tracing off ``span`` is a no-op context manager, so
the untraced pass runs the same calls without the bookkeeping.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.item: str | None = None

    def span(self, name: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    @contextlib.contextmanager
    def _record(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._open[-1] if self._open else None,
               "item": self.item, "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def busy_and_calls(spans: list[dict]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed duration and call count per span name."""
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        busy[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
    return dict(busy), dict(calls)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per name: span durations minus the time their child spans cover.

    Spans come from one thread, so children of one parent never overlap and
    their durations can be summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
    return dict(out)
