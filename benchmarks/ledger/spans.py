"""In-memory spans recorded by the benchmark around calls into the program.

The program itself is not instrumented: every span here is opened by the
ledger's own files around a public function of one layer (see README.md,
"How tracing is done"). Spans stay in memory and are written once, as
Chrome/Perfetto JSON, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.serve import percentile


def pct(values: List[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] (0 on an empty sample)."""
    return percentile(sorted(values), q) if values else 0.0


class Tracer:
    """Nested spans: name, start, end, parent, op id, design stage."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        #: Identifier shared by every span of the op being traced.
        self.op: Optional[int] = None
        #: Percentile of the per-op times that ``typical_s`` reports.
        self.q = 50

    @contextmanager
    def span(self, name: str, stage: Optional[str] = None) -> Iterator[None]:
        idx = self.add(name, time.perf_counter(), None, stage=stage,
                       parent=self._stack[-1] if self._stack else None)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def add(self, name, start, end, stage=None, parent=None, op=None) -> int:
        """Record a span from timestamps (also used where the program
        reports its own timing, e.g. a serve response's queue_us)."""
        self.spans.append({
            "name": name, "start": start, "end": end, "parent": parent,
            "op": self.op if op is None else op, "stage": stage,
        })
        return len(self.spans) - 1

    def per_op(self, name: str) -> List[float]:
        """Summed duration of the spans called ``name``, one entry per op."""
        totals: Dict[Optional[int], float] = {}
        for s in self.spans:
            if s["name"] == name:
                totals[s["op"]] = totals.get(s["op"], 0.0) + s["end"] - s["start"]
        return list(totals.values())

    def typical_s(self, name: str) -> float:
        """The ``q``-th percentile over ops of the time spent in ``name``
        (0 if never seen) — the same percentile the untraced pass reports
        for one op, so layer times and end-to-end times are comparable."""
        return pct(self.per_op(name), self.q)

    def self_times(self) -> Dict[str, float]:
        """Per name: span durations minus what their child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        out: Dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out

    def write_chrome(self, path) -> None:
        """Complete ("X") events, one track per op, microsecond clock."""
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 0,
                "tid": -1 if s["op"] is None else s["op"],
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"stage": s["stage"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
