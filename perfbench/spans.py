"""In-memory spans for the traced benchmark run.

The benchmark records a span around each call it makes into a layer of
the program (the program itself is not instrumented).  Spans are kept
in memory, reduced to per-layer self times, and written once at the end
as Chrome trace-event JSON, which Perfetto and ``chrome://tracing``
open directly.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: name, start/end (ns), parent and root span ids."""

    id: int
    name: str
    parent: Optional[int]
    root: int
    start: int
    end: int = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects nested spans; a span opened with no span open is a root."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            root=len(self.spans) if parent is None else parent.root,
            start=time.perf_counter_ns(),
        )
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            self._open.pop()

    def layer_seconds(self) -> Dict[str, float]:
        """Per span name, the median over root spans of that name's self
        time within the root (self time = duration minus the time the
        span's children cover)."""
        child_ns: Dict[int, int] = {}
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] = child_ns.get(span.parent, 0) + span.end - span.start
        per_root: Dict[str, Dict[int, int]] = {}
        for span in self.spans:
            own = span.end - span.start - child_ns.get(span.id, 0)
            roots = per_root.setdefault(span.name, {})
            roots[span.root] = roots.get(span.root, 0) + own
        return {
            name: statistics.median(roots.values()) / 1e9
            for name, roots in per_root.items()
        }

    def coverage(self, root_name: str) -> float:
        """Share of the *root_name* spans' wall time that their direct
        child stages account for (1.0 = no untraced gaps)."""
        roots = {span.id: span for span in self.spans if span.name == root_name}
        covered = sum(
            span.end - span.start for span in self.spans if span.parent in roots
        )
        total = sum(span.end - span.start for span in roots.values())
        return covered / total if total else 0.0

    def write_chrome(self, path: Path, metadata: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON ("X" complete events)."""
        origin = min((span.start for span in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) / 1e3,
                "dur": (span.end - span.start) / 1e3,
                "pid": pid,
                "tid": 1,
                "args": {"id": span.id, "parent": span.parent, "root": span.root},
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "otherData": metadata}) + "\n",
            encoding="utf-8",
        )
