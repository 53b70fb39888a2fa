"""In-memory spans around the benchmark's calls into voteboard.

A span records its name, start, end, parent span and the op it belongs to,
plus a few counts as attributes. Spans stay in memory until the run ends.
A span's self time is its duration minus the time its child spans cover;
the benchmark is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    name: str
    op_id: str | None
    parent: int | None
    start: float
    end: float = 0.0
    child_time: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op_id: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op_id, parent, time.perf_counter(), attrs=attrs)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "op": s.op_id, "parent": s.parent,
                    "start": s.start, "end": s.end, "self": s.self_time, **s.attrs,
                }, sort_keys=True, default=str) + "\n")
