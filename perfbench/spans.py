"""In-memory spans around the benchmark's calls into the package."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records (name, start, end, parent) spans; written out once at the end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(self.duration(i) for i, s in enumerate(self.spans) if s["name"] == name)

    def self_time(self, index: int) -> float:
        """The span's duration minus that of its direct children."""
        children = sum(self.duration(i) for i, s in enumerate(self.spans) if s["parent"] == index)
        return self.duration(index) - children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
