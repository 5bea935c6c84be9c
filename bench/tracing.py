"""In-memory spans around the benchmark's calls into each layer.

A span has a name `layer.call`, a start and end on `time.perf_counter`, the
span that was open when it started, the id of the benchmark request it
belongs to, the garbage-collector pause that fell inside it (measured
through `gc.callbacks`) and the machine-speed factor its duration is
scaled by.  Spans stay in memory until `write` is called at the
end of a run.  A disabled tracer records nothing and costs one attribute
test per span.
"""

from __future__ import annotations

import gc
import json
import time
from collections import defaultdict
from pathlib import Path

clock = time.perf_counter


class Span:
    __slots__ = ("tracer", "name", "req", "sid", "parent", "start", "end", "gc_s", "scale", "_gc0")

    def __init__(self, tracer: "Tracer", name: str, req: int):
        self.tracer = tracer
        self.name = name
        self.req = req
        self.scale = 1.0

    def __enter__(self) -> "Span":
        tr = self.tracer
        if tr.enabled:
            self.sid = tr.next_id
            tr.next_id += 1
            self.parent = tr.stack[-1].sid if tr.stack else None
            tr.stack.append(self)
            self._gc0 = tr.gc_total
            self.start = clock()
        return self

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        if tr.enabled:
            self.end = clock()
            self.gc_s = tr.gc_total - self._gc0
            tr.stack.pop()
            tr.spans.append(self)

    @property
    def seconds(self) -> float:
        """Duration, multiplied by the machine-speed factor set by the caller."""
        return (self.end - self.start) * self.scale


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.next_id = 0
        self.gc_total = 0.0
        self._gc_start = 0.0
        if enabled:
            gc.callbacks.append(self._on_gc)

    def close(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_total += clock() - self._gc_start

    def span(self, name: str, req: int = 0) -> Span:
        return Span(self, name, req)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Span time not covered by child spans, summed per layer."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name.split(".", 1)[0]] += s.seconds - covered[s.sid]
        return dict(out)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "req": s.req,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "gc_s": s.gc_s,
                            "scale": s.scale,
                        }
                    )
                    + "\n"
                )
