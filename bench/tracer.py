"""In-memory spans around the benchmark's own calls into the library.

A span records name, start, end, parent span and the op it belongs to.
Spans stay in memory and are written out once, when the run ends.  The
untraced run uses ``NullTracer``, whose ``call`` is a plain call, so the
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    probe: bool
    failed: bool


class NullTracer:
    on = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, probe=False):
        yield

    def set_op(self, op_id):
        pass

    def add(self, name, value):
        pass


class Tracer:
    """Collects spans; ``probe`` marks calls made only in the traced run."""

    on = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = "setup"
        self.counts: dict[str, float] = {}

    def set_op(self, op_id):
        self._op = op_id

    def add(self, name, value):
        """Accumulate a count read at a layer boundary."""
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def span(self, name, probe=False):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self._op,
                   probe, False)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def probe(self, name, fn, *args, **kwargs):
        """Call made only to time a layer; its result feeds no gate."""
        with self.span(name, probe=True):
            return fn(*args, **kwargs)

    def busy(self, name, slowdown):
        """(seconds, calls, failed) summed over spans called ``name``;
        ``slowdown`` maps an op id to the host slowdown its times divide by."""
        hits = [s for s in self.spans if s.name == name]
        return (sum((s.end - s.start) / slowdown[s.op] for s in hits),
                len(hits), sum(s.failed for s in hits))

    def probe_seconds(self, slowdown):
        """Time in the outermost probe spans of the ops (set-up excluded)."""
        probes = {s.id for s in self.spans if s.probe}
        return sum((s.end - s.start) / slowdown[s.op] for s in self.spans
                   if s.probe and s.parent not in probes and s.op != "setup")

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
