"""In-memory spans recorded around the benchmark's calls into the program.

A span has a name, start, end, the span that was open when it began
(its parent, per thread) and the id of the op it belongs to.  Spans are
kept in memory and written out as JSON lines when the run ends.  A
disabled tracer hands out one shared no-op context manager, so the
untraced runs pay a method call and nothing else.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class _Span:
    """Context manager recording one span; cheaper than a generator."""

    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name, op) -> None:
        self.tracer = tracer
        self.rec = {"name": name, "op": op}

    def __enter__(self):
        tr = self.tracer
        local = tr._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        rec = self.rec
        rec["id"] = next(tr._ids)
        if stack:
            parent = stack[-1]
            rec["parent"] = parent["id"]
            if rec["op"] is None:
                rec["op"] = parent["op"]
        else:
            rec["parent"] = None
            if rec["op"] is None:
                rec["op"] = getattr(local, "op", None)
        rec["proc"] = tr.proc
        stack.append(rec)
        rec["start"] = time.perf_counter()
        return rec

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec["end"] = time.perf_counter()
        self.tracer._local.stack.pop()
        self.tracer.spans.append(rec)  # list.append is atomic under the GIL


class Tracer:
    """Span recorder; ids are unique within one process (``proc``)."""

    def __init__(self, enabled: bool, proc: str = "main") -> None:
        self.enabled = enabled
        self.proc = proc
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return _NOOP
        return _Span(self, name, op)

    def set_op(self, op: int | None) -> None:
        """Tag top-level spans this thread opens from now on with *op*."""
        self._local.op = op


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of it that its
    child spans cover (children of one parent may overlap when they run
    on several threads, so covered time is the union of their
    intervals).
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["proc"], s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get((s["proc"], s["id"]), ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)
