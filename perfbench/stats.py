"""Statistics and span tracing for the repository benchmark.

Everything here is plain Python with no dependency on the package under
test, so the tests in ``perfbench/tests`` exercise it in isolation.

* :func:`tail` implements the tail rule of the benchmark: the highest
  percentile that still has at least ten samples beyond it.
* :func:`failed_frac` counts failed or timed-out operations against the
  number attempted.
* :class:`HostSpeed` probes the host's speed between timed operations
  and puts their times on one nominal-speed scale.
* :class:`Spans` records host-time spans (name, layer, start, end,
  parent, per-op id) in memory, computes each layer's self time and
  writes Chrome ``trace_event`` JSON, the format Perfetto opens.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the tail rule.

    The sample at sorted rank ``k`` (0-based) has ``n - 1 - k`` samples
    beyond it, so the highest rank with ten beyond is ``n - 11``; its
    percentile is the share of samples at or below it.  With fewer than
    eleven samples no percentile qualifies, and the maximum is reported
    as percentile 100 (the caller prints ``n`` beside it).
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - 1 - TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / n, n


def failed_frac(attempted: int, failed: int) -> float:
    """Failed or timed-out operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
class _Event:
    __slots__ = ("t", "node", "kind")

    def __init__(self, t: int, node: int, kind: int) -> None:
        self.t = t
        self.node = node
        self.kind = kind

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def _probe_kernel(n: int = 18_000) -> int:
    """A fixed interpreter-bound loop shaped like an event simulator:
    heap pushes and pops of small objects and dict updates."""
    import heapq

    heap: List[_Event] = []
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, _Event((i * 7919) % 10007, i & 63, i & 7))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            counts[event.node] = counts.get(event.node, 0) + event.kind
            acc += event.t & 3
    return acc


_HELPER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from stats import _probe_kernel\n"
    "for _ in sys.stdin:\n"
    "    start = time.perf_counter_ns()\n"
    "    _probe_kernel()\n"
    "    print((time.perf_counter_ns() - start) / 1e9, flush=True)\n"
)


class HostSpeed:
    """Tracks how fast the host runs Python, so timings can be put on
    one scale.

    On a shared host the same code runs up to a third slower or faster
    from one minute to the next.  The workloads call :meth:`probe`
    between timed operations; :meth:`adjust` scales an operation's wall
    time by ``NOMINAL_S`` over the mean of the probes just before and
    just after it -- the time it would have taken with the probe loop
    at its nominal speed.  The probe is fixed benchmark code, so a
    change to the package under test moves adjusted and raw times alike.

    ``cores`` is how many cores the timed operations use: a probe runs
    the loop on that many cores at once (in this process and in helper
    processes) and records the mean, because a pool's workers slow down
    with every core they run on.  :meth:`close` stops the helpers.
    """

    #: Probe time (mean of five loops) the scale is anchored to.  A
    #: probe of ~0.2 s is long enough to average the host's
    #: millisecond-scale jitter and short enough to follow its drift.
    NOMINAL_S = 0.030
    REPEATS = 5

    def __init__(self, cores: int = 1, measure=None) -> None:
        self.cores = cores
        self._measure = measure or self._measure_loops
        self._helpers: List[subprocess.Popen] = []
        self.samples: List[Tuple[int, float]] = []

    def _measure_loops(self) -> float:
        while len(self._helpers) < self.cores - 1:
            self._helpers.append(
                subprocess.Popen(
                    [sys.executable, "-c", _HELPER, str(Path(__file__).parent)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        times = []
        for _ in range(self.REPEATS):
            for helper in self._helpers:
                helper.stdin.write("\n")
                helper.stdin.flush()
            start = time.perf_counter_ns()
            _probe_kernel()
            times.append((time.perf_counter_ns() - start) / 1e9)
            for helper in self._helpers:
                times.append(float(helper.stdout.readline()))
        return statistics.fmean(times)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait(timeout=30)
            helper.stdout.close()
        self._helpers = []

    def probe(self) -> float:
        seconds = self._measure()
        self.samples.append((time.perf_counter_ns(), seconds))
        return seconds

    def factor(self, start_ns: int, end_ns: int) -> float:
        """NOMINAL_S over the mean of the last probe finished by
        ``start_ns`` and the first finished after ``end_ns``."""
        before = [s for t, s in self.samples if t <= start_ns]
        after = [s for t, s in self.samples if t >= end_ns]
        if not before or not after:
            raise RuntimeError("operation not bracketed by host-speed probes")
        return self.NOMINAL_S / ((before[-1] + after[0]) / 2.0)

    def adjust(self, span: "Span") -> float:
        """The span's seconds on the nominal-speed scale."""
        return span.seconds * self.factor(span.start, span.end)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed call into a layer; ``seconds`` is valid after exit."""

    __slots__ = ("id", "name", "layer", "op", "parent", "tid", "start", "end", "_owner")

    def __init__(self, owner, name, layer, op):
        self._owner = owner
        self.name = name
        self.layer = layer
        self.op = op
        self.id = 0
        self.parent = 0
        self.tid = 0
        self.start = 0
        self.end = 0

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9

    def __enter__(self) -> "Span":
        owner = self._owner
        if owner.enabled:
            owner._open(self)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter_ns()
        owner = self._owner
        if owner.enabled:
            owner._close(self)


class Spans:
    """In-memory span recorder.

    A disabled recorder still times each span (the benchmark reads
    ``Span.seconds`` for its end-to-end metrics) but keeps nothing, so
    untraced runs pay two clock reads per call.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, layer: str, op: Optional[str] = None) -> Span:
        return Span(self, name, layer, op)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        with self._lock:
            span.id = self._next_id
            self._next_id += 1
        span.parent = stack[-1].id if stack else 0
        if span.op is None and stack:
            span.op = stack[-1].op
        span.tid = threading.get_ident()
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer.

        A span's self time is its duration minus the part of it that its
        child spans cover (the union of their intervals, clipped to the
        parent), so the self times of a closed tree sum to the duration
        of its roots.
        """
        return self_times(
            (s.id, s.parent, s.layer, s.start, s.end) for s in self.spans
        )

    def layer_spans(self, layer: str) -> List[Span]:
        return [s for s in self.spans if s.layer == layer]

    def to_chrome(self) -> Dict:
        """The spans as Chrome ``trace_event`` JSON (microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start for s in self.spans)
        tids: Dict[int, int] = {}
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "perfbench"},
            }
        ]
        for span in sorted(self.spans, key=lambda s: (s.start, s.id)):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args = {"id": span.id, "parent": span.parent, "op": span.op}
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - origin) / 1000.0,
                    "dur": (span.end - span.start) / 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)


def _covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(
    records: Iterable[Tuple[int, int, str, int, int]]
) -> Dict[str, float]:
    """Per-layer self seconds from ``(id, parent, layer, start_ns,
    end_ns)`` records; see :meth:`Spans.self_times`."""
    records = list(records)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _id, parent, _layer, start, end in records:
        if parent:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for span_id, _parent, layer, start, end in records:
        own = (end - start) - _covered(children.get(span_id, ()), start, end)
        totals[layer] = totals.get(layer, 0.0) + own / 1e9
    return totals
