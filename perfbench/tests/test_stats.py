"""Tests for the benchmark's own statistics.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    HostSpeed,
    Spans,
    failed_frac,
    self_times,
    tail,
)


# ----------------------------------------------------------------------
# Tail percentile: the highest one with at least ten samples beyond it
# ----------------------------------------------------------------------
def test_tail_picks_rank_with_ten_samples_beyond():
    values = list(range(1, 55))  # 54 samples, shuffled order irrelevant
    value, percentile, n = tail(list(reversed(values)))
    assert n == 54
    assert value == 44  # 10 samples (45..54) lie beyond it
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * 44 / 54)


def test_tail_at_eleven_samples_is_the_minimum():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0]
    value, percentile, n = tail(values)
    assert (value, n) == (1.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_with_ten_or_fewer_samples_reports_the_maximum():
    for n in (1, 4, 10):
        values = [float(v) for v in range(n)]
        assert tail(values) == (float(n - 1), 100.0, n)


def test_tail_counts_infinite_failures_in_the_tail():
    # A failed request misses every latency limit (it enters as +inf);
    # with ten or fewer of them the tail stays finite.
    values = [0.1] * 40 + [float("inf")] * 10
    value, _, _ = tail(values)
    assert value == 0.1
    values = [0.1] * 40 + [float("inf")] * 11
    assert tail(values)[0] == float("inf")


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail([])


# ----------------------------------------------------------------------
# failed_frac
# ----------------------------------------------------------------------
def test_failed_frac_counts_against_attempted():
    assert failed_frac(40, 0) == 0.0
    assert failed_frac(40, 1) == 0.025
    assert failed_frac(4, 4) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
def test_failed_frac_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        failed_frac(attempted, failed)


# ----------------------------------------------------------------------
# Self time: a span's duration minus what its children cover
# ----------------------------------------------------------------------
def test_self_time_subtracts_children():
    # root [0, 100] has children a [10, 40] and b [50, 90]; a has a
    # grandchild c [20, 30].  Times in ns.
    records = [
        (1, 0, "bench", 0, 100),
        (2, 1, "sim", 10, 40),
        (3, 2, "traces", 20, 30),
        (4, 1, "store", 50, 90),
    ]
    selfs = self_times(records)
    assert selfs["bench"] == pytest.approx(30e-9)
    assert selfs["sim"] == pytest.approx(20e-9)
    assert selfs["traces"] == pytest.approx(10e-9)
    assert selfs["store"] == pytest.approx(40e-9)
    assert sum(selfs.values()) == pytest.approx(100e-9)


def test_self_time_counts_overlapping_children_once():
    # Two children from different threads overlap in [30, 50].
    records = [
        (1, 0, "bench", 0, 100),
        (2, 1, "serve", 10, 50),
        (3, 1, "serve", 30, 70),
    ]
    assert self_times(records)["bench"] == pytest.approx(40e-9)


def test_self_time_clips_children_to_the_parent():
    records = [(1, 0, "pool", 0, 10), (2, 1, "sim", 5, 20)]
    assert self_times(records)["pool"] == pytest.approx(5e-9)


def test_spans_record_parents_and_write_chrome(tmp_path):
    spans = Spans(True)
    with spans.span("unit", "bench", op="u0") as root:
        with spans.span("run_simulation", "sim") as child:
            pass
    assert child.parent == root.id and root.parent == 0
    assert child.op == "u0"
    total = sum(spans.self_times().values())
    assert total == pytest.approx(root.seconds)
    path = tmp_path / "trace.json"
    spans.write_chrome(path)
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["unit", "run_simulation"]
    assert all(e["dur"] >= 0 for e in complete)


def test_disabled_spans_time_but_keep_nothing():
    spans = Spans(False)
    with spans.span("unit", "bench") as span:
        pass
    assert span.seconds >= 0.0
    assert spans.spans == []



# ----------------------------------------------------------------------
# Host speed: an operation is scaled by the probes that bracket it
# ----------------------------------------------------------------------
def test_host_speed_scales_by_the_bracketing_probes():
    readings = iter([0.030, 0.060, 0.045])
    speed = HostSpeed(measure=lambda: next(readings))
    spans = Spans(False)
    speed.probe()  # 0.030 s: nominal speed
    with spans.span("op", "sim") as op:
        pass
    speed.probe()  # 0.060 s: the host ran at half speed
    speed.probe()
    # Mean of the probes around the op is 0.045 s, 1.5x nominal.
    assert speed.factor(op.start, op.end) == pytest.approx(0.030 / 0.045)
    assert speed.adjust(op) == pytest.approx(op.seconds * 0.030 / 0.045)


def test_host_speed_needs_probes_on_both_sides():
    speed = HostSpeed(measure=lambda: 0.030)
    spans = Spans(False)
    with spans.span("op", "sim") as op:
        pass
    speed.probe()
    with pytest.raises(RuntimeError):
        speed.factor(op.start, op.end)
