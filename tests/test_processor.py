"""Unit tests for the trace-driven processor model."""

import pytest

from repro.core.config import ProcessorConfig, Protocol
from repro.memory.address import SHARED_BASE
from repro.proc.processor import TraceProcessor
from repro.ring.flatring import spawn_trace_processor
from repro.traces.records import TraceRecord
from tests.conftest import make_engine


def run_processor(records, protocol=Protocol.SNOOPING, cycle_ps=20_000, node=0):
    sim, engine = make_engine(protocol)
    processor = TraceProcessor(
        sim,
        node,
        engine,
        iter(records),
        ProcessorConfig(cycle_ps=cycle_ps),
    )
    spawn_trace_processor(sim, processor, name="cpu")
    sim.run()
    return sim, engine, processor


def private_record(instr=1, block=0, write=False):
    # Node 0's private region starts at 0.
    return TraceRecord(instr, block * 16, write)


def test_all_hits_time_is_pure_busy():
    # One miss to warm the line, then hits.
    records = [private_record(instr=0)] + [
        private_record(instr=1) for _ in range(9)
    ]
    sim, engine, processor = run_processor(records)
    counters = processor.counters
    assert counters.data_refs == 10
    assert counters.instructions == 9  # instr_before fetches only
    # Busy time: one cycle per instruction fetch.
    assert counters.busy_ps == counters.instructions * 20_000
    assert counters.blocked_ps > 0  # the single cold miss


def test_shared_private_counting():
    records = [
        TraceRecord(0, 0, False),  # private read
        TraceRecord(0, 16, True),  # private write
        TraceRecord(0, SHARED_BASE, False),  # shared read
        TraceRecord(0, SHARED_BASE, True),  # shared write (upgrade)
    ]
    _, _, processor = run_processor(records)
    counters = processor.counters
    assert counters.private_refs == 2
    assert counters.private_writes == 1
    assert counters.shared_refs == 2
    assert counters.shared_writes == 1


def test_shared_fetch_misses_exclude_upgrades():
    records = [
        TraceRecord(0, SHARED_BASE, False),  # read miss (fetch)
        TraceRecord(0, SHARED_BASE, True),  # upgrade (not a fetch miss)
        TraceRecord(0, SHARED_BASE + 16, True),  # write miss (fetch)
    ]
    _, _, processor = run_processor(records)
    assert processor.counters.shared_fetch_misses == 2
    assert processor.counters.shared_miss_rate == pytest.approx(2 / 3)


def test_blocked_time_spans_transactions():
    records = [TraceRecord(0, SHARED_BASE, False)]
    sim, engine, processor = run_processor(records)
    counters = processor.counters
    assert counters.blocked_ps > engine.config.memory.access_ps
    assert counters.elapsed_ps == counters.busy_ps + counters.blocked_ps
    assert counters.finished_at_ps == sim.now


def test_utilization_bounds():
    records = [private_record(instr=3, block=i % 4) for i in range(50)]
    _, _, processor = run_processor(records)
    assert 0.0 < processor.counters.utilization <= 1.0


def test_batching_preserves_totals():
    """Different batch sizes must not change reference accounting or
    total busy time."""
    records = [private_record(instr=1, block=i % 8) for i in range(200)]
    totals = []
    for batch in (1, 16, 1_000):
        sim, engine = make_engine(Protocol.SNOOPING)
        processor = TraceProcessor(
            sim,
            0,
            engine,
            iter(records),
            ProcessorConfig(cycle_ps=20_000, batch_refs=batch),
        )
        spawn_trace_processor(sim, processor, name="cpu")
        sim.run()
        totals.append(
            (
                processor.counters.busy_ps,
                processor.counters.data_refs,
                processor.counters.instructions,
            )
        )
    assert totals[0] == totals[1] == totals[2]


def test_faster_processor_finishes_sooner():
    records = [private_record(instr=4, block=i % 4) for i in range(100)]
    _, _, slow = run_processor(records, cycle_ps=20_000)
    _, _, fast = run_processor(records, cycle_ps=5_000)
    assert fast.counters.finished_at_ps < slow.counters.finished_at_ps


def test_mips_property():
    assert ProcessorConfig(cycle_ps=20_000).mips == pytest.approx(50.0)
    assert ProcessorConfig(cycle_ps=1_000).mips == pytest.approx(1_000.0)


def test_empty_trace_finishes_immediately():
    sim, engine, processor = run_processor([])
    assert processor.counters.data_refs == 0
    assert processor.counters.busy_ps == 0
