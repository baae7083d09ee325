"""Cross-feature tests: weak ordering on the hierarchical ring and bus.

The extensions compose: the store-buffer upgrade overlap must preserve
coherence on every interconnect, including the two-level hierarchy.
"""

from dataclasses import replace

import pytest

from repro.core.config import ProcessorConfig, Protocol, SystemConfig
from repro.core.experiment import build_engine, run_simulation
from repro.memory.states import CacheState
from repro.proc.processor import TraceProcessor
from repro.ring.flatring import spawn_trace_processor
from repro.sim.kernel import Simulator
from repro.traces.records import TraceRecord


def drive(protocol, weak, clusters=None, num_processors=8):
    sim = Simulator()
    base = SystemConfig(num_processors=num_processors, protocol=protocol)
    if clusters:
        base = replace(base, ring=replace(base.ring, clusters=clusters))
    engine = build_engine(sim, base)
    from repro.memory.address import SHARED_BASE

    address = SHARED_BASE
    processors = []
    for node in range(num_processors):
        records = [
            TraceRecord(1, address, False),
            TraceRecord(1, address, True),
            TraceRecord(1, address + 4, False),
        ]
        processor = TraceProcessor(
            sim,
            node,
            engine,
            iter(records),
            ProcessorConfig(weak_ordering=weak),
        )
        processors.append(processor)
        spawn_trace_processor(sim, processor, name=f"cpu{node}")
    sim.run()
    return engine, processors, address


@pytest.mark.parametrize(
    "protocol,clusters",
    [
        (Protocol.HIERARCHICAL, 2),
        (Protocol.HIERARCHICAL, 4),
        (Protocol.BUS, None),
        (Protocol.DIRECTORY, None),
        (Protocol.LINKED_LIST, None),
    ],
)
def test_weak_ordering_coherent_on_every_interconnect(protocol, clusters):
    engine, processors, address = drive(protocol, weak=True, clusters=clusters)
    engine.check_invariants()
    owners = [
        node
        for node in range(8)
        if engine.caches[node].state_of(address) is CacheState.WE
    ]
    assert len(owners) <= 1
    # Every processor finished its trace.
    for processor in processors:
        assert processor.counters.data_refs == 3


@pytest.mark.parametrize("clusters", [2, 4])
def test_hierarchical_weak_ordering_hides_stalls(clusters):
    from repro.core.config import Protocol

    blocking = run_simulation(
        "mp3d",
        config=replace(
            SystemConfig(num_processors=8, protocol=Protocol.HIERARCHICAL),
            ring=replace(
                SystemConfig(num_processors=8).ring, clusters=clusters
            ),
        ),
        data_refs=1_200,
        num_processors=8,
    )
    weak = run_simulation(
        "mp3d",
        config=replace(
            SystemConfig(num_processors=8, protocol=Protocol.HIERARCHICAL),
            ring=replace(
                SystemConfig(num_processors=8).ring, clusters=clusters
            ),
            processor=ProcessorConfig(weak_ordering=True),
        ),
        data_refs=1_200,
        num_processors=8,
    )
    assert weak.processor_utilization >= blocking.processor_utilization - 0.005
