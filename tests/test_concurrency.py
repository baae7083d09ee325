"""Concurrency behaviour of the protocol engines.

Verifies the shared-read-miss overlap that keeps invalidation storms
from serialising (DESIGN.md §5.3a), and that the gated ownership
commits stay consistent when many readers hit a dirty block at once.
"""

import pytest

from repro.core.config import Protocol
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from tests.conftest import make_engine, run_reference


def concurrent_reads(engine, sim, nodes, address):
    """Issue read misses from several nodes at the same instant."""
    misses = {}
    for node in nodes:
        outcome = engine.caches[node].classify(address, False)
        assert outcome is AccessOutcome.READ_MISS
        misses[node] = engine.spawn_miss(node, address, outcome, name=f"rd{node}")
    sim.run()
    return {node: miss.result for node, miss in misses.items()}


@pytest.mark.parametrize(
    "protocol",
    [Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST, Protocol.BUS],
)
def test_concurrent_clean_reads_all_complete(protocol):
    sim, engine = make_engine(protocol)
    address = engine.address_map.shared_block_address(3)
    latencies = concurrent_reads(engine, sim, range(4), address)
    assert len(latencies) == 4
    for node in range(4):
        assert engine.caches[node].state_of(address) is CacheState.RS
    engine.check_invariants()


@pytest.mark.parametrize(
    "protocol", [Protocol.SNOOPING, Protocol.DIRECTORY]
)
def test_concurrent_clean_reads_overlap_on_ring(protocol):
    """Shared-mode read misses must overlap: the slowest of four
    simultaneous readers finishes far sooner than four serial
    transactions would."""
    sim, engine = make_engine(protocol)
    address = engine.address_map.shared_block_address(3)
    home = engine.address_map.home_of(address)
    solo_sim, solo_engine = make_engine(protocol)
    requester = next(n for n in range(4) if n != home)
    solo_latency = run_reference(solo_sim, solo_engine, requester, address, False)

    readers = [n for n in range(4) if n != home]
    latencies = concurrent_reads(engine, sim, readers, address)
    slowest = max(latencies.values())
    # The transactions overlap on the ring; only the home bank
    # serialises (one 140 ns access per reader).  Full transaction
    # serialisation would cost ~len(readers) * solo.
    bank_ps = engine.config.memory.access_ps
    assert slowest < solo_latency + len(readers) * bank_ps
    assert slowest < 0.85 * len(readers) * solo_latency


@pytest.mark.parametrize(
    "protocol",
    [Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST, Protocol.BUS],
)
def test_concurrent_reads_of_dirty_block_commit_once(protocol):
    """Many simultaneous readers of a dirty block: exactly one
    ownership transfer commits, every reader ends RS, and the single
    memory update is accounted once."""
    sim, engine = make_engine(protocol)
    address = engine.address_map.shared_block_address(3)
    run_reference(sim, engine, 0, address, True)  # node 0 owns WE
    readers = [1, 2, 3]
    concurrent_reads(engine, sim, readers, address)
    sim.run()
    for node in readers:
        assert engine.caches[node].state_of(address) is CacheState.RS
    assert engine.caches[0].state_of(address) is CacheState.RS
    assert engine.stats.sharing_writebacks == 1
    engine.check_invariants()


@pytest.mark.parametrize(
    "protocol", [Protocol.SNOOPING, Protocol.DIRECTORY, Protocol.LINKED_LIST]
)
def test_write_waits_for_concurrent_readers(protocol):
    """A write issued while readers are in flight must observe them:
    afterwards the writer holds the only copy."""
    sim, engine = make_engine(protocol)
    address = engine.address_map.shared_block_address(3)
    results = {}

    def reader(node):
        outcome = engine.caches[node].classify(address, False)
        yield engine.spawn_miss(node, address, outcome)
        results[f"r{node}"] = sim.now

    def writer(node):
        yield sim.timeout(1_000)  # arrive while the reads are queued
        outcome = engine.caches[node].classify(address, True)
        yield engine.spawn_miss(node, address, outcome)
        results["w"] = sim.now

    sim.spawn(reader(0))
    sim.spawn(reader(1))
    sim.spawn(writer(2))
    sim.run()
    assert engine.caches[2].state_of(address) is CacheState.WE
    assert engine.caches[0].state_of(address) is CacheState.INV
    assert engine.caches[1].state_of(address) is CacheState.INV
    assert results["w"] >= max(results["r0"], results["r1"])
    engine.check_invariants()


def test_mixed_block_traffic_runs_concurrently():
    """Transactions on different blocks overlap freely (wall-clock of
    N independent misses is far less than N serial misses)."""
    sim, engine = make_engine(Protocol.SNOOPING)
    # One block per page so homes (and banks) differ.
    addresses = [
        engine.address_map.shared_block_address(i * 300) for i in range(4)
    ]
    misses = [
        engine.spawn_miss(
            node, address, engine.caches[node].classify(address, False)
        )
        for node, address in enumerate(addresses)
    ]
    sim.run()
    solo_sim, solo_engine = make_engine(Protocol.SNOOPING)
    solo = run_reference(solo_sim, solo_engine, 0, addresses[0], False)
    # All misses start at time 0, so each latency is its finish time.
    assert max(miss.result for miss in misses) < 2.5 * solo
