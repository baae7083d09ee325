"""The runtime invariant monitor riding along in real simulations."""

from __future__ import annotations

import pytest

from repro.check import InvariantMonitor, InvariantViolation
from repro.core.config import CacheConfig, Protocol, SystemConfig
from repro.core.experiment import run_simulation
from repro.core.replication import replicate
from repro.memory.cache import AccessOutcome
from repro.sim.kernel import Simulator
from tests.test_check_explorer import DroppedInvalidationSnooping

PROTOCOLS = (
    Protocol.SNOOPING,
    Protocol.DIRECTORY,
    Protocol.LINKED_LIST,
    Protocol.BUS,
)


@pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.value)
def test_monitored_simulation_is_clean_and_counts_commits(protocol):
    monitor = InvariantMonitor(full_check_every=64)
    result = run_simulation(
        "mp3d",
        num_processors=4,
        protocol=protocol,
        data_refs=1_500,
        monitor=monitor,
    )
    assert result.benchmark == "mp3d"
    assert monitor.stats.commits > 0
    assert monitor.stats.block_checks == monitor.stats.commits
    assert monitor.stats.full_sweeps >= 1  # finalize() at minimum
    assert monitor.last_violation is None
    assert "0 violations" in monitor.summary()


def test_check_invariants_flag_builds_a_monitor():
    # The convenience flag must not change the simulated numbers.
    plain = run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=1_000,
    )
    checked = run_simulation(
        "mp3d", num_processors=4, protocol=Protocol.SNOOPING,
        data_refs=1_000, check_invariants=True,
    )
    assert checked.elapsed_ps == plain.elapsed_ps
    assert (
        checked.processor_utilization == plain.processor_utilization
    )


def test_unmonitored_simulation_has_no_monitor_overhead_path():
    sim = Simulator()
    assert sim.monitor is None  # default keeps the hot path no-op


def test_monitor_catches_a_live_protocol_bug():
    # Drive the buggy snooping engine by hand with the monitor armed:
    # the violation surfaces out of the committing transaction.
    sim = Simulator()
    config = SystemConfig(
        num_processors=2,
        protocol=Protocol.SNOOPING,
        cache=CacheConfig(size_bytes=1024, block_size=32),
    )
    engine = DroppedInvalidationSnooping(sim, config)
    monitor = InvariantMonitor()
    sim.monitor = monitor
    address = engine.address_map.shared_block_address(0)

    def drive(node, is_write):
        outcome = engine.caches[node].classify(address, is_write)
        if outcome is not AccessOutcome.HIT:
            engine.spawn_miss(node, address, outcome, name="t")
            sim.run()

    with pytest.raises(InvariantViolation) as excinfo:
        drive(0, False)  # node 0 reads: RS copy
        drive(1, True)  # node 1 writes: invalidation dropped -> SWMR
    assert excinfo.value.kind in {"swmr", "agreement"}
    assert monitor.last_violation is not None
    assert "VIOLATION" in monitor.summary()


def test_replicate_threads_the_monitor_through_the_serial_path():
    report = replicate(
        "mp3d",
        num_processors=4,
        protocol=Protocol.SNOOPING,
        seeds=(7, 42),
        data_refs=800,
        check_invariants=True,
    )
    assert len(report.results) == 2


def test_monitor_violation_message_names_the_commit():
    monitor = InvariantMonitor()

    class FakeMap:
        def is_shared(self, address):
            return True

        def block_of(self, address):
            return address // 32

    class FakeCache:
        def state_of(self, address):
            from repro.memory.states import CacheState

            return CacheState.WE

    class FakeEngine:
        address_map = FakeMap()
        caches = [FakeCache(), FakeCache()]  # two writers: SWMR breach

    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_commit(FakeEngine(), 1, 0x40, "WRITE_MISS")
    message = str(excinfo.value)
    assert "commit #1" in message
    assert "WRITE_MISS" in message
    assert excinfo.value.kind == "swmr"
