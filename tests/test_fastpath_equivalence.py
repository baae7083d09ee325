"""Bit-identity of the scheduler/kernel fast path, across all engines.

The acquire fast path (relay wakes, arrival-base memoisation) and the
lazy-cancellation kernel must be pure optimisations: for every
protocol and seed, the ``SimulationResult`` -- statistics, latencies,
telemetry histograms, everything that serialises -- must be
bit-identical across

* the serial fast path (the default),
* the serial reference path (``REPRO_NO_FASTPATH=1``, per-arrival
  polling kept verbatim in the scheduler for bisection),
* a multi-process ``execute_points`` run, and
* a cache replay from the persistent store.

The env-var toggle is the bisection tool: any future divergence can be
attributed to the fast path (or not) by flipping it.  The reference
path stays because non-tiling slot layouts (``probe_slots > 2``
ablations) need it.
"""

from __future__ import annotations

import pytest

from repro.core.config import Protocol
from repro.core.experiment import (
    clear_simulation_cache,
    last_kernel_counters,
    run_simulation,
)
from repro.core.parallel import SweepPoint, execute_points
from repro.core.store import result_to_jsonable
from repro.obs import Tracer
from repro.ring.flatring import RingMachine
from repro.ring.scheduler import fastpath_enabled
from repro.sim.kernel import Simulator
from tests.conftest import make_engine

REFS = 300

#: Every protocol engine, plus a reseeded variant and a larger ring
#: with real slot contention (where the fast path actually engages).
POINTS = [
    SweepPoint("mp3d", 4, Protocol.SNOOPING, REFS),
    SweepPoint("mp3d", 4, Protocol.DIRECTORY, REFS),
    SweepPoint("mp3d", 4, Protocol.LINKED_LIST, REFS),
    SweepPoint("mp3d", 4, Protocol.BUS, REFS),
    SweepPoint("mp3d", 4, Protocol.HIERARCHICAL, REFS),
    SweepPoint("water", 4, Protocol.SNOOPING, REFS, seed=7),
    SweepPoint("water", 4, Protocol.DIRECTORY, REFS, seed=7),
    SweepPoint("mp3d", 16, Protocol.SNOOPING, REFS),
]


def _serial_run(point: SweepPoint):
    result = run_simulation(
        point.benchmark,
        config=point.resolved_config(),
        data_refs=point.data_refs,
        num_processors=point.num_processors,
    )
    return result, last_kernel_counters()


def test_fastpath_toggle_reads_environment(monkeypatch):
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    assert fastpath_enabled()
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    assert not fastpath_enabled()


def test_serial_parallel_cached_and_fastpath_all_bit_identical(
    temp_store, monkeypatch
):
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)

    # 1. Serial, fast path on (the default everyone runs).
    fast = []
    fast_events = {}
    for point in POINTS:
        result, counters = _serial_run(point)
        fast.append(result_to_jsonable(result))
        fast_events[point] = counters["events_processed"]

    # 2. Process-pool execution (workers inherit the fast path).
    parallel = execute_points(POINTS, jobs=2)
    assert [result_to_jsonable(r) for r in parallel.results] == fast

    # 3. Cache replay: memo cleared, every point served from disk.
    clear_simulation_cache(disk=False)
    cached = execute_points(POINTS, jobs=1)
    assert cached.cache_hits == len(POINTS)
    assert [result_to_jsonable(r) for r in cached.results] == fast

    # 4. Serial reference path: per-arrival polling, no relays.
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    for point, expected in zip(POINTS, fast):
        result, counters = _serial_run(point)
        assert result_to_jsonable(result) == expected, (
            f"fast path diverged for {point.benchmark}"
            f"@{point.num_processors}p {point.protocol.value}"
        )
        # The reference path wakes the sender at every arrival the
        # relay silently hops past, so it can never pop fewer events.
        assert counters["events_processed"] >= fast_events[point]
        assert counters["relay_hops"] == 0

    # And the fast path genuinely engaged somewhere: the contended
    # 16-processor snooping ring must have saved generator resumes.
    contended = POINTS[-1]
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    _, counters = _serial_run(contended)
    assert counters["relay_hops"] > 0


# ----------------------------------------------------------------------
# Fast-path matrix under full observation: every engine must produce the
# same bits with the relay fast path on and off -- including telemetry
# event streams and with per-commit invariant checking enabled.  (The
# ids name the flat event core, the only one the ring engines have.)
# ----------------------------------------------------------------------
MATRIX = [
    pytest.param(False, id="flat+fastpath"),
    pytest.param(True, id="flat+reference"),
]

#: Fast-path run per protocol, computed lazily so each parametrized
#: case compares against one shared reference run.
_matrix_baseline: dict = {}


def _observed_run(point, no_fastpath, monkeypatch):
    if no_fastpath:
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    else:
        monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    tracer = Tracer()
    result = run_simulation(
        point.benchmark,
        config=point.resolved_config(),
        data_refs=point.data_refs,
        num_processors=point.num_processors,
        tracer=tracer,
        check_invariants=True,
    )
    return result_to_jsonable(result), tracer.events()


@pytest.mark.parametrize("no_fastpath", MATRIX)
@pytest.mark.parametrize(
    "protocol",
    [
        Protocol.SNOOPING,
        Protocol.DIRECTORY,
        Protocol.LINKED_LIST,
        Protocol.BUS,
        Protocol.HIERARCHICAL,
    ],
)
def test_flatcore_fastpath_matrix_bit_identical(
    protocol, no_fastpath, monkeypatch
):
    processors = 16 if protocol is Protocol.SNOOPING else 4
    point = SweepPoint("mp3d", processors, protocol, REFS)
    baseline = _matrix_baseline.get(protocol)
    if baseline is None:
        baseline = _matrix_baseline[protocol] = _observed_run(
            point, False, monkeypatch
        )
    got = _observed_run(point, no_fastpath, monkeypatch)
    assert got[0] == baseline[0], (
        f"results diverged for {protocol.value} with "
        f"NO_FASTPATH={no_fastpath}"
    )
    assert got[1] == baseline[1], (
        f"telemetry diverged for {protocol.value} with "
        f"NO_FASTPATH={no_fastpath}"
    )


def test_flat_engines_skip_generator_resumes(monkeypatch):
    """Snooping and directory run entirely as flat machines: neither a
    simulation (processors, misses, write-backs, snoop and bank
    timers) nor a checker step spawns a single generator process."""
    from repro.check.state import EngineHarness, Ref, StepSpec

    spawned = []
    original_spawn = Simulator.spawn

    def counting_spawn(sim, body, name="process"):
        spawned.append(name)
        return original_spawn(sim, body, name)

    monkeypatch.setattr(Simulator, "spawn", counting_spawn)
    for protocol in (Protocol.SNOOPING, Protocol.DIRECTORY):
        _serial_run(SweepPoint("mp3d", 8, protocol, REFS))

        harness = EngineHarness(protocol.value, nodes=4, lines=2)
        for step in (
            StepSpec((Ref(0, 0, False),)),
            StepSpec((Ref(2, 0, True), Ref(3, 1, False))),
            StepSpec((Ref(0, 1, True),)),
        ):
            harness.apply(step)

        # The entry point the harness uses hands back the flat
        # machine, whose result is the transaction latency.
        sim, engine = make_engine(protocol)
        address = engine.address_map.shared_block_address(0)
        miss = engine.spawn_miss(
            1, address, engine.caches[1].classify(address, True)
        )
        assert isinstance(miss, RingMachine)
        sim.run()
        assert miss.result > 0 and miss.done.value == miss.result
    assert spawned == []


@pytest.mark.parametrize("protocol", [Protocol.SNOOPING, Protocol.DIRECTORY])
def test_reference_path_does_strictly_more_event_work(protocol, monkeypatch):
    """On a contended ring the relay optimisation is not a no-op."""
    point = SweepPoint("mp3d", 16, protocol, REFS)
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    _, fast = _serial_run(point)
    monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
    _, reference = _serial_run(point)
    # Relay hops are single heap pops; polling wakes are full generator
    # resumes.  Event counts line up one-to-one, so the comparison is
    # exact: the reference pops at least as many events, and the gap is
    # precisely what the fast path skipped resuming.
    assert reference["events_processed"] >= fast["events_processed"]
    assert fast["relay_hops"] > 0
