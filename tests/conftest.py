"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.config import Protocol, SystemConfig
from repro.core.experiment import build_engine
from repro.core.store import temp_result_store
from repro.sim.kernel import Simulator


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_store():
    """Keep the whole test session away from the user's ~/.cache/repro."""
    with temp_result_store():
        yield


@pytest.fixture
def temp_store():
    """A fresh throwaway persistent store (and memo) for one test."""
    from repro.core.experiment import clear_simulation_cache

    with temp_result_store() as store:
        clear_simulation_cache(disk=False)
        yield store
    clear_simulation_cache(disk=False)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def small_config() -> SystemConfig:
    """A small 4-node baseline system (fast to simulate)."""
    return SystemConfig(num_processors=4)


def make_engine(protocol: Protocol, num_processors: int = 4):
    """Fresh (sim, engine) pair for a protocol."""
    sim = Simulator()
    config = SystemConfig(num_processors=num_processors, protocol=protocol)
    return sim, build_engine(sim, config)


def run_reference(sim, engine, node: int, address: int, is_write: bool):
    """Drive one reference through an engine to completion.

    Returns the transaction latency in ps (0 for a hit).
    """
    from repro.memory.cache import AccessOutcome

    outcome = engine.caches[node].classify(address, is_write)
    if outcome is AccessOutcome.HIT:
        return 0
    miss = engine.spawn_miss(node, address, outcome, name="test-ref")
    sim.run()
    return miss.result
