#!/usr/bin/env python3
"""Step-by-step coherence walkthrough on a tiny 4-node ring.

Drives the snooping and directory engines directly (no trace
generator) through the canonical sharing pattern of the paper's
Figure 2 -- a read miss on a dirty block -- plus an invalidation, and
prints what each transaction cost and why.  Useful for understanding
the protocols before reading the engine code.

Run:  python examples/protocol_walkthrough.py
"""

from repro import Protocol, SystemConfig
from repro.core.experiment import build_engine
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.sim.kernel import Simulator


def drive(engine, node: int, address: int, is_write: bool, label: str):
    """Run one reference to completion and report its latency."""
    sim = engine.sim
    outcome = engine.caches[node].classify(address, is_write)
    if outcome is AccessOutcome.HIT:
        print(f"  {label}: HIT (no coherence action)")
        return

    miss = engine.spawn_miss(node, address, outcome, name=label)
    sim.run()
    state = engine.caches[node].state_of(address).value
    print(
        f"  {label}: {outcome.value:>10} -> {state:<15} "
        f"latency {miss.result / 1000:7.1f} ns"
    )


def walkthrough(protocol: Protocol) -> None:
    config = SystemConfig(num_processors=4, protocol=protocol)
    sim = Simulator()
    engine = build_engine(sim, config)
    topo = config.ring_topology()
    print(
        f"\n=== {protocol.value} on a 4-node ring "
        f"({topo.total_stages} stages, "
        f"{topo.total_stages * config.ring.clock_ps / 1000:.0f} ns round trip) ==="
    )

    # A shared block homed somewhere on the ring.
    address = engine.address_map.shared_block_address(42)
    home = engine.address_map.home_of(address)
    print(f"  block home node: {home}")

    drive(engine, 0, address, False, "P0 read  (cold, clean)")
    drive(engine, 1, address, False, "P1 read  (shared copy)")
    drive(engine, 1, address, True, "P1 write (upgrade, invalidates P0)")
    print(
        "    P0 copy after P1's upgrade:",
        engine.caches[0].state_of(address).value,
    )
    drive(engine, 2, address, False, "P2 read  (dirty at P1, Fig. 2)")
    print(
        "    P1 copy after P2's read:",
        engine.caches[1].state_of(address).value,
        "(write-exclusive owner downgraded to read-shared)",
    )
    drive(engine, 3, address, True, "P3 write (invalidates P1 and P2)")
    for node in range(4):
        state = engine.caches[node].state_of(address)
        marker = " <- owner" if state is CacheState.WE else ""
        print(f"    P{node}: {state.value}{marker}")

    engine.check_invariants()
    print("  coherence invariants hold ✓")
    print(
        f"  traffic: {engine.stats.probes_sent} probes "
        f"({engine.stats.broadcast_probes} broadcast), "
        f"{engine.stats.blocks_sent} block messages"
    )


def main() -> None:
    walkthrough(Protocol.SNOOPING)
    walkthrough(Protocol.DIRECTORY)
    walkthrough(Protocol.LINKED_LIST)


if __name__ == "__main__":
    main()
