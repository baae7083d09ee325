"""Split-transaction bus with a three-state snooping protocol.

This is the paper's comparison interconnect (section 4.3): a
FutureBus+-like split-transaction bus, 64 bits wide at 50 or 100 MHz,
with the same write-invalidate write-back protocol and physical shared
memory partitioned among the processing nodes.

Transaction structure (matching the paper's "minimum number of bus
cycles for a remote miss is six, excluding arbitration delays and the
time to fetch the block in the remote memory or cache"):

* **request phase** -- the requester arbitrates, then drives the
  address and command for ``request_cycles`` bus cycles; every snooper
  observes it, invalidations/downgrades apply at the end of the phase,
  and the bus is released (split transaction).
* **fetch** -- the owner (home memory or dirty cache) fetches the
  block off the bus.
* **reply phase** -- the owner re-arbitrates and drives the block for
  ``reply_cycles`` cycles.

Because the bus serialises *everything*, its clock is the quantity the
paper sweeps against ring clocks in Figure 6 and Table 4.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import CoherenceStats, MissClass
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank, build_banks
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.memory.directory_store import DirtyBitDirectory
from repro.memory.states import CacheState
from repro.sim.kernel import Process, Simulator
from repro.sim.queues import ReadWriteLock, Resource

__all__ = ["BusSystem"]

Step = Generator[Any, Any, Any]


class BusSystem:
    """Split-transaction bus machine with snooping caches."""

    protocol = Protocol.BUS

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        self.sim = sim
        self.config = config
        self.num_nodes = config.num_processors
        self.bus = Resource(sim, name="bus")
        self.address_map = AddressMap(
            self.num_nodes, config.block_size, seed=config.seed
        )
        self.caches: List[DirectMappedCache] = [
            DirectMappedCache(config.cache.size_bytes, config.cache.block_size)
            for _ in range(self.num_nodes)
        ]
        self.banks: List[MemoryBank] = build_banks(
            sim, self.num_nodes, config.memory.access_ps
        )
        self.stats = CoherenceStats()
        self.dirty_bits = DirtyBitDirectory()
        self._dirty_node: Dict[int, int] = {}
        self._locks: Dict[int, ReadWriteLock] = {}

    # ------------------------------------------------------------------
    # Bus phases
    # ------------------------------------------------------------------
    @property
    def clock_ps(self) -> int:
        return self.config.bus.clock_ps

    #: Telemetry component name for this engine's events.
    trace_category = "bus"

    def _hold_bus(self, cycles: int, label: str = "hold") -> Step:
        """Arbitrate, hold the bus for ``cycles``, release."""
        granted_ps = yield self.bus.acquire()
        yield self.sim.timeout(cycles * self.clock_ps)
        self.bus.release()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                granted_ps,
                cycles * self.clock_ps,
                self.trace_category,
                f"bus.{label}",
                "bus",
            )

    # ------------------------------------------------------------------
    # Per-block serialisation (same rationale as the ring engines)
    # ------------------------------------------------------------------
    def block_lock(self, block: int) -> ReadWriteLock:
        lock = self._locks.get(block)
        if lock is None:
            lock = ReadWriteLock(self.sim, name=f"block:{block:#x}")
            self._locks[block] = lock
        return lock

    def dirty_hint(self, address: int) -> bool:
        return self.dirty_bits.is_dirty(self.address_map.block_of(address))

    def owned_by(self, address: int, node: int) -> bool:
        block = self.address_map.block_of(address)
        return (
            self.dirty_bits.is_dirty(block)
            and self._dirty_node.get(block) == node
        )

    def coherence_view(self, block: int) -> tuple:
        """Same canonical metadata shape as the ring engines."""
        dirty = self.dirty_bits.is_dirty(block)
        return ("dirty-bit", dirty, self._dirty_node.get(block) if dirty else None)

    # ------------------------------------------------------------------
    # Transaction entry points (same interface as the ring engines)
    # ------------------------------------------------------------------
    def spawn_miss(
        self,
        node: int,
        address: int,
        outcome: AccessOutcome,
        name: str = "miss",
    ) -> Process:
        """Start one miss as its own process (result: latency in ps)."""
        return self.sim.spawn(self.miss(node, address, outcome), name=name)

    def miss(self, node: int, address: int, outcome: AccessOutcome) -> Step:
        start_ps = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.miss_start(
                start_ps, self.trace_category, node, address, outcome.name
            )
        block = self.address_map.block_of(address)
        lock = self.block_lock(block)
        # Same locking discipline as the ring engines: read misses run
        # shared (their responses pipeline at the owner), everything
        # else exclusive; ownership commits in the read path are gated.
        shared_mode = (
            outcome is AccessOutcome.READ_MISS
            and not self.owned_by(address, node)
        )
        yield lock.acquire(exclusive=not shared_mode)
        try:
            state = self.caches[node].state_of(address)
            if outcome is AccessOutcome.UPGRADE and state is CacheState.INV:
                outcome = AccessOutcome.WRITE_MISS
            elif (
                outcome is AccessOutcome.WRITE_MISS
                and state is CacheState.RS
            ):
                outcome = AccessOutcome.UPGRADE  # filled while queued
            satisfied = (
                (outcome is AccessOutcome.READ_MISS and state.readable)
                or (
                    outcome is not AccessOutcome.READ_MISS
                    and state is CacheState.WE
                )
            )
            if satisfied:
                pass  # a concurrent/background transaction served it
            elif outcome is AccessOutcome.UPGRADE:
                if not self.address_map.is_shared(address):
                    # Private data needs no coherence: set the dirty
                    # state locally, zero cost.
                    self.caches[node].apply_upgrade(address)
                else:
                    yield from self._upgrade(node, address, start_ps)
            else:
                yield from self._miss(
                    node,
                    address,
                    outcome is AccessOutcome.WRITE_MISS,
                    start_ps,
                )
        finally:
            lock.release()
        if tracer is not None:
            tracer.miss_commit(
                start_ps,
                self.sim.now,
                self.trace_category,
                node,
                address,
                outcome.name,
            )
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_commit(self, node, address, outcome.name)
        return self.sim.now - start_ps

    # ------------------------------------------------------------------
    # Misses
    # ------------------------------------------------------------------
    def _miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)

        if not self.address_map.is_shared(address):
            self._prepare_victim(node, address)
            yield self.banks[node].access()
            self._fill(node, address, is_write)
            self.stats.record_miss(MissClass.PRIVATE, self.sim.now - start_ps)
            return

        # Snapshot ownership before the first yield (see ring engines).
        dirty = self.dirty_bits.is_dirty(block)
        owner_snapshot = self._dirty_node.get(block) if dirty else None
        if dirty and owner_snapshot is None:
            dirty = False
        if dirty and owner_snapshot == node:
            # Reclaim from the local write-back buffer.
            self._prepare_victim(node, address)
            yield self.sim.timeout(self.config.memory.cache_response_ps)
            if not is_write:
                self.dirty_bits.clear_dirty(block)
                self._dirty_node.pop(block, None)
                self.sim.spawn(
                    self._memory_update(node, block), name=f"swb:n{node}"
                )
            self._fill(node, address, is_write)
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps
            )
            return

        self._prepare_victim(node, address)

        if not dirty and home == node and not is_write:
            # Local clean read miss: served entirely by the local bank.
            yield self.banks[node].access()
            self._fill(node, address, False)
            self.stats.record_miss(
                MissClass.LOCAL_CLEAN, self.sim.now - start_ps
            )
            return

        # Request phase: address + command on the bus, snooped by all.
        yield from self._hold_bus(self.config.bus.request_cycles, "request")
        self.stats.probes_sent += 1
        if is_write:
            for sharer in self._sharers_other_than(address, node):
                self.caches[sharer].snoop_invalidate(address)

        owner = owner_snapshot if dirty else home
        if dirty:
            if not is_write and owner != node:
                self.caches[owner].snoop_downgrade(address)
            yield self.sim.timeout(self.config.memory.cache_response_ps)
        else:
            yield self.banks[home].access()

        if owner != node or dirty:
            # Reply phase: the block crosses the bus (even a dirty
            # block headed to the home's own requester does).
            yield from self._hold_bus(self.config.bus.reply_cycles, "reply")
            self.stats.blocks_sent += 1

        if is_write:
            self.dirty_bits.set_dirty(block)
            self._dirty_node[block] = node
        elif dirty and self._dirty_node.get(block) == owner:
            # Gated commit (concurrent shared-mode readers).
            self.dirty_bits.clear_dirty(block)
            self._dirty_node.pop(block, None)
            self.sim.spawn(
                self._memory_update(owner, block), name=f"swb:n{owner}"
            )
        self._fill(node, address, is_write)
        klass = MissClass.REMOTE_DIRTY if dirty else MissClass.REMOTE_CLEAN
        self.stats.record_miss(klass, self.sim.now - start_ps, traversals=1)

    def _upgrade(self, node: int, address: int, start_ps: int) -> Step:
        block = self.address_map.block_of(address)
        sharers = self._sharers_other_than(address, node)
        yield from self._hold_bus(self.config.bus.request_cycles, "request")
        self.stats.probes_sent += 1
        for sharer in sharers:
            self.caches[sharer].snoop_invalidate(address)
        self.dirty_bits.set_dirty(block)
        self._dirty_node[block] = node
        self._commit_upgrade(node, address)
        self.stats.record_upgrade(
            self.sim.now - start_ps, traversals=1, had_sharers=bool(sharers)
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _commit_upgrade(self, node: int, address: int) -> None:
        """Commit a granted upgrade; tolerant of the line having been
        evicted mid-flight by the node's own conflicting fills (weak
        ordering): the store buffer re-installs it WE."""
        state = self.caches[node].state_of(address)
        if state is CacheState.RS:
            self.caches[node].apply_upgrade(address)
        elif state is CacheState.INV:
            self._prepare_victim(node, address)
            self._fill(node, address, True)

    def _sharers_other_than(self, address: int, node: int) -> List[int]:
        return [
            other
            for other, cache in enumerate(self.caches)
            if other != node and cache.contains(address)
        ]

    def _prepare_victim(self, node: int, address: int) -> None:
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        if state is CacheState.WE:
            self.caches[node].stats.writebacks += 1
            self.sim.spawn(
                self.writeback(node, victim_address), name=f"wb:n{node}"
            )

    def _fill(self, node: int, address: int, is_write: bool) -> None:
        # A background upgrade may have re-claimed the frame since this
        # transaction's victim handling (weak ordering); evict the late
        # arrival through the normal victim path first.
        if self.caches[node].victim_for(address) is not None:
            self._prepare_victim(node, address)
        self.caches[node].fill(
            address, CacheState.WE if is_write else CacheState.RS
        )

    # ------------------------------------------------------------------
    # Background traffic
    # ------------------------------------------------------------------
    def writeback(self, node: int, address: int) -> Step:
        """Write a WE victim back to its home over the bus."""
        if not self.address_map.is_shared(address):
            yield self.banks[node].access()
            return
        block = self.address_map.block_of(address)
        home = self.address_map.home_of(address)
        lock = self.block_lock(block)
        yield lock.acquire(exclusive=True)
        try:
            if not (
                self.dirty_bits.is_dirty(block)
                and self._dirty_node.get(block) == node
            ):
                return
            if self.caches[node].contains(address):
                return
            if home != node:
                yield from self._hold_bus(self.config.bus.writeback_cycles, "writeback")
                self.stats.blocks_sent += 1
            yield self.banks[home].access()
            self.dirty_bits.clear_dirty(block)
            self._dirty_node.pop(block, None)
            self.stats.writebacks += 1
        finally:
            lock.release()
        monitor = self.sim.monitor
        if monitor is not None:
            monitor.on_commit(self, node, address, "WRITEBACK")

    def _memory_update(self, owner: int, block: int) -> Step:
        """Memory refresh after a downgrade (bus + bank time only)."""
        address = block * self.config.block_size
        home = self.address_map.home_of(address)
        if home != owner:
            yield from self._hold_bus(self.config.bus.writeback_cycles, "writeback")
            self.stats.blocks_sent += 1
        yield self.banks[home].access()
        self.stats.sharing_writebacks += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def bus_utilization(self, elapsed_ps: Optional[int] = None) -> float:
        """Fraction of time the bus was held (the paper's 'network
        utilisation' for bus systems)."""
        return self.bus.utilization(elapsed_ps)
