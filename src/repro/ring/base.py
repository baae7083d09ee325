"""Shared machinery for the three ring coherence engines.

A protocol engine owns the caches, memory banks, slot scheduler and
coherence bookkeeping for one simulated machine.  Every reference that
does not hit runs one coherence transaction -- slot waits, ring hops,
memory accesses, snoop side effects -- that completes when the
processor may resume.  The snooping and full-map directory engines run
transactions as flat state machines (:mod:`repro.ring.flatring`, with
their tables in :mod:`~repro.ring.flatsnooping` and
:mod:`~repro.ring.flatdirectory`); the linked-list engine runs them as
generators through :meth:`RingSystemBase.miss`.
:meth:`RingSystemBase.spawn_miss` starts one transaction as its own
process whichever form the engine has.

Concurrency discipline
----------------------
Transactions on *different* blocks proceed concurrently and contend
only for slots and memory banks.  Transactions on the *same* block are
serialised by a per-block lock, which stands in for the transient
states and NAK/retry mechanisms a hardware implementation would use.
Write-backs run as background processes holding the victim block's
lock; a write-back finding that ownership moved while it waited simply
aborts (the new owner has the only valid copy).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.config import SystemConfig
from repro.core.metrics import CoherenceStats, MissClass
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank, build_banks
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.memory.states import CacheState
from repro.ring.scheduler import SlotGrant, SlotScheduler
from repro.ring.slots import SlotType
from repro.ring import flatring
from repro.sim.kernel import Process, Simulator
from repro.sim.queues import ReadWriteLock

__all__ = ["RingSystemBase", "ProtocolError"]

#: Generator type of every protocol step: yields kernel requests.
Step = Generator[Any, Any, Any]


class ProtocolError(RuntimeError):
    """A coherence invariant was violated (always a bug)."""


class RingSystemBase:
    """Caches + banks + slotted ring shared by all three ring protocols."""

    #: Flat dispatch table for this engine's transactions (a list of
    #: :mod:`repro.ring.flatring` handlers), or ``None`` for an engine
    #: whose transactions are generators (:meth:`transact`).  Set by
    #: the snooping and directory subclasses; every ring engine uses
    #: the flat snoop timers.
    FLAT_TABLE = None

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        self.sim = sim
        self.config = config
        self.num_nodes = config.num_processors
        self.layout = config.ring_layout()
        self.topology = config.ring_topology()
        self.scheduler = SlotScheduler(
            sim,
            self.topology,
            self.layout,
            clock_ps=config.ring.clock_ps,
            enforce_fairness=config.ring.enforce_fairness,
        )
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
        self._locks: Dict[int, ReadWriteLock] = {}
        #: Engine bookkeeping: block -> node currently holding WE
        #: ownership (valid while the home's dirty state is set).  A
        #: hardware snooper identifies itself; the simulator needs the
        #: identity to route the response.
        self._dirty_node: Dict[int, int] = {}
        #: Free lists of pooled flat machines (any role) and timers.
        self._flat_pool: List[flatring.RingMachine] = []
        self._timer_pool: List[flatring.FlatTimer] = []

    # ------------------------------------------------------------------
    # Timing helpers
    # ------------------------------------------------------------------
    @property
    def clock_ps(self) -> int:
        return self.config.ring.clock_ps

    @property
    def trace_category(self) -> str:
        """Telemetry component name for this engine's events."""
        return f"ring.{self.protocol.value}"

    def wait_until_cycle(self, cycle: int) -> Step:
        """Advance the calling process to ring-cycle ``cycle``."""
        target_ps = self.scheduler.cycle_to_ps(cycle)
        if target_ps > self.sim.now:
            yield self.sim.timeout(target_ps - self.sim.now)

    # ------------------------------------------------------------------
    # Per-block serialisation
    # ------------------------------------------------------------------
    def block_lock(self, block: int) -> ReadWriteLock:
        lock = self._locks.get(block)
        if lock is None:
            lock = ReadWriteLock(self.sim, name=f"block:{block:#x}")
            self._locks[block] = lock
        return lock

    def dirty_hint(self, address: int) -> bool:
        """Whether the block is currently write-owned somewhere.

        Subclasses consult their own ownership state (dirty bit,
        directory entry, or sharing-list head).
        """
        raise NotImplementedError

    def owned_by(self, address: int, node: int) -> bool:
        """Whether ``node`` currently write-owns the block.

        Used to pick the lock mode: read misses take the block lock
        *shared* -- concurrent read misses pipeline their responses at
        the owner or home, exactly as probes do in hardware -- unless
        the requester itself owns the block (write-back-buffer reclaim
        mutates ownership and needs exclusivity).  Writes, upgrades and
        write-backs always take the lock exclusive.
        """
        raise NotImplementedError

    def coherence_view(self, block: int) -> tuple:
        """Canonical, hashable ownership metadata for ``block``.

        The first element tags the directory organisation
        (``"dirty-bit"``, ``"full-map"`` or ``"list"``); the rest is
        that organisation's state in a deterministic order.  The
        ``repro.check`` subsystem uses this both to canonicalize
        abstract system states and to check directory--cache agreement;
        it must be cheap and strictly read-only.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Message primitives (run inline in the transaction's process)
    # ------------------------------------------------------------------
    def send_probe(self, src: int, dst: int, address: int) -> Step:
        """Unicast a probe; returns the cycle its tail reaches ``dst``.

        A probe to oneself is free (no ring message): the current
        cycle is returned unchanged.
        """
        parity = self.address_map.parity_of(address)
        probe_type = self.layout.probe_type_for_parity(parity)
        return (yield from self._unicast(src, dst, probe_type))

    def send_block(self, src: int, dst: int) -> Step:
        """Unicast a block message; returns tail-arrival cycle at ``dst``."""
        return (yield from self._unicast(src, dst, SlotType.BLOCK))

    def _unicast(self, src: int, dst: int, slot_type: SlotType) -> Step:
        if src == dst:
            return self.scheduler.ps_to_next_cycle(self.sim.now)
        distance = self.topology.distance(src, dst)
        grant: SlotGrant = yield from self.scheduler.acquire(
            src, slot_type, occupancy_cycles=distance, removed_by=dst
        )
        if slot_type is SlotType.BLOCK:
            self.stats.blocks_sent += 1
            label = "block"
        else:
            self.stats.probes_sent += 1
            label = "probe"
        arrival = (
            grant.grab_cycle + distance + self.layout.stages_of(slot_type)
        )
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.message(
                self.scheduler.cycle_to_ps(grant.grab_cycle),
                self.scheduler.cycle_to_ps(arrival - grant.grab_cycle),
                self.trace_category,
                label,
                src,
                dst,
            )
        yield from self.wait_until_cycle(arrival)
        return arrival

    # ------------------------------------------------------------------
    # Snoop side effects applied at probe passage time
    # ------------------------------------------------------------------
    def schedule_invalidate(self, node: int, address: int, at_cycle: int) -> None:
        """Invalidate ``node``'s copy when the probe passes it."""
        flatring.spawn_snoop_timer(
            self, flatring.INVALIDATE_TABLE, "inv", node, address, at_cycle
        )

    def schedule_downgrade(self, node: int, address: int, at_cycle: int) -> None:
        """Downgrade ``node``'s WE copy to RS when the probe passes."""
        flatring.spawn_snoop_timer(
            self, flatring.DOWNGRADE_TABLE, "dgr", node, address, at_cycle
        )

    def sharers_other_than(self, address: int, node: int) -> List[int]:
        """Nodes (excluding ``node``) whose caches hold the block."""
        return [
            other
            for other, cache in enumerate(self.caches)
            if other != node and cache.contains(address)
        ]

    # ------------------------------------------------------------------
    # Fills and victim write-backs
    # ------------------------------------------------------------------
    def prepare_victim(self, node: int, address: int) -> Optional[int]:
        """Evict the frame's victim ahead of the fill.

        A WE victim is moved to the node's (conceptual) write-back
        buffer: the line leaves the cache immediately, and a background
        process performs the write-back.  Returns the victim address
        when a write-back was started.
        """
        victim = self.caches[node].victim_for(address)
        if victim is None:
            return None
        victim_address, state = victim
        self.caches[node].evict(victim_address)
        self.caches[node].stats.writebacks += state is CacheState.WE
        if state is CacheState.WE:
            if self.FLAT_TABLE is not None:
                flatring.spawn_writeback(self, node, victim_address)
            else:
                self.sim.spawn(
                    self.writeback(node, victim_address),
                    name=f"wb:n{node}",
                )
            return victim_address
        self.on_clean_eviction(node, victim_address)
        return None

    def on_clean_eviction(self, node: int, address: int) -> None:
        """Hook for protocols that must react to RS replacements.

        The snooping and full-map protocols replace shared lines
        silently (stale presence bits are harmless); the linked-list
        protocol overrides this to roll the node out of the sharing
        list.
        """

    def writeback(self, node: int, address: int) -> Step:
        """Background write-back of a WE victim (generator engines)."""
        raise NotImplementedError

    # Flat write-back hooks: protocol-specific pieces of the shared
    # flat write-back machine in :mod:`repro.ring.flatring` (engines
    # with a FLAT_TABLE provide them).
    def _flat_wb_clear(self, block: int) -> None:
        """Commit a completed write-back in the ownership metadata."""
        raise NotImplementedError

    def _flat_swb_note(self, node: int, block: int) -> None:
        """Telemetry hook after a sharing write-back's bank access."""

    def fill(self, node: int, address: int, state: CacheState) -> None:
        """Install the block; the victim was handled by prepare_victim.

        Under weak ordering a background upgrade may have re-claimed
        the frame between this transaction's victim handling and its
        fill; such a late arrival is evicted through the normal victim
        path (write-back and all).
        """
        if self.caches[node].victim_for(address) is not None:
            self.prepare_victim(node, address)
        self.caches[node].fill(address, state)

    def commit_upgrade(self, node: int, address: int) -> None:
        """Commit a granted RS -> WE upgrade at the requester.

        The line is normally still RS, but under weak ordering the
        processor keeps running and its own conflicting fills may have
        evicted it mid-transaction; the store buffer's data then
        re-installs the line WE (the permission was granted either
        way).
        """
        state = self.caches[node].state_of(address)
        if state is CacheState.RS:
            self.caches[node].apply_upgrade(address)
        elif state is CacheState.INV:
            self.prepare_victim(node, address)
            self.fill(node, address, CacheState.WE)

    # ------------------------------------------------------------------
    # Transaction entry points
    # ------------------------------------------------------------------
    def spawn_miss(
        self,
        node: int,
        address: int,
        outcome: AccessOutcome,
        name: str = "miss",
    ) -> Process:
        """Start one miss transaction as its own process.

        The process's ``result`` (and its ``done`` event's value) is
        the transaction latency in ps.  Engines with a flat table run
        the same machine the trace processors run inline; the others
        wrap :meth:`miss`.
        """
        if self.FLAT_TABLE is not None:
            return flatring.spawn_miss(self, node, address, outcome, name)
        return self.sim.spawn(self.miss(node, address, outcome), name=name)

    def miss(self, node: int, address: int, outcome: AccessOutcome) -> Step:
        """Generator form of a miss (engines without a flat table).

        Handles a non-hit reference and returns the latency in ps.
        """
        start_ps = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.miss_start(
                start_ps, self.trace_category, node, address, outcome.name
            )
        block = self.address_map.block_of(address)
        lock = self.block_lock(block)
        # Read misses run under a shared lock (only the requester's own
        # buffered ownership forces exclusivity, and only the node's
        # own transactions can create that state, so the mode cannot be
        # invalidated while queued).  Ownership-transfer commits in the
        # read paths are gated so concurrent readers of a dirty block
        # apply them once.
        shared_mode = (
            outcome is AccessOutcome.READ_MISS
            and not self.owned_by(address, node)
        )
        yield lock.acquire(exclusive=not shared_mode)
        try:
            effective = self._reresolve(node, address, outcome)
            if effective is None:
                pass  # satisfied while queued behind the block lock
            elif (
                effective is AccessOutcome.UPGRADE
                and not self.address_map.is_shared(address)
            ):
                # Private data needs no coherence: a store to a clean
                # private line just sets the dirty state locally.
                self.caches[node].apply_upgrade(address)
            else:
                yield from self.transact(node, address, effective, start_ps)
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

    def _reresolve(
        self, node: int, address: int, outcome: AccessOutcome
    ) -> Optional[AccessOutcome]:
        """Re-check the local state after the block lock was granted.

        While waiting, a remote transaction may have invalidated the RS
        copy backing a pending upgrade (it becomes a write miss), or --
        with weak ordering -- a background upgrade may have satisfied a
        foreground request for the same block (MSHR-merge behaviour).
        Returns ``None`` if no action is needed any more.
        """
        state = self.caches[node].state_of(address)
        if outcome is AccessOutcome.UPGRADE:
            if state is CacheState.RS:
                return AccessOutcome.UPGRADE
            if state is CacheState.INV:
                return AccessOutcome.WRITE_MISS
            return None  # already WE
        if outcome is AccessOutcome.READ_MISS and state.readable:
            return None  # satisfied while queued
        if outcome is AccessOutcome.WRITE_MISS:
            if state is CacheState.WE:
                return None
            if state is CacheState.RS:
                return AccessOutcome.UPGRADE
        if state is not CacheState.INV:
            raise ProtocolError(
                f"miss at node {node} for {address:#x} found state {state}"
            )
        return outcome

    def transact(
        self, node: int, address: int, outcome: AccessOutcome, start_ps: int
    ) -> Step:
        """Protocol-specific generator transaction body (engines
        without a flat table provide it)."""
        raise NotImplementedError(
            f"{type(self).__name__} runs transactions as flat machines: "
            "start them with spawn_miss() or spawn_trace_processor()"
        )

    # ------------------------------------------------------------------
    # Private data (identical in every protocol: local memory access)
    # ------------------------------------------------------------------
    def private_miss(
        self, node: int, address: int, is_write: bool, start_ps: int
    ) -> Step:
        """Miss on private data: local bank access, no coherence."""
        self.prepare_victim(node, address)
        yield self.banks[node].access()
        self.fill(node, address, CacheState.WE if is_write else CacheState.RS)
        self.stats.record_miss(MissClass.PRIVATE, self.sim.now - start_ps)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def ring_utilization(self, elapsed_ps: int) -> float:
        return self.scheduler.aggregate_utilization(elapsed_ps)

    def check_invariants(self) -> None:
        """Verify cross-cache coherence invariants (tests call this)."""
        owners: Dict[int, List[int]] = {}
        sharers: Dict[int, List[int]] = {}
        for node, cache in enumerate(self.caches):
            for block_address, state in cache.resident_blocks().items():
                if state is CacheState.WE:
                    owners.setdefault(block_address, []).append(node)
                else:
                    sharers.setdefault(block_address, []).append(node)
        for block_address, holding in owners.items():
            if len(holding) > 1:
                raise ProtocolError(
                    f"block {block_address:#x} WE at nodes {holding}"
                )
            if block_address in sharers:
                raise ProtocolError(
                    f"block {block_address:#x} WE at {holding} and RS at "
                    f"{sharers[block_address]}"
                )
