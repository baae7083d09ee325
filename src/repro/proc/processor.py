"""Trace-driven blocking processor model.

Follows the paper's processor assumptions (section 4.1):

* every instruction executes in one processor cycle as long as its
  data access (if any) hits in the cache;
* instruction references never miss (their hit rate is effectively 1);
* the processor **blocks** on every miss and on every invalidation
  (permission upgrade) until the coherence transaction completes.

For efficiency, consecutive hitting references are *batched*: the
processor accumulates their busy time and posts a single kernel event
when it either misses or reaches ``batch_refs`` references.  The batch
bound keeps a processor from running unboundedly ahead of simulated
time between coherence interactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Iterable, Optional

from repro.core.config import ProcessorConfig
from repro.memory.address import SHARED_BASE
from repro.memory.cache import AccessOutcome, DirectMappedCache
from repro.sim.kernel import Simulator
from repro.traces.records import TraceRecord

__all__ = ["ProcessorCounters", "TraceProcessor"]


@dataclass
class ProcessorCounters:
    """Per-processor reference and timing counters."""

    instructions: int = 0
    data_refs: int = 0
    private_refs: int = 0
    private_writes: int = 0
    shared_refs: int = 0
    shared_writes: int = 0
    #: Shared-data misses requiring a block fetch (upgrades excluded),
    #: for the paper's "shared miss rate".
    shared_fetch_misses: int = 0
    busy_ps: int = 0
    blocked_ps: int = 0
    finished_at_ps: int = 0
    #: Upgrades issued to the store buffer without stalling (weak
    #: ordering) and writes absorbed by an already-pending upgrade.
    overlapped_upgrades: int = 0
    buffered_writes: int = 0

    @property
    def elapsed_ps(self) -> int:
        return self.busy_ps + self.blocked_ps

    @property
    def utilization(self) -> float:
        """Fraction of time busy rather than waiting on coherence."""
        elapsed = self.elapsed_ps
        return self.busy_ps / elapsed if elapsed else 0.0

    @property
    def shared_miss_rate(self) -> float:
        if not self.shared_refs:
            return 0.0
        return self.shared_fetch_misses / self.shared_refs


class TraceProcessor:
    """One processor consuming a trace against a coherence engine.

    The ``engine`` is any object exposing ``caches[node]`` and a
    ``miss(node, address, outcome)`` generator returning when the
    processor may resume (all ring engines and the bus system qualify).
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        engine: Any,
        trace: Iterable[TraceRecord],
        config: Optional[ProcessorConfig] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.engine = engine
        self.trace = trace
        self.config = config or ProcessorConfig()
        self.cache: DirectMappedCache = engine.caches[node]
        self.counters = ProcessorCounters()
        #: Blocks with an upgrade in flight (weak ordering only).
        self._pending_upgrades: set = set()

    def run(self) -> Generator[Any, Any, None]:
        """Process body: execute the whole trace.

        The generator form, used by engines without a flat table (bus,
        linked list, hierarchical); the snooping and directory engines
        run the same loop as a flat machine
        (:func:`repro.ring.flatring.spawn_trace_processor`).
        """
        sim = self.sim
        counters = self.counters
        cache = self.cache
        cycle = self.config.cycle_ps
        batch_limit = self.config.batch_refs
        pending_ps = 0
        batched = 0
        for instr_before, address, is_write in self.trace:
            counters.instructions += instr_before
            counters.data_refs += 1
            shared = address >= SHARED_BASE
            if shared:
                counters.shared_refs += 1
                counters.shared_writes += is_write
            else:
                counters.private_refs += 1
                counters.private_writes += is_write
            pending_ps += instr_before * cycle

            outcome = cache.classify(address, is_write)
            if outcome is AccessOutcome.HIT:
                batched += 1
                if batched >= batch_limit:
                    yield sim.timeout(pending_ps)
                    counters.busy_ps += pending_ps
                    pending_ps = 0
                    batched = 0
                continue

            if shared and outcome is not AccessOutcome.UPGRADE:
                counters.shared_fetch_misses += 1
            if (
                outcome is AccessOutcome.UPGRADE
                and self.config.weak_ordering
                and shared
            ):
                # Weak ordering: the store retires into a buffer and
                # the invalidation proceeds in the background; repeat
                # writes to a block with an upgrade already in flight
                # are absorbed by the buffer.
                block = self.engine.address_map.block_of(address)
                if block in self._pending_upgrades:
                    counters.buffered_writes += 1
                else:
                    self._pending_upgrades.add(block)
                    counters.overlapped_upgrades += 1
                    sim.spawn(
                        self._background_upgrade(address, block),
                        name=f"wupg:n{self.node}",
                    )
                continue
            if pending_ps:
                yield sim.timeout(pending_ps)
                counters.busy_ps += pending_ps
                pending_ps = 0
            batched = 0
            blocked_from = sim.now
            yield from self.engine.miss(self.node, address, outcome)
            counters.blocked_ps += sim.now - blocked_from
            tracer = sim.tracer
            if tracer is not None:
                tracer.complete(
                    blocked_from,
                    sim.now - blocked_from,
                    "proc",
                    f"stall.{outcome.name.lower()}",
                    f"cpu{self.node}",
                    address=f"{address:#x}",
                )

        if pending_ps:
            yield sim.timeout(pending_ps)
            counters.busy_ps += pending_ps
        counters.finished_at_ps = sim.now

    def _background_upgrade(self, address: int, block: int) -> Generator[Any, Any, None]:
        """Weak ordering: complete a buffered store's upgrade off the
        critical path."""
        try:
            yield from self.engine.miss(
                self.node, address, AccessOutcome.UPGRADE
            )
        finally:
            self._pending_upgrades.discard(block)
