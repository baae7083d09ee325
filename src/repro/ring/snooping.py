"""Snooping write-invalidate protocol for the slotted ring (paper §3.1).

Key properties reproduced here:

* Miss and invalidation requests are **broadcast** in probe slots; the
  probe is snooped at every node *without being removed*, and the
  requester strips it after one full traversal.  No transaction ever
  traverses the ring more than once, so miss latency is independent of
  node positions -- the ring behaves as a UMA interconnect.
* Memory keeps one **dirty bit** per block.  When clear, the home node
  owns the block and answers; when set, the dirty node answers.
* The owner acknowledges a probe in an **ack field of the following
  probe slot of the same type**, which trails the probe by one frame;
  upgrade (pure invalidation) requests complete when that ack returns.
* Write-backs and the memory update after a dirty block is downgraded
  ("sharing write-back") travel in block slots off the critical path.

Transactions run as flat state machines: the dispatch table is
:data:`repro.ring.flatsnooping.SNOOPING_TABLE`, on the shared handlers
of :mod:`repro.ring.flatring`.  This class holds the protocol's state
(the dirty bits) and the queries and hooks those handlers call.
"""

from __future__ import annotations

from repro.core.config import Protocol, SystemConfig
from repro.memory.directory_store import DirtyBitDirectory
from repro.ring.base import RingSystemBase
from repro.ring.flatsnooping import SNOOPING_TABLE
from repro.sim.kernel import Simulator

__all__ = ["SnoopingRingSystem"]


class SnoopingRingSystem(RingSystemBase):
    """The paper's snooping protocol on the slotted ring."""

    protocol = Protocol.SNOOPING
    #: This engine's transactions (repro.ring.flatsnooping).
    FLAT_TABLE = SNOOPING_TABLE

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: One dirty bit per block, conceptually held at each block's
        #: home memory (a single container is state-equivalent).
        self.dirty_bits = DirtyBitDirectory()

    def dirty_hint(self, address: int) -> bool:
        return self.dirty_bits.is_dirty(self.address_map.block_of(address))

    def owned_by(self, address: int, node: int) -> bool:
        block = self.address_map.block_of(address)
        return (
            self.dirty_bits.is_dirty(block)
            and self._dirty_node.get(block) == node
        )

    def coherence_view(self, block: int) -> tuple:
        dirty = self.dirty_bits.is_dirty(block)
        return ("dirty-bit", dirty, self._dirty_node.get(block) if dirty else None)

    # ------------------------------------------------------------------
    # Write-back hooks (protocol pieces of the shared flat machines)
    # ------------------------------------------------------------------
    def _flat_wb_clear(self, block: int) -> None:
        self.dirty_bits.clear_dirty(block)
        self._dirty_node.pop(block, None)

    def _flat_swb_note(self, node: int, block: int) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now,
                self.trace_category,
                "sharing-writeback",
                f"node{node}",
                block=f"{block:#x}",
            )
