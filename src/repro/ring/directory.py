"""Full-map directory protocol for the slotted ring (paper §3.2).

Every coherence request is unicast to the block's **home node**, which
holds one presence bit per node plus a dirty bit (a full-map directory
after Censier & Feautrier).  The home either answers from memory,
forwards the request to the dirty node, or multicasts an invalidation
before answering.

Latency classes (Figure 5 of the paper):

* **1-cycle clean** -- remote home, clean block: requester -> home ->
  requester, exactly one ring traversal.
* **1-cycle dirty** -- dirty block whose owner is *not* on the ring
  path between requester and home: the three hops
  requester -> home -> dirty -> requester still sum to one traversal,
  but need three slot acquisitions, so the latency is higher.
* **2-cycle** -- the dirty node sits between requester and home (the
  three hops wrap the ring twice, Figure 2.b), or the write requires a
  multicast invalidation round before the home can answer.

The multicast invalidation is a single broadcast probe issued by the
home: it sweeps the whole ring, each sharer invalidates as it passes,
and its return to the home is the acknowledgment.

Transactions run as flat state machines: the dispatch table is
:data:`repro.ring.flatdirectory.DIRECTORY_TABLE`, on the shared
handlers of :mod:`repro.ring.flatring`.  This class holds the
protocol's state (one full-map directory per home) and the queries
and hooks those handlers call.
"""

from __future__ import annotations

from typing import List

from repro.core.config import Protocol, SystemConfig
from repro.core.metrics import MissClass
from repro.memory.directory_store import FullMapDirectory
from repro.ring.base import ProtocolError, RingSystemBase
from repro.ring.flatdirectory import DIRECTORY_TABLE
from repro.sim.kernel import Simulator

__all__ = ["DirectoryRingSystem"]


class DirectoryRingSystem(RingSystemBase):
    """The paper's full-map directory protocol on the slotted ring."""

    protocol = Protocol.DIRECTORY
    #: This engine's transactions (repro.ring.flatdirectory).
    FLAT_TABLE = DIRECTORY_TABLE

    def __init__(self, sim: Simulator, config: SystemConfig) -> None:
        super().__init__(sim, config)
        #: One directory per home node.
        self.directories: List[FullMapDirectory] = [
            FullMapDirectory(self.num_nodes) for _ in range(self.num_nodes)
        ]

    def directory_for(self, address: int) -> FullMapDirectory:
        return self.directories[self.address_map.home_of(address)]

    def dirty_hint(self, address: int) -> bool:
        entry = self.directory_for(address).peek(
            self.address_map.block_of(address)
        )
        return entry is not None and entry.dirty

    def owned_by(self, address: int, node: int) -> bool:
        entry = self.directory_for(address).peek(
            self.address_map.block_of(address)
        )
        return entry is not None and entry.dirty and entry.owner == node

    def coherence_view(self, block: int) -> tuple:
        entry = self.directory_for(block * self.config.block_size).peek(block)
        if entry is None:
            return ("full-map", False, ())
        return ("full-map", entry.dirty, tuple(sorted(entry.sharers)))

    # ------------------------------------------------------------------
    # Miss accounting (called by the flat transaction handlers)
    # ------------------------------------------------------------------
    def _record_miss(
        self, node: int, home: int, dirty: bool, arcs: int, start_ps: int
    ) -> None:
        latency = self.sim.now - start_ps
        total = self.topology.total_stages
        traversals = arcs // total
        if arcs % total:
            raise ProtocolError(
                f"transaction arcs {arcs} not a multiple of ring size {total}"
            )
        if traversals == 0:
            # Local home, clean block, no invalidations: never left the
            # node (or used the ring at all).
            self.stats.record_miss(MissClass.LOCAL_CLEAN, latency)
        elif traversals >= 2:
            self.stats.record_miss(MissClass.TWO_CYCLE, latency, traversals)
        elif dirty:
            self.stats.record_miss(
                MissClass.DIRTY_ONE_CYCLE, latency, traversals
            )
        else:
            self.stats.record_miss(
                MissClass.REMOTE_CLEAN, latency, traversals
            )

    # ------------------------------------------------------------------
    # Write-back hooks (protocol pieces of the shared flat machines)
    # ------------------------------------------------------------------
    def _flat_wb_clear(self, block: int) -> None:
        self.directories[
            self.address_map.home_of(block * self.config.block_size)
        ].clear(block)
