"""Event-driven slot scheduler for the slotted ring.

Simulating every latch of the circular pipeline on every ring clock
would be exact but needlessly slow.  Because slots advance exactly one
stage per cycle, the arrival times of any slot at any node are pure
arithmetic: slot *k* with initial head position ``h_k`` has its head at
stage ``(h_k + t) mod S`` at cycle *t*, so it passes the node at stage
``p`` exactly when ``t ≡ (p - h_k) (mod S)``.  The scheduler exploits
this to wake a sender only at true slot-arrival instants, which makes
the simulation event count proportional to messages, not cycles, while
remaining cycle-exact for every quantity the paper reports.

Occupancy semantics
-------------------
A message in a slot occupies it from the grab cycle until the cycle
the removing node's stage sees the head again:

* unicast (directory requests, block messages): ``distance(src, dst)``
  cycles -- the destination strips the message, so downstream nodes
  see a free slot;
* broadcast (snooping probes, multicast invalidations): one full
  traversal -- the source removes its own probe after it has been
  snooped everywhere.

The anti-starvation rule of section 5 -- "preventing a node from
reusing a message slot immediately after removing a message from that
slot" -- is enforced by default and can be disabled for the fairness
ablation bench.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.sim.kernel import Relay, Simulator, Timeout
from repro.ring.slots import FrameLayout, SlotType
from repro.ring.topology import RingTopology

__all__ = [
    "BLOCK_LANE",
    "CirculatingSlot",
    "GrantCounters",
    "SlotGrant",
    "SlotLane",
    "SlotScheduler",
    "fastpath_enabled",
]


#: Index of the block lane in each :attr:`SlotScheduler.node_lanes`
#: entry (the probe lanes sit at their address parity, 0 and 1).
BLOCK_LANE = 2


def fastpath_enabled() -> bool:
    """Whether new schedulers use the one-wake acquire fast path.

    Controlled by the ``REPRO_NO_FASTPATH`` environment variable (any
    non-empty value disables it) so the toggle propagates to process
    pool workers without threading a flag through every constructor --
    and, crucially, without adding a field to
    :class:`repro.core.config.SystemConfig`, which would change every
    result-store fingerprint.
    """
    return not os.environ.get("REPRO_NO_FASTPATH")


@dataclass
class CirculatingSlot:
    """One physical slot instance circulating on the ring."""

    slot_type: SlotType
    index: int
    #: Stage where this slot's head sat at cycle 0.
    initial_head: int
    #: First cycle at which the slot is free again.
    free_at_cycle: int = 0
    #: Node that most recently removed a message from this slot
    #: (it may not immediately reuse the slot -- anti-starvation rule).
    freed_by: Optional[int] = None
    #: Total cycles this slot has spent occupied (statistics).
    busy_cycles: int = 0
    #: Number of messages this slot has carried (statistics).
    grabs: int = 0


@dataclass(frozen=True)
class SlotGrant:
    """Result of a successful slot acquisition."""

    slot: CirculatingSlot
    #: Ring cycle at which the slot head was at the sender (grab time).
    grab_cycle: int
    #: Ring cycle at which the slot becomes free (message removed).
    release_cycle: int

    @property
    def occupancy(self) -> int:
        return self.release_cycle - self.grab_cycle


@dataclass(slots=True)
class GrantCounters:
    """Grant statistics of one slot type: slot-cycles and messages
    granted, and cycles senders waited."""

    cycles: int = 0
    messages: int = 0
    wait: int = 0


@dataclass(frozen=True, slots=True)
class SlotLane:
    """The arrivals of one slot type at one ring stage, resolved once.

    With ``period`` set (the fast path, see :meth:`SlotScheduler.
    _predict`) they form the progression ``first + k * period``, the
    arrival at step ``k`` being that of the type's slot ``order[k mod
    n]``.  A lane holds geometry only (slot indexes, not slots), so it
    is immutable and every copy of its scheduler shares it.
    """

    #: Position of the slot type in the scheduler's per-kind tables.
    kind: int
    stage: int
    period: Optional[int]
    first: int
    #: Indexes of the type's slots, in arrival order.
    order: Tuple[int, ...]
    #: The type's ``SlotType.value``, for the telemetry hooks.
    label: str


class SlotScheduler:
    """Grants slots to senders and tracks occupancy statistics."""

    def __init__(
        self,
        sim: Simulator,
        topology: RingTopology,
        layout: FrameLayout,
        clock_ps: int,
        enforce_fairness: bool = True,
        fastpath: Optional[bool] = None,
    ) -> None:
        if clock_ps <= 0:
            raise ValueError("clock_ps must be positive")
        self.sim = sim
        self.topology = topology
        self.layout = layout
        self.clock_ps = clock_ps
        self.enforce_fairness = enforce_fairness
        self.fastpath = fastpath_enabled() if fastpath is None else fastpath
        self._slots: Dict[SlotType, List[CirculatingSlot]] = {
            t: [] for t in SlotType
        }
        self._build_slots()
        #: Grant statistics per slot type.
        self.counters = {t: GrantCounters() for t in SlotType}
        kinds = (*map(layout.probe_type_for_parity, (0, 1)), SlotType.BLOCK)
        self._kind_index = {t: kind for kind, t in enumerate(kinds)}
        #: Per lane kind: the type's slots and grant counters.
        self._kind_slots = [self._slots[t] for t in kinds]
        self._kind_counters = [self.counters[t] for t in kinds]
        # The relay fast path needs the arrivals of a type at a fixed
        # stage uniformly spaced: the type appears exactly once per
        # frame and the frames tile the ring exactly.  Other layouts
        # (ablations with several probe slots per frame) take the
        # reference path.
        frames = self.topology.num_frames
        tiles = self.topology.total_stages == frames * layout.frame_stages
        #: Per node, a :class:`SlotLane` per slot type: the probe lanes
        #: indexed by block address parity, then the block lane at
        #: :data:`BLOCK_LANE` -- so hot paths never hash a SlotType.
        self.node_lanes = [
            tuple(
                self._make_lane(
                    kind, node, self.fastpath and tiles and len(slots) == frames
                )
                for kind, slots in enumerate(self._kind_slots)
            )
            for node in range(self.topology.num_nodes)
        ]

    def _make_lane(self, kind: int, node: int, uniform: bool) -> SlotLane:
        stage = self.topology.node_stage(node)
        total = self.topology.total_stages
        slots = self._kind_slots[kind]
        bases = sorted(((stage - s.initial_head) % total, s.index) for s in slots)
        return SlotLane(
            kind,
            stage,
            self.layout.frame_stages if uniform else None,
            bases[0][0],
            tuple(index for _, index in bases),
            slots[0].slot_type.value,
        )

    def _build_slots(self) -> None:
        offsets = self.layout.slot_offsets()
        for frame in range(self.topology.num_frames):
            base = frame * self.layout.frame_stages
            for slot_type, offset in offsets:
                slots = self._slots[slot_type]
                slots.append(
                    CirculatingSlot(
                        slot_type=slot_type,
                        index=len(slots),
                        initial_head=(base + offset) % self.topology.total_stages,
                    )
                )

    def lane(self, node: int, slot_type: SlotType) -> SlotLane:
        """The arrivals of ``slot_type`` at ``node``'s stage."""
        self.topology._check_node(node)
        return self.node_lanes[node][self._kind_index[slot_type]]

    # ------------------------------------------------------------------
    # Time arithmetic
    # ------------------------------------------------------------------
    def cycle_to_ps(self, cycle: int) -> int:
        return cycle * self.clock_ps

    def ps_to_next_cycle(self, ps: int) -> int:
        """First ring cycle boundary at or after ``ps``."""
        return -(-ps // self.clock_ps)

    def slots_of(self, slot_type: SlotType) -> List[CirculatingSlot]:
        return self._slots[slot_type]

    def next_arrival(
        self, slot: CirculatingSlot, node_stage: int, not_before: int
    ) -> int:
        """First cycle >= ``not_before`` the slot head is at the stage."""
        total = self.topology.total_stages
        base = (node_stage - slot.initial_head) % total
        if base >= not_before:
            return base
        revolutions = -(-(not_before - base) // total)
        return base + revolutions * total

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def _predict(
        self, lane: SlotLane, node: int, search_from: int, now_cycle: int
    ) -> Tuple[int, CirculatingSlot, int]:
        """The fast path's prediction, shared by both acquire paths:
        ``(arrival, slot, wake)`` for the earliest arrival at or after
        ``search_from`` that ``node`` may grab *per current slot state*.

        The lane's arrivals form one progression, so walking it in time
        order answers at the first grabbable step -- the same pair a
        min-scan over every slot returns, since arrival times at a
        stage are distinct.  A revolution visits every slot once.  If
        none is grabbable in it (all busy past it, or the one pass the
        fairness rule blocks), none is before the earliest release
        either, so the walk resumes there; the slot released first is
        grabbable within the next two revolutions.

        ``wake`` is the first arrival the reference loop would sleep to
        on the way, when ``arrival`` is after ``now_cycle``: it checks
        the arrivals up to now inline, without sleeping.
        """
        period = lane.period
        start = lane.first
        order = lane.order
        count = len(order)
        slots = self._kind_slots[lane.kind]
        fairness = self.enforce_fairness
        lower = search_from if search_from > now_cycle else now_cycle + 1
        while True:
            step = -(-(search_from - start) // period) if search_from > start else 0
            arrival = start + step * period
            index = step % count
            for _ in range(count):
                slot = slots[order[index]]
                free_at = slot.free_at_cycle
                if arrival > free_at or (
                    arrival == free_at and not (fairness and slot.freed_by == node)
                ):
                    return arrival, slot, arrival - (arrival - lower) // period * period
                arrival += period
                index += 1
                if index == count:
                    index = 0
            search_from = max(arrival, min(slot.free_at_cycle for slot in slots))

    def acquire(
        self,
        node: int,
        slot_type: SlotType,
        occupancy_cycles: int,
        removed_by: Optional[int] = None,
    ) -> Generator[Any, Any, SlotGrant]:
        """Process body: wait for and grab a free slot of ``slot_type``.

        ``occupancy_cycles`` is how long the message keeps the slot
        busy (unicast: distance to destination; broadcast: the full
        ring).  ``removed_by`` is the node that will strip the message
        -- it becomes subject to the anti-starvation rule.

        Yields kernel timeouts; returns a :class:`SlotGrant`.
        """
        if occupancy_cycles <= 0:
            raise ValueError("occupancy_cycles must be positive")
        lane = self.lane(node, slot_type)
        start_cycle = self.ps_to_next_cycle(self.sim.now)
        search_from = start_cycle
        period = lane.period
        if period is not None:
            # Fast path: predict the earliest arrival that is grabbable
            # *per current slot state* and relay-sleep straight to it.
            # Skipping the arrivals in between is exact, not
            # approximate: ``free_at_cycle`` only ever increases and
            # ``freed_by`` only changes when it does, so an arrival
            # that is not grabbable now can never become grabbable
            # later -- the per-arrival polling loop below would wake at
            # each skipped arrival, observe exactly that, and go back
            # to sleep.  The prediction is re-verified at wake time
            # because another acquirer may have grabbed the predicted
            # slot in the interim; the retry then resumes after the
            # contested arrival, exactly where the polling loop would.
            #
            # Which wakes *exist* is still observable: equal-time
            # tie-breaks across all processes are decided by kernel
            # sequence numbers, and the reference loop draws one per
            # arrival it polls.  The :class:`Relay` request reproduces
            # that allocation stream exactly -- one fresh sequence
            # number per skipped arrival, drawn at the arrival's own
            # pop -- without resuming this generator, so every
            # same-time ordering (same-node contests, cross-node
            # engine-turn order) is bit-identical to polling while the
            # dead arrivals cost one heap push each instead of a full
            # generator resume plus this loop body.
            clock_ps = self.clock_ps
            step_ps = period * clock_ps
            sim = self.sim
            while True:
                now_cycle = -(-sim.now // clock_ps)
                arrival, slot, wake = self._predict(
                    lane, node, search_from, now_cycle
                )
                if arrival > now_cycle:
                    if wake == arrival:
                        yield Timeout(arrival * clock_ps - sim.now)
                    else:
                        yield Relay(
                            wake * clock_ps, step_ps, arrival * clock_ps
                        )
                if self._grabbable(slot, node, arrival):
                    break
                search_from = arrival + 1
        else:
            stage = lane.stage
            while True:
                # Reference path (REPRO_NO_FASTPATH=1): wake at every slot
                # arrival and poll.  Kept verbatim for bisection against
                # the fast path above.
                arrival, slot = min(
                    (self.next_arrival(candidate, stage, search_from), candidate)
                    for candidate in self._slots[slot_type]
                )
                now_cycle = self.ps_to_next_cycle(self.sim.now)
                if arrival > now_cycle:
                    yield self.sim.timeout(
                        self.cycle_to_ps(arrival) - self.sim.now
                    )
                if self._grabbable(slot, node, arrival):
                    break
                search_from = arrival + 1
        release = self._grant(
            lane, slot, node, arrival, occupancy_cycles, start_cycle, removed_by
        )
        return SlotGrant(slot=slot, grab_cycle=arrival, release_cycle=release)

    def _grant(
        self,
        lane: SlotLane,
        slot: CirculatingSlot,
        node: int,
        arrival: int,
        occupancy_cycles: int,
        start_cycle: int,
        removed_by: Optional[int],
    ) -> int:
        """Record a successful grab (shared by both acquire paths);
        returns the release cycle."""
        release = arrival + occupancy_cycles
        slot.free_at_cycle = release
        slot.freed_by = removed_by
        slot.busy_cycles += occupancy_cycles
        slot.grabs += 1
        waited = arrival - start_cycle
        counters = self._kind_counters[lane.kind]
        counters.cycles += occupancy_cycles
        counters.messages += 1
        counters.wait += waited
        histograms = self.sim.histograms
        if histograms is not None:
            histograms.record_slot_grant(lane.label, occupancy_cycles, waited)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.slot_grant(
                self.cycle_to_ps(arrival),
                self.cycle_to_ps(occupancy_cycles),
                lane.label,
                slot.index,
                node,
                waited,
            )
        return release

    def _grabbable(self, slot: CirculatingSlot, node: int, cycle: int) -> bool:
        if cycle < slot.free_at_cycle:
            return False
        if (
            self.enforce_fairness
            and slot.freed_by == node
            and cycle == slot.free_at_cycle
        ):
            # The node just removed a message from this very slot as it
            # passed; it must let the slot go by once (section 5).
            return False
        return True

    # ------------------------------------------------------------------
    # Derived timing helpers used by the protocol engines
    # ------------------------------------------------------------------
    def transfer_cycles(self, slot_type: SlotType, src: int, dst: int) -> int:
        """Cycles from grab until the *tail* is received at ``dst``."""
        return self.topology.distance(src, dst) + self.layout.stages_of(slot_type)

    def broadcast_cycles(self) -> int:
        """Cycles for a broadcast probe to return to its source."""
        return self.topology.total_stages

    def ack_delay_cycles(self) -> int:
        """Extra cycles until the snooping ack returns to the requester.

        The owner acknowledges in the *following* probe slot of the
        same type (section 3.1), which trails the probe by one frame.
        """
        return self.layout.frame_stages

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def utilization(self, slot_type: SlotType, elapsed_ps: int) -> float:
        """Fraction of slot-cycles of a type that carried messages."""
        if elapsed_ps <= 0:
            return 0.0
        cycles = elapsed_ps // self.clock_ps
        capacity = len(self._slots[slot_type]) * cycles
        if capacity <= 0:
            return 0.0
        return min(1.0, self.counters[slot_type].cycles / capacity)

    def aggregate_utilization(self, elapsed_ps: int) -> float:
        """Stage-weighted average slot utilisation (the paper's 'ring
        utilisation' metric)."""
        if elapsed_ps <= 0:
            return 0.0
        total_weight = 0
        weighted = 0.0
        for slot_type, slots in self._slots.items():
            weight = len(slots) * self.layout.stages_of(slot_type)
            total_weight += weight
            weighted += self.utilization(slot_type, elapsed_ps) * weight
        return weighted / total_weight if total_weight else 0.0

    def reset_statistics(self) -> None:
        """Zero the grant/wait counters (start of a measurement window)."""
        for counters in self.counters.values():
            counters.cycles = counters.messages = counters.wait = 0

    def mean_wait_cycles(self, slot_type: SlotType) -> float:
        """Average cycles senders waited for a slot of this type."""
        counters = self.counters[slot_type]
        if not counters.messages:
            return 0.0
        return counters.wait / counters.messages
