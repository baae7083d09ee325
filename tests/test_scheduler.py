"""Unit tests for the event-driven slot scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ring.scheduler import SlotScheduler
from repro.ring.slots import FrameLayout, SlotType
from repro.ring.topology import RingTopology
from repro.sim.kernel import Simulator


def make_scheduler(num_nodes=8, fairness=True):
    sim = Simulator()
    layout = FrameLayout()
    topology = RingTopology.for_layout(num_nodes, layout)
    scheduler = SlotScheduler(
        sim, topology, layout, clock_ps=2_000, enforce_fairness=fairness
    )
    return sim, topology, layout, scheduler


def acquire(sim, scheduler, node, slot_type, occupancy, removed_by=None):
    box = {}

    def body():
        box["grant"] = yield from scheduler.acquire(
            node, slot_type, occupancy, removed_by
        )

    sim.spawn(body())
    sim.run()
    return box["grant"]


def test_slot_population():
    _, topology, layout, scheduler = make_scheduler()
    assert len(scheduler.slots_of(SlotType.PROBE_EVEN)) == topology.num_frames
    assert len(scheduler.slots_of(SlotType.PROBE_ODD)) == topology.num_frames
    assert len(scheduler.slots_of(SlotType.BLOCK)) == topology.num_frames
    heads = [
        slot.initial_head
        for slots in scheduler._slots.values()
        for slot in slots
    ]
    assert len(set(heads)) == len(heads)  # all distinct positions


def test_next_arrival_periodicity():
    _, topology, _, scheduler = make_scheduler()
    slot = scheduler.slots_of(SlotType.BLOCK)[0]
    first = scheduler.next_arrival(slot, node_stage=6, not_before=0)
    again = scheduler.next_arrival(slot, node_stage=6, not_before=first + 1)
    assert again == first + topology.total_stages


def test_acquire_returns_prompt_grant_when_free():
    sim, _, layout, scheduler = make_scheduler()
    grant = acquire(sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=30)
    # A probe-even slot passes node 0 at least once per frame.
    assert 0 <= grant.grab_cycle <= layout.frame_stages
    assert grant.occupancy == 30


def test_acquire_skips_busy_slots():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    first = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    second = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    assert second.grab_cycle > first.grab_cycle
    assert second.slot is not first.slot or (
        second.grab_cycle >= first.release_cycle
    )


def test_all_slots_busy_waits_for_release():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    frames = topology.num_frames
    grants = [
        acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=5 * total)
        for _ in range(frames)
    ]
    # All block slots are busy for a long time; the next acquire must
    # wait for the earliest release.
    late = acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    assert late.grab_cycle >= min(grant.release_cycle for grant in grants)


def _saturate_other_slots(sim, scheduler, slot_type, keep_index, cycles):
    """Occupy every slot of ``slot_type`` except ``keep_index`` for a
    long time, so the kept slot is the only grabbable candidate."""
    for slot in scheduler.slots_of(slot_type):
        if slot.index != keep_index:
            slot.free_at_cycle = cycles
            slot.freed_by = None


def test_fairness_rule_blocks_immediate_reuse():
    sim, topology, _, scheduler = make_scheduler(fairness=True)
    total = topology.total_stages
    _saturate_other_slots(sim, scheduler, SlotType.PROBE_EVEN, 0, 100 * total)
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    assert first.slot.index == 0
    second = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    # Node 0 frees the slot exactly when it returns; the rule forces
    # it to let the slot pass once (a full extra revolution).
    assert second.slot is first.slot
    assert second.grab_cycle == first.release_cycle + total


def test_fairness_disabled_allows_immediate_reuse():
    sim, topology, _, scheduler = make_scheduler(fairness=False)
    total = topology.total_stages
    _saturate_other_slots(sim, scheduler, SlotType.PROBE_EVEN, 0, 100 * total)
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    second = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    assert second.slot is first.slot
    assert second.grab_cycle == first.release_cycle


def test_other_node_can_grab_freed_slot():
    sim, topology, _, scheduler = make_scheduler(fairness=True)
    total = topology.total_stages
    first = acquire(
        sim, scheduler, 0, SlotType.PROBE_EVEN, occupancy=total, removed_by=0
    )
    # Node 1 sits downstream; the slot reaches it after being freed.
    second = acquire(
        sim, scheduler, 1, SlotType.PROBE_EVEN, occupancy=total, removed_by=1
    )
    assert second.grab_cycle >= first.release_cycle - total  # sane window


def test_utilization_accounting():
    sim, topology, layout, scheduler = make_scheduler()
    total = topology.total_stages
    acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=total)
    elapsed_ps = scheduler.cycle_to_ps(2 * total)

    def idle():
        yield sim.timeout(elapsed_ps - sim.now)

    sim.spawn(idle())
    sim.run()
    utilization = scheduler.utilization(SlotType.BLOCK, elapsed_ps)
    expected = total / (topology.num_frames * 2 * total)
    assert utilization == pytest.approx(expected, rel=0.01)
    assert 0.0 < scheduler.aggregate_utilization(elapsed_ps) < 1.0


def test_wait_statistics():
    sim, topology, _, scheduler = make_scheduler()
    acquire(sim, scheduler, 0, SlotType.PROBE_ODD, occupancy=10)
    assert scheduler.counters[SlotType.PROBE_ODD].messages == 1
    assert scheduler.mean_wait_cycles(SlotType.PROBE_ODD) >= 0.0
    assert scheduler.mean_wait_cycles(SlotType.BLOCK) == 0.0


def test_transfer_and_broadcast_helpers():
    _, topology, layout, scheduler = make_scheduler()
    assert scheduler.broadcast_cycles() == topology.total_stages
    assert scheduler.ack_delay_cycles() == layout.frame_stages
    assert (
        scheduler.transfer_cycles(SlotType.BLOCK, 0, 1)
        == topology.distance(0, 1) + layout.block_stages
    )


def test_zero_occupancy_rejected():
    sim, _, _, scheduler = make_scheduler()
    with pytest.raises(ValueError):
        acquire(sim, scheduler, 0, SlotType.BLOCK, occupancy=0)


def test_ps_cycle_conversions():
    _, _, _, scheduler = make_scheduler()
    assert scheduler.cycle_to_ps(5) == 10_000
    assert scheduler.ps_to_next_cycle(0) == 0
    assert scheduler.ps_to_next_cycle(1) == 1
    assert scheduler.ps_to_next_cycle(2_000) == 1
    assert scheduler.ps_to_next_cycle(2_001) == 2


def test_bad_clock_rejected():
    sim = Simulator()
    layout = FrameLayout()
    topology = RingTopology.for_layout(4, layout)
    with pytest.raises(ValueError):
        SlotScheduler(sim, topology, layout, clock_ps=0)


def test_concurrent_acquires_no_double_grant():
    """Many nodes grabbing simultaneously never share a slot interval."""
    sim, topology, _, scheduler = make_scheduler()
    total = topology.total_stages
    grants = []

    def body(node):
        grant = yield from scheduler.acquire(
            node, SlotType.BLOCK, occupancy_cycles=total, removed_by=node
        )
        grants.append(grant)

    for node in range(8):
        sim.spawn(body(node))
    sim.run()
    assert len(grants) == 8
    # For any two grants of the same physical slot, intervals at the
    # slot level must not overlap.
    by_slot = {}
    for grant in grants:
        by_slot.setdefault(id(grant.slot), []).append(grant)
    for shared in by_slot.values():
        shared.sort(key=lambda grant: grant.grab_cycle)
        for earlier, later in zip(shared, shared[1:]):
            assert later.grab_cycle >= earlier.release_cycle


# ----------------------------------------------------------------------
# The fast path's prediction: the arrival-order walk against a min-scan
# ----------------------------------------------------------------------
def make_fast_scheduler(num_nodes=8, fairness=True):
    layout = FrameLayout()
    topology = RingTopology.for_layout(num_nodes, layout)
    return SlotScheduler(
        Simulator(), topology, layout, clock_ps=2_000,
        enforce_fairness=fairness, fastpath=True,
    )


def min_scan(scheduler, node, slot_type, search_from):
    """The closed-form min-scan the walk replaced: each slot's earliest
    arrival at or after its release (one revolution later for the pass
    the fairness rule blocks); the earliest wins."""
    total = scheduler.topology.total_stages
    best = None
    for slot in scheduler.slots_of(slot_type):
        free_at = slot.free_at_cycle
        arrival = scheduler.next_arrival(
            slot, scheduler.topology.node_stage(node), max(search_from, free_at)
        )
        if (
            scheduler.enforce_fairness
            and arrival == free_at
            and slot.freed_by == node
        ):
            arrival += total
        if best is None or arrival < best[0]:
            best = (arrival, slot)
    return best


def assert_prediction_matches(scheduler, node, slot_type, search_from):
    lane = scheduler.lane(node, slot_type)
    arrival, slot, _ = scheduler._predict(lane, node, search_from, 0)
    want_arrival, want_slot = min_scan(scheduler, node, slot_type, search_from)
    assert (arrival, slot.index) == (want_arrival, want_slot.index)
    assert slot is want_slot
    return arrival, slot


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_predict_walk_matches_min_scan(data):
    num_nodes = data.draw(st.integers(2, 12), label="nodes")
    fairness = data.draw(st.booleans(), label="fairness")
    scheduler = make_fast_scheduler(num_nodes, fairness)
    total = scheduler.topology.total_stages
    slot_type = data.draw(st.sampled_from(list(SlotType)), label="type")
    node = data.draw(st.integers(0, num_nodes - 1), label="node")
    stage = scheduler.topology.node_stage(node)
    for slot in scheduler.slots_of(slot_type):
        if data.draw(st.booleans(), label="aligned"):
            # Free exactly as the slot passes the node: the one pass
            # the fairness rule may block.
            slot.free_at_cycle = scheduler.next_arrival(
                slot, stage, data.draw(st.integers(0, 3 * total))
            )
        else:
            slot.free_at_cycle = data.draw(st.integers(0, 6 * total))
        slot.freed_by = data.draw(
            st.one_of(st.none(), st.just(node), st.integers(0, num_nodes - 1)),
            label="freed_by",
        )
    search_from = data.draw(st.integers(0, 4 * total), label="search_from")
    assert_prediction_matches(scheduler, node, slot_type, search_from)


@pytest.mark.parametrize("fairness", [True, False])
def test_predict_resumes_when_every_slot_is_busy_past_a_revolution(
    fairness,
):
    scheduler = make_fast_scheduler(fairness=fairness)
    total = scheduler.topology.total_stages
    for offset, slot in enumerate(scheduler.slots_of(SlotType.BLOCK)):
        slot.free_at_cycle = 3 * total + 7 * offset
        slot.freed_by = 2
    arrival, _ = assert_prediction_matches(scheduler, 2, SlotType.BLOCK, 5)
    assert arrival >= 3 * total


def test_predict_skips_the_fairness_blocked_pass_at_free_at():
    scheduler = make_fast_scheduler(fairness=True)
    total = scheduler.topology.total_stages
    node = 3
    stage = scheduler.topology.node_stage(node)
    slots = scheduler.slots_of(SlotType.PROBE_EVEN)
    blocked = slots[scheduler.lane(node, SlotType.PROBE_EVEN).order[1]]
    for slot in slots:
        slot.free_at_cycle = 10 * total
    # The earliest candidate is freed by this node exactly as it
    # passes, so the walk must move past it -- and, every other slot
    # being busy, resume a revolution later.
    blocked.free_at_cycle = scheduler.next_arrival(blocked, stage, total)
    blocked.freed_by = node
    arrival, slot = assert_prediction_matches(
        scheduler, node, SlotType.PROBE_EVEN, 0
    )
    assert arrival == blocked.free_at_cycle + total and slot is blocked
    # Another node may take that very pass.
    blocked.freed_by = node + 1
    arrival, slot = assert_prediction_matches(
        scheduler, node, SlotType.PROBE_EVEN, 0
    )
    assert arrival == blocked.free_at_cycle and slot is blocked
