"""Flat state machines of the snooping and directory ring engines.

The snooping and full-map directory engines (:mod:`repro.ring.
snooping`, :mod:`repro.ring.directory`) run every transaction as a
*dispatch table* walk: each point where a transaction waits on the
kernel ends one plain handler function, and each transaction is a
pooled :class:`~repro.sim.flatcore.FlatProcess` record hopping between
int-coded states -- protocols as data, in the spirit of the classic
MSI transition tables, rather than resumable control flow.  The
engine classes hold the protocol state and the queries the handlers
call; this module holds the handlers every ring engine shares.

Layout
------
* :class:`RingMachine` -- the one record type used for every flat ring
  process: the per-CPU trace loop, the miss transaction it runs
  inline, the standalone misses of :func:`spawn_miss`, and the pooled
  background machines (victim write-backs, sharing write-backs,
  multicast invalidations, weak-ordering upgrades).  One union of
  record fields keeps the per-engine free list universal: any pooled
  machine can be reset into any role.
* Shared states ``S_*`` (this module) -- the trace-processor loop, the
  miss prologue/epilogue (block lock, re-resolution, tracer and
  monitor hooks), the slot-acquire / unicast-send / broadcast
  sub-machines (the flat forms of ``SlotScheduler.acquire``,
  ``RingSystemBase.send_probe`` and ``send_block``, which the
  linked-list engine uses as generators), and the background
  machines.  Protocol-specific states live in
  :mod:`repro.ring.flatsnooping` and :mod:`repro.ring.flatdirectory`,
  appended after the shared block so every engine table agrees on the
  shared indices.
* :class:`FlatTimer` -- the deferred snoop-invalidate / downgrade
  timers every ring engine uses, pooled per engine.

Sub-machine calls
-----------------
Sub-machine composition uses explicit continuation states: the
caller stores its resume state in a ``*_ret`` field (``miss_ret``,
``acq_ret``, ``msg_ret``, ``fetch_ret``, ``mc_ret``) and jumps into
the sub-machine's entry; the sub-machine ``_chain``\\ s back when done.
The nesting depth is fixed by the protocols (CPU -> miss -> transact
-> send -> acquire), so one field per level replaces a frame stack.

Determinism contract
--------------------
Same-time ordering everywhere is decided by kernel sequence numbers,
so the order in which handlers issue waits, activate machines and
apply side effects -- cache and directory mutations, statistics,
telemetry, monitor hooks -- is part of every result.  The full output
of both engines is pinned byte for byte by
``tests/golden/engine_outputs.json`` and their event counts by
``BENCH_kernel.json``; the guarded-action specs (:mod:`repro.spec`)
check every commit the exhaustive explorer drives through
:func:`spawn_miss`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.metrics import MissClass
from repro.memory.address import SHARED_BASE
from repro.memory.cache import AccessOutcome
from repro.memory.states import ALLOWED_TRANSITIONS, CacheState, IllegalTransition
from repro.ring.scheduler import BLOCK_LANE, SlotLane
from repro.sim.flatcore import OP_DONE, OP_EVENT, OP_TIMEOUT, FlatProcess

__all__ = [
    "RingMachine",
    "FlatTimer",
    "SHARED_HANDLERS",
    "S_TRANSACT",
    "spawn_miss",
    "spawn_trace_processor",
    "spawn_writeback",
    "spawn_sharing_writeback",
    "spawn_multicast",
    "validate_commit_table",
]

_HIT = AccessOutcome.HIT
_UPGRADE = AccessOutcome.UPGRADE
_READ_MISS = AccessOutcome.READ_MISS
_RS = CacheState.RS
_WE = CacheState.WE
_PRIVATE = MissClass.PRIVATE
_MSG_LABELS = ("probe", "block")


def validate_commit_table(
    table: Tuple[Tuple[str, CacheState, CacheState], ...]
) -> Tuple[Tuple[str, CacheState, CacheState], ...]:
    """Check a flat engine's declared commit transitions at import.

    Each flat protocol module declares, per committing handler, the
    cache-line transitions it may drive.  Validating the declaration
    against :data:`repro.memory.states.ALLOWED_TRANSITIONS` keeps the
    flat tables tied to the same single source of legality the caches
    assert at runtime and the model checker enumerates.
    """
    for action, before, after in table:
        allowed = ALLOWED_TRANSITIONS.get(action)
        if allowed is None:
            raise IllegalTransition(f"unknown coherence action {action!r}")
        if (before, after) not in allowed:
            raise IllegalTransition(
                f"flat table declares illegal {action}: "
                f"{before.name} -> {after.name}"
            )
    return table


class RingMachine(FlatProcess):
    """One flat ring process record (CPU, transaction, or background).

    The field set is the union of what every role needs; a free-listed
    machine is reset and refilled per activation, so the width costs
    one slot table per instance, not per event.
    """

    __slots__ = (
        "engine",
        "sched",
        "node",
        # trace-processor loop
        "counters",
        "cache",
        "trace_iter",
        "cycle_ps",
        "batch_limit",
        "weak",
        "pending_ps",
        "batched",
        "blocked_from",
        "pending_upgrades",
        # miss() wrapper
        "miss_addr",
        "miss_outcome",
        "eff_outcome",
        "start_ps",
        "block",
        "lock",
        "miss_ret",
        "is_write",
        # transaction bodies
        "home",
        "dirty",
        "owner",
        "supplier",
        "grant_cycle",
        "sharers",
        "targets",
        "arcs",
        "directory",
        "dir_entry",
        "fetch_ret",
        "mc_ret",
        "mc_done",
        # unicast / broadcast send sub-machine
        "msg_src",
        "msg_dst",
        "msg_distance",
        "msg_stages",
        "msg_kind",
        "msg_ret",
        # slot-acquire sub-machine
        "acq_node",
        "acq_lane",
        "acq_occ",
        "acq_removed_by",
        "acq_ret",
        "acq_search",
        "acq_start_cycle",
        "acq_slot",
        "acq_arrival",
        "acq_grab",
    )

    def __init__(self, engine: Any, table: list, name: str = "ring") -> None:
        FlatProcess.__init__(self, engine.sim, table, name=name)
        self.engine = engine
        self.sched = engine.scheduler
        self.node = 0
        self.counters = None
        self.cache = None
        self.trace_iter = None
        self.cycle_ps = 0
        self.batch_limit = 0
        self.weak = False
        self.pending_ps = 0
        self.batched = 0
        self.blocked_from = 0
        self.pending_upgrades = None
        self.miss_addr = 0
        self.miss_outcome = None
        self.eff_outcome = None
        self.start_ps = 0
        self.block = 0
        self.lock = None
        self.miss_ret = 0
        self.is_write = False
        self.home = 0
        self.dirty = False
        self.owner = None
        self.supplier = 0
        self.grant_cycle = 0
        self.sharers = None
        self.targets = None
        self.arcs = 0
        self.directory = None
        self.dir_entry = None
        self.fetch_ret = 0
        self.mc_ret = 0
        self.mc_done = None
        self.msg_src = 0
        self.msg_dst = 0
        self.msg_distance = 0
        self.msg_stages = 0
        self.msg_kind = 0
        self.msg_ret = 0
        self.acq_node = 0
        self.acq_lane = None
        self.acq_occ = 0
        self.acq_removed_by = None
        self.acq_ret = 0
        self.acq_search = 0
        self.acq_start_cycle = 0
        self.acq_slot = None
        self.acq_arrival = 0
        self.acq_grab = 0


# ----------------------------------------------------------------------
# Tiny chaining helpers
# ----------------------------------------------------------------------
def _chain(proc: RingMachine, state: int) -> int:
    """Enter ``state`` immediately (a former straight-line fallthrough)."""
    proc.state = state
    return proc.table[state](proc, None)


def _wait_cycle(proc: RingMachine, cycle: int, ret_state: int) -> int:
    """Sleep to a ring cycle iff it is in the future, then continue at
    ``ret_state`` (the flat ``RingSystemBase.wait_until_cycle``)."""
    target_ps = cycle * proc.sched.clock_ps
    now = proc._sim.now
    if target_ps > now:
        proc.f_delay = target_ps - now
        proc.state = ret_state
        return OP_TIMEOUT
    return _chain(proc, ret_state)


# ----------------------------------------------------------------------
# Trace-processor loop (the flat TraceProcessor.run)
# ----------------------------------------------------------------------
def _cpu_loop(proc: RingMachine, value: Any) -> int:
    sim = proc._sim
    counters = proc.counters
    cache = proc.cache
    cycle = proc.cycle_ps
    batch_limit = proc.batch_limit
    weak = proc.weak
    trace_iter = proc.trace_iter
    pending_ps = proc.pending_ps
    batched = proc.batched
    while True:
        record = next(trace_iter, None)
        if record is None:
            proc.batched = batched
            if pending_ps:
                proc.pending_ps = pending_ps
                proc.f_delay = pending_ps
                proc.state = S_CPU_FINAL
                return OP_TIMEOUT
            proc.pending_ps = 0
            counters.finished_at_ps = sim.now
            return OP_DONE
        instr_before, address, is_write = record
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
        if outcome is _HIT:
            batched += 1
            if batched >= batch_limit:
                proc.pending_ps = pending_ps
                proc.batched = batched
                proc.f_delay = pending_ps
                proc.state = S_CPU_BATCH
                return OP_TIMEOUT
            continue

        if shared and outcome is not _UPGRADE:
            counters.shared_fetch_misses += 1
        if outcome is _UPGRADE and weak and shared:
            engine = proc.engine
            block = engine.address_map.block_of(address)
            pending_upgrades = proc.pending_upgrades
            if block in pending_upgrades:
                counters.buffered_writes += 1
            else:
                pending_upgrades.add(block)
                counters.overlapped_upgrades += 1
                _spawn_background_upgrade(
                    engine, proc.node, address, pending_upgrades
                )
            continue
        proc.batched = 0
        proc.miss_addr = address
        proc.miss_outcome = outcome
        proc.miss_ret = S_CPU_MISS_DONE
        if pending_ps:
            proc.pending_ps = pending_ps
            proc.f_delay = pending_ps
            proc.state = S_CPU_PREMISS
            return OP_TIMEOUT
        proc.pending_ps = 0
        proc.blocked_from = sim.now
        return _miss_enter(proc, None)


def _cpu_batch(proc: RingMachine, value: Any) -> int:
    proc.counters.busy_ps += proc.pending_ps
    proc.pending_ps = 0
    proc.batched = 0
    return _cpu_loop(proc, None)


def _cpu_premiss(proc: RingMachine, value: Any) -> int:
    proc.counters.busy_ps += proc.pending_ps
    proc.pending_ps = 0
    proc.blocked_from = proc._sim.now
    return _miss_enter(proc, None)


def _cpu_miss_done(proc: RingMachine, value: Any) -> int:
    sim = proc._sim
    blocked = sim.now - proc.blocked_from
    proc.counters.blocked_ps += blocked
    tracer = sim.tracer
    if tracer is not None:
        tracer.complete(
            proc.blocked_from,
            blocked,
            "proc",
            f"stall.{proc.miss_outcome.name.lower()}",
            f"cpu{proc.node}",
            address=f"{proc.miss_addr:#x}",
        )
    return _cpu_loop(proc, None)


def _cpu_final(proc: RingMachine, value: Any) -> int:
    counters = proc.counters
    counters.busy_ps += proc.pending_ps
    proc.pending_ps = 0
    counters.finished_at_ps = proc._sim.now
    return OP_DONE


# ----------------------------------------------------------------------
# Miss prologue and epilogue (the flat RingSystemBase.miss): block
# lock, re-resolution after the wait, tracer and monitor hooks
# ----------------------------------------------------------------------
def _miss_enter(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    sim = proc._sim
    node = proc.node
    address = proc.miss_addr
    outcome = proc.miss_outcome
    proc.start_ps = sim.now
    tracer = sim.tracer
    if tracer is not None:
        tracer.miss_start(
            sim.now, engine.trace_category, node, address, outcome.name
        )
    block = engine.address_map.block_of(address)
    proc.block = block
    lock = engine.block_lock(block)
    proc.lock = lock
    shared_mode = outcome is _READ_MISS and not engine.owned_by(address, node)
    proc.f_event = lock.acquire(exclusive=not shared_mode)
    proc.state = S_MISS_LOCKED
    return OP_EVENT


def _miss_locked(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    effective = engine._reresolve(node, address, proc.miss_outcome)
    if effective is None:
        return _miss_exit(proc)  # satisfied while queued behind the lock
    if effective is _UPGRADE and not engine.address_map.is_shared(address):
        engine.caches[node].apply_upgrade(address)
        return _miss_exit(proc)
    proc.eff_outcome = effective
    return _chain(proc, S_TRANSACT)


def _miss_exit(proc: RingMachine) -> int:
    proc.lock.release()
    proc.lock = None
    sim = proc._sim
    tracer = sim.tracer
    if tracer is not None:
        tracer.miss_commit(
            proc.start_ps,
            sim.now,
            proc.engine.trace_category,
            proc.node,
            proc.miss_addr,
            proc.miss_outcome.name,
        )
    monitor = sim.monitor
    if monitor is not None:
        monitor.on_commit(
            proc.engine, proc.node, proc.miss_addr, proc.miss_outcome.name
        )
    return _chain(proc, proc.miss_ret)


def _miss_done(proc: RingMachine, value: Any) -> int:
    """Epilogue of a :func:`spawn_miss` machine: the latency is the
    process result."""
    proc.result = proc._sim.now - proc.start_ps
    return OP_DONE


# ----------------------------------------------------------------------
# Private-data miss (the flat RingSystemBase.private_miss)
# ----------------------------------------------------------------------
def _private(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    engine.prepare_victim(proc.node, proc.miss_addr)
    proc.f_event = engine.banks[proc.node].access()
    proc.state = S_PRIVATE_FILL
    return OP_EVENT


def _private_fill(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    engine.fill(proc.node, proc.miss_addr, _WE if proc.is_write else _RS)
    engine.stats.record_miss(_PRIVATE, proc._sim.now - proc.start_ps)
    return _miss_exit(proc)


# ----------------------------------------------------------------------
# Slot acquisition (the flat SlotScheduler.acquire, both paths)
# ----------------------------------------------------------------------
def _begin_acquire(
    proc: RingMachine,
    acq_node: int,
    lane: SlotLane,
    occupancy: int,
    removed_by: Optional[int],
    ret_state: int,
) -> int:
    if occupancy <= 0:
        raise ValueError("occupancy_cycles must be positive")
    proc.acq_node = acq_node
    proc.acq_lane = lane
    proc.acq_occ = occupancy
    proc.acq_removed_by = removed_by
    proc.acq_ret = ret_state
    start_cycle = -(-proc._sim.now // proc.sched.clock_ps)
    proc.acq_start_cycle = start_cycle
    proc.acq_search = start_cycle
    return _acq_try(proc, None)


def _acq_try(proc: RingMachine, value: Any) -> int:
    """One prediction round: pick the earliest grabbable arrival and
    sleep to it (or fall through when it is already due)."""
    sched = proc.sched
    sim = proc._sim
    clock_ps = sched.clock_ps
    search_from = proc.acq_search
    lane = proc.acq_lane
    period = lane.period
    if period is not None:
        # Fast path: the generator's prediction, relay-sleeping over
        # non-grabbable arrivals (one kernel sequence number per
        # skipped arrival, drawn at its own pop).
        now_cycle = -(-sim.now // clock_ps)
        arrival, slot, wake = sched._predict(
            lane, proc.acq_node, search_from, now_cycle
        )
        proc.acq_slot = slot
        proc.acq_arrival = arrival
        if arrival > now_cycle:
            proc.state = S_ACQ_WAKE
            if wake == arrival:
                proc.f_delay = arrival * clock_ps - sim.now
                return OP_TIMEOUT
            return proc.relay(
                wake * clock_ps, period * clock_ps, arrival * clock_ps
            )
        return _acq_wake(proc, None)
    # Reference path (REPRO_NO_FASTPATH=1): wake at every slot arrival.
    stage = lane.stage
    arrival = slot = None
    for candidate in sched._kind_slots[lane.kind]:
        candidate_arrival = sched.next_arrival(candidate, stage, search_from)
        if arrival is None or candidate_arrival < arrival:
            arrival = candidate_arrival
            slot = candidate
    now_cycle = -(-sim.now // clock_ps)
    proc.acq_slot = slot
    proc.acq_arrival = arrival
    if arrival > now_cycle:
        proc.f_delay = arrival * clock_ps - sim.now
        proc.state = S_ACQ_WAKE
        return OP_TIMEOUT
    return _acq_wake(proc, None)


def _acq_wake(proc: RingMachine, value: Any) -> int:
    sched = proc.sched
    slot = proc.acq_slot
    arrival = proc.acq_arrival
    acq_node = proc.acq_node
    if sched._grabbable(slot, acq_node, arrival):
        sched._grant(
            proc.acq_lane,
            slot,
            acq_node,
            arrival,
            proc.acq_occ,
            proc.acq_start_cycle,
            proc.acq_removed_by,
        )
        proc.acq_grab = arrival
        return _chain(proc, proc.acq_ret)
    proc.acq_search = arrival + 1
    return _acq_try(proc, None)


# ----------------------------------------------------------------------
# Unicast sends (the flat send_probe / send_block)
# ----------------------------------------------------------------------
def _begin_send_probe(
    proc: RingMachine, src: int, dst: int, address: int, ret_state: int
) -> int:
    if src == dst:
        return _chain(proc, ret_state)  # probe to oneself is free
    engine = proc.engine
    distance = engine.topology.distances[src][dst]
    proc.msg_src = src
    proc.msg_dst = dst
    proc.msg_distance = distance
    proc.msg_stages = engine.layout.probe_stages
    proc.msg_kind = 0
    proc.msg_ret = ret_state
    lane = proc.sched.node_lanes[src][engine.address_map.parity_of(address)]
    return _begin_acquire(proc, src, lane, distance, dst, S_SEND_GRANTED)


def _begin_send_block(
    proc: RingMachine, src: int, dst: int, ret_state: int
) -> int:
    if src == dst:
        return _chain(proc, ret_state)
    engine = proc.engine
    distance = engine.topology.distances[src][dst]
    proc.msg_src = src
    proc.msg_dst = dst
    proc.msg_distance = distance
    proc.msg_stages = engine.layout.block_stages
    proc.msg_kind = 1
    proc.msg_ret = ret_state
    lane = proc.sched.node_lanes[src][BLOCK_LANE]
    return _begin_acquire(proc, src, lane, distance, dst, S_SEND_GRANTED)


def _send_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    stats = engine.stats
    if proc.msg_kind == 0:
        stats.probes_sent += 1
    else:
        stats.blocks_sent += 1
    grab = proc.acq_grab
    arrival = grab + proc.msg_distance + proc.msg_stages
    tracer = proc._sim.tracer
    if tracer is not None:
        clock_ps = proc.sched.clock_ps
        tracer.message(
            grab * clock_ps,
            (arrival - grab) * clock_ps,
            engine.trace_category,
            _MSG_LABELS[proc.msg_kind],
            proc.msg_src,
            proc.msg_dst,
        )
    return _wait_cycle(proc, arrival, proc.msg_ret)


# ----------------------------------------------------------------------
# Broadcast probes: a probe slot held for one full traversal
# ----------------------------------------------------------------------
def _begin_broadcast(
    proc: RingMachine, src: int, address: int, ret_state: int
) -> int:
    engine = proc.engine
    proc.msg_src = src
    proc.msg_ret = ret_state
    return _begin_acquire(
        proc,
        src,
        proc.sched.node_lanes[src][engine.address_map.parity_of(address)],
        engine.topology.total_stages,
        src,
        S_BCAST_GRANTED,
    )


def _bcast_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    stats = engine.stats
    stats.probes_sent += 1
    stats.broadcast_probes += 1
    grab = proc.acq_grab
    #: Later acquires (the block reply) overwrite ``acq_grab``; the
    #: broadcast's grab cycle stays live for passage/ack arithmetic.
    proc.grant_cycle = grab
    tracer = proc._sim.tracer
    if tracer is not None:
        clock_ps = proc.sched.clock_ps
        tracer.message(
            grab * clock_ps,
            engine.topology.total_stages * clock_ps,
            engine.trace_category,
            "probe.broadcast",
            proc.msg_src,
            proc.msg_src,
        )
    return _chain(proc, proc.msg_ret)


# ----------------------------------------------------------------------
# Victim write-back machine (the engine's owned_by() is the guard, its
# _flat_wb_clear() hook the protocol-specific commit)
# ----------------------------------------------------------------------
def _wb_enter(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    if not engine.address_map.is_shared(address):
        # Private victim: plain local memory write, then back to pool.
        proc.f_event = engine.banks[node].access()
        proc.state = S_POOL_DONE
        return OP_EVENT
    block = engine.address_map.block_of(address)
    proc.block = block
    lock = engine.block_lock(block)
    proc.lock = lock
    proc.f_event = lock.acquire(exclusive=True)
    proc.state = S_WB_LOCKED
    return OP_EVENT


def _wb_locked(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    if not engine.owned_by(address, node) or engine.caches[node].contains(
        address
    ):
        # Ownership moved / the node reclaimed the block: abort.
        proc.lock.release()
        proc.lock = None
        return _pool_done(proc, None)
    home = engine.address_map.home_of(address)
    proc.home = home
    if home != node:
        return _begin_send_block(proc, node, home, S_WB_BANK)
    return _wb_bank(proc, None)


def _wb_bank(proc: RingMachine, value: Any) -> int:
    proc.f_event = proc.engine.banks[proc.home].access()
    proc.state = S_WB_COMMIT
    return OP_EVENT


def _wb_commit(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    engine._flat_wb_clear(proc.block)
    engine.stats.writebacks += 1
    proc.lock.release()
    proc.lock = None
    monitor = proc._sim.monitor
    if monitor is not None:
        monitor.on_commit(engine, proc.node, proc.miss_addr, "WRITEBACK")
    return _pool_done(proc, None)


# ----------------------------------------------------------------------
# Sharing write-back machine: the memory update after a dirty block
# was downgraded (the state change committed under the block lock; this
# accounts for the block-slot traffic and the bank time)
# ----------------------------------------------------------------------
def _swb_enter(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    address = proc.block * engine.config.block_size
    home = engine.address_map.home_of(address)
    proc.home = home
    owner = proc.node
    if home != owner:
        return _begin_send_block(proc, owner, home, S_SWB_BANK)
    return _swb_bank(proc, None)


def _swb_bank(proc: RingMachine, value: Any) -> int:
    proc.f_event = proc.engine.banks[proc.home].access()
    proc.state = S_SWB_COMMIT
    return OP_EVENT


def _swb_commit(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    engine.stats.sharing_writebacks += 1
    engine._flat_swb_note(proc.node, proc.block)
    return _pool_done(proc, None)


# ----------------------------------------------------------------------
# Multicast invalidation machine (the directory home's broadcast
# invalidation); runs standalone for write misses, inline (via mc_ret)
# for upgrades
# ----------------------------------------------------------------------
def _mc_enter(proc: RingMachine, value: Any) -> int:
    return _begin_broadcast(proc, proc.home, proc.miss_addr, S_MC_GRANTED)


def _mc_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    topology = engine.topology
    grab = proc.grant_cycle
    total = topology.total_stages
    home = proc.home
    address = proc.miss_addr
    directory = proc.directory
    block = proc.block
    for target in proc.targets:
        engine.schedule_invalidate(
            target, address, grab + topology.distances[home][target]
        )
        directory.remove_sharer(block, target)
    tracer = proc._sim.tracer
    if tracer is not None:
        clock_ps = proc.sched.clock_ps
        tracer.complete(
            grab * clock_ps,
            total * clock_ps,
            engine.trace_category,
            "multicast.invalidate",
            f"node{home}",
            targets=sorted(proc.targets),
            address=f"{address:#x}",
        )
    return _wait_cycle(proc, grab + total, proc.mc_ret)


# ----------------------------------------------------------------------
# Pooled-machine epilogues
# ----------------------------------------------------------------------
def _pool_done(proc: RingMachine, value: Any) -> int:
    """Return a background machine to its engine's free list."""
    proc.targets = None
    proc.mc_done = None
    proc.dir_entry = None
    proc.directory = None
    proc.engine._flat_pool.append(proc)
    return OP_DONE


def _bgu_done(proc: RingMachine, value: Any) -> int:
    """Weak-ordering upgrade epilogue: the buffered store retires."""
    proc.pending_upgrades.discard(proc.block)
    proc.pending_upgrades = None
    return _pool_done(proc, None)


# ----------------------------------------------------------------------
# Shared state numbering.  Engine tables are SHARED_HANDLERS + their
# own states, so these indices are identical across engines; the
# engine-specific transact dispatcher sits at the fixed S_TRANSACT
# index (first slot after the shared block).
# ----------------------------------------------------------------------
SHARED_HANDLERS = [
    _cpu_loop,
    _cpu_batch,
    _cpu_premiss,
    _cpu_miss_done,
    _cpu_final,
    _miss_enter,
    _miss_locked,
    _private_fill,
    _acq_wake,
    _send_granted,
    _bcast_granted,
    _wb_enter,
    _wb_locked,
    _wb_bank,
    _wb_commit,
    _swb_enter,
    _swb_bank,
    _swb_commit,
    _mc_enter,
    _mc_granted,
    _pool_done,
    _bgu_done,
    _miss_done,
]

S_CPU_LOOP = 0
S_CPU_BATCH = 1
S_CPU_PREMISS = 2
S_CPU_MISS_DONE = 3
S_CPU_FINAL = 4
S_MISS_ENTER = 5
S_MISS_LOCKED = 6
S_PRIVATE_FILL = 7
S_ACQ_WAKE = 8
S_SEND_GRANTED = 9
S_BCAST_GRANTED = 10
S_WB_ENTER = 11
S_WB_LOCKED = 12
S_WB_BANK = 13
S_WB_COMMIT = 14
S_SWB_ENTER = 15
S_SWB_BANK = 16
S_SWB_COMMIT = 17
S_MC_ENTER = 18
S_MC_GRANTED = 19
S_POOL_DONE = 20
S_BGU_DONE = 21
S_MISS_DONE = 22
#: Engine-specific transact dispatcher (first engine slot).
S_TRANSACT = len(SHARED_HANDLERS)


# ----------------------------------------------------------------------
# Deferred snoop timers: mutate one cache line when a probe passes
# ----------------------------------------------------------------------
def _timer_enter(timer: "FlatTimer", value: Any) -> int:
    target_ps = timer.target_cycle * timer.clock_ps
    now = timer._sim.now
    if target_ps > now:
        timer.f_delay = target_ps - now
        timer.state = 1
        return OP_TIMEOUT
    return timer.table[1](timer, None)


def _inv_fire(timer: "FlatTimer", value: Any) -> int:
    timer.cache.snoop_invalidate(timer.address)
    timer.engine._timer_pool.append(timer)
    return OP_DONE


def _dgr_fire(timer: "FlatTimer", value: Any) -> int:
    timer.cache.snoop_downgrade(timer.address)
    timer.engine._timer_pool.append(timer)
    return OP_DONE


INVALIDATE_TABLE = [_timer_enter, _inv_fire]
DOWNGRADE_TABLE = [_timer_enter, _dgr_fire]


class FlatTimer(FlatProcess):
    """Pooled one-shot snoop timer: wait to a ring cycle, mutate one
    cache line, return to the engine's timer pool."""

    __slots__ = ("engine", "clock_ps", "cache", "address", "target_cycle")

    def __init__(self, engine: Any) -> None:
        FlatProcess.__init__(self, engine.sim, INVALIDATE_TABLE, name="snoop")
        self.engine = engine
        self.clock_ps = engine.scheduler.clock_ps
        self.cache = None
        self.address = 0
        self.target_cycle = 0


def spawn_snoop_timer(
    engine: Any,
    table: list,
    kind: str,
    node: int,
    address: int,
    at_cycle: int,
) -> None:
    """Activate a pooled invalidate/downgrade timer (one heap entry at
    the current time, like ``sim.spawn``)."""
    pool = engine._timer_pool
    timer = pool.pop() if pool else FlatTimer(engine)
    timer.reset()
    timer.table = table
    timer.cache = engine.caches[node]
    timer.address = address
    timer.target_cycle = at_cycle
    sim = engine.sim
    if sim.tracer is not None:
        timer.name = f"{kind}:n{node}"
    sim.activate(timer)


# ----------------------------------------------------------------------
# Machine spawning
# ----------------------------------------------------------------------
def _pool_machine(engine: Any, state: int, name: Optional[str]) -> RingMachine:
    pool = engine._flat_pool
    if pool:
        machine = pool.pop()
        machine.reset(state)
    else:
        machine = RingMachine(engine, type(engine).FLAT_TABLE)
        machine.state = state
    if name is not None:
        machine.name = name
    return machine


def spawn_writeback(engine: Any, node: int, address: int) -> None:
    """Start the background write-back of a WE victim."""
    sim = engine.sim
    name = f"wb:n{node}" if sim.tracer is not None else None
    machine = _pool_machine(engine, S_WB_ENTER, name)
    machine.node = node
    machine.miss_addr = address
    sim.activate(machine)


def spawn_sharing_writeback(engine: Any, owner: int, block: int) -> None:
    """Start the memory update of a downgraded dirty block."""
    sim = engine.sim
    name = f"swb:n{owner}" if sim.tracer is not None else None
    machine = _pool_machine(engine, S_SWB_ENTER, name)
    machine.node = owner
    machine.block = block
    sim.activate(machine)


def spawn_multicast(
    engine: Any, home: int, address: int, targets: set, directory: Any
) -> RingMachine:
    """Start the home's multicast invalidation of ``targets``."""
    sim = engine.sim
    name = f"mcast:n{home}" if sim.tracer is not None else None
    machine = _pool_machine(engine, S_MC_ENTER, name)
    machine.home = home
    machine.miss_addr = address
    machine.block = engine.address_map.block_of(address)
    machine.targets = targets
    machine.directory = directory
    machine.mc_ret = S_POOL_DONE
    sim.activate(machine)
    return machine


def _spawn_background_upgrade(
    engine: Any, node: int, address: int, pending_upgrades: set
) -> None:
    """Start a weak-ordering upgrade off the critical path (the flat
    ``TraceProcessor._background_upgrade``)."""
    sim = engine.sim
    name = f"wupg:n{node}" if sim.tracer is not None else None
    machine = _pool_machine(engine, S_MISS_ENTER, name)
    machine.node = node
    machine.miss_addr = address
    machine.miss_outcome = _UPGRADE
    machine.miss_ret = S_BGU_DONE
    machine.pending_upgrades = pending_upgrades
    sim.activate(machine)


def spawn_miss(
    engine: Any, node: int, address: int, outcome: AccessOutcome, name: str
) -> RingMachine:
    """Start one miss as its own machine (``RingSystemBase.spawn_miss``).

    It runs the transaction a CPU machine runs inline; its epilogue
    stores the latency in ``result``.  The record is fresh, not taken
    from the pool, because the caller keeps the handle.
    """
    machine = RingMachine(engine, type(engine).FLAT_TABLE, name=name)
    machine.node = node
    machine.miss_addr = address
    machine.miss_outcome = outcome
    machine.miss_ret = S_MISS_DONE
    machine.state = S_MISS_ENTER
    engine.sim.activate(machine)
    return machine


def spawn_trace_processor(sim: Any, processor: Any, name: str) -> Any:
    """Start a trace processor: a flat CPU machine when the engine has
    a flat table, the generator otherwise (bus, linked-list,
    hierarchical)."""
    engine = processor.engine
    if getattr(engine, "FLAT_TABLE", None) is not None:
        machine = RingMachine(engine, type(engine).FLAT_TABLE, name=name)
        machine.node = processor.node
        machine.counters = processor.counters
        machine.cache = processor.cache
        machine.trace_iter = iter(processor.trace)
        config = processor.config
        machine.cycle_ps = config.cycle_ps
        machine.batch_limit = config.batch_refs
        machine.weak = config.weak_ordering
        machine.pending_upgrades = processor._pending_upgrades
        machine.state = S_CPU_LOOP
        sim.activate(machine)
        return machine
    return sim.spawn(processor.run(), name=name)
