"""Flat dispatch table for the snooping ring protocol.

The transactions of :class:`repro.ring.snooping.SnoopingRingSystem`
as :mod:`repro.ring.flatring` state handlers.  Each handler runs from
one kernel wait to the next; the order of its waits and side effects
is part of the results (see the determinism contract in
:mod:`repro.ring.flatring`).

``COMMIT_TRANSITIONS`` -- the cache-line transitions the handlers may
drive -- is **derived** from the snooping guarded-action spec
(:func:`repro.spec.commit_table`) and validated against
:data:`repro.memory.states.ALLOWED_TRANSITIONS` at import: the int-coded
dispatch layer and the declarative spec share one source of truth.
"""

from __future__ import annotations

from typing import Any

from repro.core.metrics import MissClass
from repro.memory.cache import AccessOutcome
from repro.memory.states import CacheState
from repro.ring.base import ProtocolError
from repro.ring.flatring import (
    OP_EVENT,
    OP_TIMEOUT,
    SHARED_HANDLERS,
    S_TRANSACT,
    RingMachine,
    _begin_broadcast,
    _begin_send_block,
    _miss_exit,
    _private,
    _wait_cycle,
    spawn_sharing_writeback,
    validate_commit_table,
)
from repro.spec import commit_table

__all__ = ["SNOOPING_TABLE", "COMMIT_TRANSITIONS"]

_READ_MISS = AccessOutcome.READ_MISS
_UPGRADE = AccessOutcome.UPGRADE
_RS = CacheState.RS
_WE = CacheState.WE
_LOCAL_CLEAN = MissClass.LOCAL_CLEAN
_REMOTE_DIRTY = MissClass.REMOTE_DIRTY
_REMOTE_CLEAN = MissClass.REMOTE_CLEAN

#: Cache-line transitions the committing handlers may drive, derived
#: from the snooping guarded-action spec at import time (fills, the
#: concurrent shared-mode RS -> RS re-fill, granted upgrades, snoop
#: side effects at probe passage, and victim replacement ahead of a
#: fill) and validated against ALLOWED_TRANSITIONS.
COMMIT_TRANSITIONS = validate_commit_table(commit_table("snooping"))


# ----------------------------------------------------------------------
# Transaction dispatch: private data, upgrade, or shared-data miss
# ----------------------------------------------------------------------
def _sn_transact(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    outcome = proc.eff_outcome
    if not engine.address_map.is_shared(proc.miss_addr):
        proc.is_write = outcome is not _READ_MISS
        return _private(proc, None)
    if outcome is _UPGRADE:
        return _sn_upgrade_begin(proc)
    proc.is_write = outcome is not _READ_MISS
    return _sn_shared(proc)


# ----------------------------------------------------------------------
# Shared-data misses.  Ownership is snapshotted before the first wait:
# concurrent shared-mode readers may transfer it while the transaction
# is in flight, in which case the snapshot still names a valid data
# supplier (the old owner keeps an RS copy).
# ----------------------------------------------------------------------
def _sn_shared(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    block = proc.block
    home = engine.address_map.home_of(address)
    proc.home = home
    dirty = engine.dirty_bits.is_dirty(block)
    owner = engine._dirty_node.get(block) if dirty else None
    if dirty and owner is None:
        # A concurrent reader committed the transfer between our lock
        # grant and this slice: the home now serves.
        dirty = False

    if dirty and owner == node:
        # The block sits in this node's own write-back buffer (evicted,
        # write-back not drained yet): reclaim it, no ring traffic.  A
        # write keeps the dirty ownership (the queued write-back aborts
        # when it finds the new WE copy); a read surrenders it and
        # turns the buffered data into a memory update.
        engine.prepare_victim(node, address)
        proc.f_delay = engine.config.memory.cache_response_ps
        proc.state = SN_RECLAIM_DONE
        return OP_TIMEOUT

    engine.prepare_victim(node, address)

    if not dirty and home == node and not proc.is_write:
        # Local clean read miss: memory access only, no probe.
        proc.f_event = engine.banks[node].access()
        proc.state = SN_LOCAL_READ_FILL
        return OP_EVENT

    if not dirty and home == node and proc.is_write:
        return _begin_broadcast(proc, node, address, SN_LCW_GRANTED)

    proc.dirty = dirty
    proc.supplier = owner if dirty else home
    return _begin_broadcast(proc, node, address, SN_REMOTE_GRANTED)


def _sn_reclaim_done(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    block = proc.block
    if proc.is_write:
        engine.fill(node, address, _WE)
    else:
        engine.dirty_bits.clear_dirty(block)
        engine._dirty_node.pop(block, None)
        spawn_sharing_writeback(engine, node, block)
        engine.fill(node, address, _RS)
    engine.stats.record_miss(_LOCAL_CLEAN, proc._sim.now - proc.start_ps)
    return _miss_exit(proc)


def _sn_local_read_fill(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    engine.fill(proc.node, proc.miss_addr, _RS)
    engine.stats.record_miss(_LOCAL_CLEAN, proc._sim.now - proc.start_ps)
    return _miss_exit(proc)


# --- local clean write miss: served by local memory, but the ---------
# --- invalidation probe must still circle the ring (other caches ----
# --- may hold RS copies; without presence bits the home cannot know) -
def _sn_lcw_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    grab = proc.grant_cycle
    topology = engine.topology
    for sharer in engine.sharers_other_than(address, node):
        engine.schedule_invalidate(
            sharer, address, grab + topology.distances[node][sharer]
        )
    proc.f_event = engine.banks[node].access()
    proc.state = SN_LCW_MEM
    return OP_EVENT


def _sn_lcw_mem(proc: RingMachine, value: Any) -> int:
    sched = proc.sched
    ack_cycle = (
        proc.grant_cycle + sched.broadcast_cycles() + sched.ack_delay_cycles()
    )
    return _wait_cycle(proc, ack_cycle, SN_LCW_COMMIT)


def _sn_lcw_commit(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    engine.dirty_bits.set_dirty(proc.block)
    engine._dirty_node[proc.block] = node
    engine.fill(node, proc.miss_addr, _WE)
    engine.stats.record_miss(
        _LOCAL_CLEAN, proc._sim.now - proc.start_ps, traversals=None
    )
    return _miss_exit(proc)


# --- remote-sourced miss (remote home or any dirty owner): one -------
# --- broadcast probe plus one block reply, one ring traversal --------
def _sn_remote_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    grab = proc.grant_cycle
    topology = engine.topology
    supplier = proc.supplier
    owner_cycle = grab + topology.distances[node][supplier]

    # Snoop side effects as the probe sweeps the ring.
    if proc.is_write:
        for sharer in engine.sharers_other_than(address, node):
            engine.schedule_invalidate(
                sharer, address, grab + topology.distances[node][sharer]
            )
    elif proc.dirty and supplier != node:
        engine.schedule_downgrade(supplier, address, owner_cycle)

    return _wait_cycle(proc, owner_cycle, SN_REMOTE_SOURCE)


def _sn_remote_source(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    proc.state = SN_REMOTE_SEND
    if proc.dirty:
        proc.f_delay = engine.config.memory.cache_response_ps
        return OP_TIMEOUT
    proc.f_event = engine.banks[proc.home].access()
    return OP_EVENT


def _sn_remote_send(proc: RingMachine, value: Any) -> int:
    return _begin_send_block(proc, proc.supplier, proc.node, SN_REMOTE_ARRIVED)


def _sn_remote_arrived(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    block = proc.block
    if proc.is_write:
        engine.dirty_bits.set_dirty(block)
        engine._dirty_node[block] = node
        # The write must also observe the invalidation ack (the probe
        # completes its traversal before the block arrives in all but
        # degenerate cases; the ordering is enforced anyway).
        sched = proc.sched
        ack_cycle = (
            proc.grant_cycle
            + sched.broadcast_cycles()
            + sched.ack_delay_cycles()
        )
        return _wait_cycle(proc, ack_cycle, SN_REMOTE_WFILL)
    if proc.dirty and engine._dirty_node.get(block) == proc.supplier:
        # Gated downgrade commit: exactly one concurrent reader clears
        # the dirty bit and issues the memory update.
        engine.dirty_bits.clear_dirty(block)
        engine._dirty_node.pop(block, None)
        spawn_sharing_writeback(engine, proc.supplier, block)
    engine.fill(node, proc.miss_addr, _RS)
    return _sn_remote_record(proc)


def _sn_remote_wfill(proc: RingMachine, value: Any) -> int:
    proc.engine.fill(proc.node, proc.miss_addr, _WE)
    return _sn_remote_record(proc)


def _sn_remote_record(proc: RingMachine) -> int:
    klass = _REMOTE_DIRTY if proc.dirty else _REMOTE_CLEAN
    proc.engine.stats.record_miss(
        klass, proc._sim.now - proc.start_ps, traversals=1
    )
    return _miss_exit(proc)


# --- upgrades: RS -> WE permission, a broadcast probe whose ack ------
# --- rides in the following probe slot of the same type --------------
def _sn_upgrade_begin(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    if engine.dirty_bits.is_dirty(proc.block):
        raise ProtocolError(f"upgrade of {address:#x} while dirty elsewhere")
    proc.sharers = engine.sharers_other_than(address, node)
    return _begin_broadcast(proc, node, address, SN_UPG_GRANTED)


def _sn_upg_granted(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    grab = proc.grant_cycle
    topology = engine.topology
    for sharer in proc.sharers:
        engine.schedule_invalidate(
            sharer, address, grab + topology.distances[node][sharer]
        )
    sched = proc.sched
    ack_cycle = grab + sched.broadcast_cycles() + sched.ack_delay_cycles()
    return _wait_cycle(proc, ack_cycle, SN_UPG_COMMIT)


def _sn_upg_commit(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    sim = proc._sim
    node = proc.node
    address = proc.miss_addr
    sharers = proc.sharers
    proc.sharers = None
    engine.dirty_bits.set_dirty(proc.block)
    engine._dirty_node[proc.block] = node
    engine.commit_upgrade(node, address)
    tracer = sim.tracer
    if tracer is not None:
        tracer.instant(
            sim.now,
            engine.trace_category,
            "upgrade.ack",
            f"node{node}",
            address=f"{address:#x}",
            sharers=len(sharers),
        )
    engine.stats.record_upgrade(
        sim.now - proc.start_ps, traversals=1, had_sharers=bool(sharers)
    )
    return _miss_exit(proc)


SNOOPING_TABLE = SHARED_HANDLERS + [
    _sn_transact,
    _sn_reclaim_done,
    _sn_local_read_fill,
    _sn_lcw_granted,
    _sn_lcw_mem,
    _sn_lcw_commit,
    _sn_remote_granted,
    _sn_remote_source,
    _sn_remote_send,
    _sn_remote_arrived,
    _sn_remote_wfill,
    _sn_upg_granted,
    _sn_upg_commit,
]

SN_RECLAIM_DONE = S_TRANSACT + 1
SN_LOCAL_READ_FILL = S_TRANSACT + 2
SN_LCW_GRANTED = S_TRANSACT + 3
SN_LCW_MEM = S_TRANSACT + 4
SN_LCW_COMMIT = S_TRANSACT + 5
SN_REMOTE_GRANTED = S_TRANSACT + 6
SN_REMOTE_SOURCE = S_TRANSACT + 7
SN_REMOTE_SEND = S_TRANSACT + 8
SN_REMOTE_ARRIVED = S_TRANSACT + 9
SN_REMOTE_WFILL = S_TRANSACT + 10
SN_UPG_GRANTED = S_TRANSACT + 11
SN_UPG_COMMIT = S_TRANSACT + 12
