"""Flat dispatch table for the full-map directory ring protocol.

The transactions of :class:`repro.ring.directory.DirectoryRingSystem`
as :mod:`repro.ring.flatring` state handlers.  Each handler runs from
one kernel wait to the next; the order of its waits and side effects
is part of the results (see the determinism contract in
:mod:`repro.ring.flatring`).

The write path keeps the directory entry it captured before its first
wait (``proc.dir_entry``) while the read path re-fetches
``directory.entry(block)`` after waiting -- both observation patterns
are part of the protocol's gated-commit behaviour and must not be
"harmonised".

``COMMIT_TRANSITIONS`` -- the cache-line transitions the handlers may
drive -- is **derived** from the directory guarded-action spec
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
    _begin_send_block,
    _begin_send_probe,
    _chain,
    _mc_enter,
    _miss_exit,
    _private,
    spawn_multicast,
    spawn_sharing_writeback,
    validate_commit_table,
)
from repro.spec import commit_table

__all__ = ["DIRECTORY_TABLE", "COMMIT_TRANSITIONS"]

_READ_MISS = AccessOutcome.READ_MISS
_UPGRADE = AccessOutcome.UPGRADE
_INV = CacheState.INV
_RS = CacheState.RS
_WE = CacheState.WE
_LOCAL_CLEAN = MissClass.LOCAL_CLEAN

#: Cache-line transitions the committing handlers may drive, derived
#: from the directory guarded-action spec at import time (fills and
#: the concurrent RS -> RS re-fill, granted upgrades, the ownership
#: transfer / multicast round -- inline and FlatTimer -- and victim
#: replacement) and validated against ALLOWED_TRANSITIONS.
COMMIT_TRANSITIONS = validate_commit_table(commit_table("directory"))


# ----------------------------------------------------------------------
# Transaction dispatch: private data, upgrade, read or write miss
# ----------------------------------------------------------------------
def _dir_transact(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    outcome = proc.eff_outcome
    if not engine.address_map.is_shared(proc.miss_addr):
        proc.is_write = outcome is not _READ_MISS
        return _private(proc, None)
    if outcome is _UPGRADE:
        return _dir_upgrade_begin(proc)
    if outcome is _READ_MISS:
        proc.is_write = False
        return _dir_read_begin(proc)
    proc.is_write = True
    return _dir_write_begin(proc)


# ----------------------------------------------------------------------
# Reads: requester -> home, then memory or a forward to the dirty node
# ----------------------------------------------------------------------
def _dir_read_begin(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    block = proc.block
    home = engine.address_map.home_of(address)
    proc.home = home
    directory = engine.directories[home]
    proc.directory = directory
    entry = directory.entry(block)
    # Snapshot ownership before the first wait (shared-lock readers may
    # commit the dirty->shared transition while this one is in flight).
    dirty = entry.dirty
    proc.dirty = dirty
    proc.owner = entry.owner if dirty else None
    if dirty and proc.owner == node:
        return _dir_reclaim(proc)
    engine.prepare_victim(node, address)
    proc.arcs = 0
    if home != node:
        return _begin_send_probe(proc, node, home, address, DIR_READ_PROBED)
    return _dir_read_lookup(proc)


def _dir_read_probed(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.node][proc.home]
    return _dir_read_lookup(proc)


def _dir_read_lookup(proc: RingMachine) -> int:
    lookup_ps = proc.engine.config.memory.directory_lookup_ps
    if lookup_ps:
        proc.f_delay = lookup_ps
        proc.state = DIR_READ_LOOKED
        return OP_TIMEOUT
    return _dir_read_after_lookup(proc, None)


def _dir_read_after_lookup(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    if proc.dirty:
        proc.fetch_ret = DIR_READ_FETCHED
        return _dir_fetch_begin(proc)
    proc.f_event = engine.banks[proc.home].access()
    proc.state = DIR_READ_MEM
    return OP_EVENT


def _dir_read_fetched(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    owner = proc.owner
    address = proc.miss_addr
    block = proc.block
    directory = proc.directory
    # Downgrade: the owner keeps an RS copy if it still caches the
    # block; memory is refreshed off the critical path.  Gated commit:
    # of several concurrent readers, exactly one flips the directory
    # state and issues the memory update.
    kept = engine.caches[owner].snoop_downgrade(address)
    if directory.entry(block).dirty:
        directory.entry(block).dirty = False
        if kept is _INV:
            directory.remove_sharer(block, owner)
        spawn_sharing_writeback(engine, owner, block)
    directory.add_sharer(block, node)
    engine.fill(node, address, _RS)
    engine._record_miss(node, proc.home, proc.dirty, proc.arcs, proc.start_ps)
    return _miss_exit(proc)


def _dir_read_mem(proc: RingMachine, value: Any) -> int:
    if proc.home != proc.node:
        return _begin_send_block(proc, proc.home, proc.node, DIR_READ_BLOCK)
    return _dir_read_clean_commit(proc)


def _dir_read_block(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.home][proc.node]
    return _dir_read_clean_commit(proc)


def _dir_read_clean_commit(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    proc.directory.add_sharer(proc.block, node)
    engine.fill(node, proc.miss_addr, _RS)
    engine._record_miss(node, proc.home, False, proc.arcs, proc.start_ps)
    return _miss_exit(proc)


# ----------------------------------------------------------------------
# Writes: requester -> home, then an ownership transfer from the dirty
# node, or memory overlapped with a multicast invalidation of sharers
# ----------------------------------------------------------------------
def _dir_write_begin(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    block = proc.block
    home = engine.address_map.home_of(address)
    proc.home = home
    directory = engine.directories[home]
    proc.directory = directory
    entry = directory.entry(block)
    proc.dir_entry = entry
    if entry.dirty and entry.owner == node:
        return _dir_reclaim(proc)
    engine.prepare_victim(node, address)
    proc.arcs = 0
    if home != node:
        return _begin_send_probe(proc, node, home, address, DIR_WRITE_PROBED)
    return _dir_write_lookup(proc)


def _dir_write_probed(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.node][proc.home]
    return _dir_write_lookup(proc)


def _dir_write_lookup(proc: RingMachine) -> int:
    lookup_ps = proc.engine.config.memory.directory_lookup_ps
    if lookup_ps:
        proc.f_delay = lookup_ps
        proc.state = DIR_WRITE_LOOKED
        return OP_TIMEOUT
    return _dir_write_after_lookup(proc, None)


def _dir_write_after_lookup(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    entry = proc.dir_entry  # the snapshot, deliberately (gated commit)
    if entry.dirty:
        owner = entry.owner
        if owner is None or owner == node:
            raise ProtocolError(
                f"write miss on dirty block {proc.block:#x}: bad owner {owner}"
            )
        proc.owner = owner
        proc.fetch_ret = DIR_WRITE_FETCHED
        return _dir_fetch_begin(proc)
    directory = proc.directory
    targets = directory.invalidation_targets(proc.block, node)
    if targets:
        # Overlap the memory fetch with the multicast round; the home
        # replies only after both complete.
        machine = spawn_multicast(
            engine, proc.home, proc.miss_addr, targets, directory
        )
        proc.mc_done = machine.done
        proc.f_event = engine.banks[proc.home].access()
        proc.state = DIR_WRITE_MEM_MCAST
        return OP_EVENT
    proc.f_event = engine.banks[proc.home].access()
    proc.state = DIR_WRITE_MEM
    return OP_EVENT


def _dir_write_fetched(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    # Ownership transfer: the old owner invalidates.
    engine.caches[proc.owner].snoop_invalidate(proc.miss_addr)
    proc.directory.set_exclusive(proc.block, node)
    proc.dirty = True
    engine.fill(node, proc.miss_addr, _WE)
    engine._record_miss(node, proc.home, True, proc.arcs, proc.start_ps)
    proc.dir_entry = None
    return _miss_exit(proc)


def _dir_write_mem_mcast(proc: RingMachine, value: Any) -> int:
    proc.f_event = proc.mc_done
    proc.mc_done = None
    proc.state = DIR_WRITE_MCAST_DONE
    return OP_EVENT


def _dir_write_mcast_done(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.total_stages
    return _dir_write_reply(proc)


def _dir_write_mem(proc: RingMachine, value: Any) -> int:
    return _dir_write_reply(proc)


def _dir_write_reply(proc: RingMachine) -> int:
    if proc.home != proc.node:
        return _begin_send_block(proc, proc.home, proc.node, DIR_WRITE_BLOCK)
    return _dir_write_clean_commit(proc)


def _dir_write_block(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.home][proc.node]
    return _dir_write_clean_commit(proc)


def _dir_write_clean_commit(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    proc.directory.set_exclusive(proc.block, node)
    proc.dirty = False
    engine.fill(node, proc.miss_addr, _WE)
    engine._record_miss(node, proc.home, False, proc.arcs, proc.start_ps)
    proc.dir_entry = None
    return _miss_exit(proc)


# ----------------------------------------------------------------------
# Upgrades: requester -> home, multicast invalidation, ack probe back
# ----------------------------------------------------------------------
def _dir_upgrade_begin(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    home = engine.address_map.home_of(address)
    proc.home = home
    proc.directory = engine.directories[home]
    proc.arcs = 0
    if home != node:
        return _begin_send_probe(proc, node, home, address, DIR_UPG_PROBED)
    return _dir_upg_lookup(proc)


def _dir_upg_probed(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.node][proc.home]
    return _dir_upg_lookup(proc)


def _dir_upg_lookup(proc: RingMachine) -> int:
    lookup_ps = proc.engine.config.memory.directory_lookup_ps
    if lookup_ps:
        proc.f_delay = lookup_ps
        proc.state = DIR_UPG_LOOKED
        return OP_TIMEOUT
    return _dir_upg_targets(proc, None)


def _dir_upg_targets(proc: RingMachine, value: Any) -> int:
    targets = proc.directory.invalidation_targets(proc.block, proc.node)
    proc.targets = targets
    if targets:
        # The multicast runs inline in this transaction's machine.
        proc.mc_ret = DIR_UPG_AFTER_MC
        return _mc_enter(proc, None)
    return _dir_upg_reply(proc)


def _dir_upg_after_mc(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.total_stages
    return _dir_upg_reply(proc)


def _dir_upg_reply(proc: RingMachine) -> int:
    if proc.home != proc.node:
        # The home's reply is a short acknowledgment probe.
        return _begin_send_probe(
            proc, proc.home, proc.node, proc.miss_addr, DIR_UPG_ACKED
        )
    return _dir_upg_commit(proc)


def _dir_upg_acked(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.home][proc.node]
    return _dir_upg_commit(proc)


def _dir_upg_commit(proc: RingMachine) -> int:
    engine = proc.engine
    node = proc.node
    targets = proc.targets
    proc.targets = None
    proc.directory.set_exclusive(proc.block, node)
    engine.commit_upgrade(node, proc.miss_addr)
    traversals = proc.arcs // engine.topology.total_stages
    engine.stats.record_upgrade(
        proc._sim.now - proc.start_ps,
        traversals=traversals if traversals else None,
        had_sharers=bool(targets),
    )
    return _miss_exit(proc)


# ----------------------------------------------------------------------
# Write-back-buffer reclaim: re-acquire a block pending in the local
# write-back buffer, no ring traffic
# ----------------------------------------------------------------------
def _dir_reclaim(proc: RingMachine) -> int:
    engine = proc.engine
    engine.prepare_victim(proc.node, proc.miss_addr)
    proc.f_delay = engine.config.memory.cache_response_ps
    proc.state = DIR_RECLAIM_DONE
    return OP_TIMEOUT


def _dir_reclaim_done(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    node = proc.node
    address = proc.miss_addr
    block = proc.block
    directory = proc.directory
    if proc.is_write:
        directory.set_exclusive(block, node)
        engine.fill(node, address, _WE)
    else:
        directory.entry(block).dirty = False
        directory.add_sharer(block, node)
        spawn_sharing_writeback(engine, node, block)
        engine.fill(node, address, _RS)
    engine.stats.record_miss(_LOCAL_CLEAN, proc._sim.now - proc.start_ps)
    proc.dir_entry = None
    return _miss_exit(proc)


# ----------------------------------------------------------------------
# Fetch-from-owner sub-machine: forward the request to the dirty node
# and ship the block to the requester; the caller sets ``fetch_ret``
# and accumulates travelled arcs on ``proc.arcs``
# ----------------------------------------------------------------------
def _dir_fetch_begin(proc: RingMachine) -> int:
    if proc.owner != proc.home:
        return _begin_send_probe(
            proc, proc.home, proc.owner, proc.miss_addr, DIR_FETCH_FWD
        )
    return _dir_fetch_resp(proc)


def _dir_fetch_fwd(proc: RingMachine, value: Any) -> int:
    engine = proc.engine
    sim = proc._sim
    home = proc.home
    owner = proc.owner
    proc.arcs += engine.topology.distances[home][owner]
    engine.stats.forwards += 1
    tracer = sim.tracer
    if tracer is not None:
        tracer.instant(
            sim.now,
            engine.trace_category,
            "forward",
            f"node{home}",
            owner=owner,
            requester=proc.node,
            address=f"{proc.miss_addr:#x}",
        )
    return _dir_fetch_resp(proc)


def _dir_fetch_resp(proc: RingMachine) -> int:
    proc.f_delay = proc.engine.config.memory.cache_response_ps
    proc.state = DIR_FETCH_SEND
    return OP_TIMEOUT


def _dir_fetch_send(proc: RingMachine, value: Any) -> int:
    if proc.owner != proc.node:
        return _begin_send_block(proc, proc.owner, proc.node, DIR_FETCH_ARRIVED)
    return _chain(proc, proc.fetch_ret)


def _dir_fetch_arrived(proc: RingMachine, value: Any) -> int:
    proc.arcs += proc.engine.topology.distances[proc.owner][proc.node]
    return _chain(proc, proc.fetch_ret)


DIRECTORY_TABLE = SHARED_HANDLERS + [
    _dir_transact,
    _dir_reclaim_done,
    _dir_read_probed,
    _dir_read_after_lookup,
    _dir_read_fetched,
    _dir_read_mem,
    _dir_read_block,
    _dir_write_probed,
    _dir_write_after_lookup,
    _dir_write_fetched,
    _dir_write_mem_mcast,
    _dir_write_mcast_done,
    _dir_write_mem,
    _dir_write_block,
    _dir_upg_probed,
    _dir_upg_targets,
    _dir_upg_after_mc,
    _dir_upg_acked,
    _dir_fetch_fwd,
    _dir_fetch_send,
    _dir_fetch_arrived,
]

DIR_RECLAIM_DONE = S_TRANSACT + 1
DIR_READ_PROBED = S_TRANSACT + 2
DIR_READ_LOOKED = S_TRANSACT + 3
DIR_READ_FETCHED = S_TRANSACT + 4
DIR_READ_MEM = S_TRANSACT + 5
DIR_READ_BLOCK = S_TRANSACT + 6
DIR_WRITE_PROBED = S_TRANSACT + 7
DIR_WRITE_LOOKED = S_TRANSACT + 8
DIR_WRITE_FETCHED = S_TRANSACT + 9
DIR_WRITE_MEM_MCAST = S_TRANSACT + 10
DIR_WRITE_MCAST_DONE = S_TRANSACT + 11
DIR_WRITE_MEM = S_TRANSACT + 12
DIR_WRITE_BLOCK = S_TRANSACT + 13
DIR_UPG_PROBED = S_TRANSACT + 14
DIR_UPG_LOOKED = S_TRANSACT + 15
DIR_UPG_AFTER_MC = S_TRANSACT + 16
DIR_UPG_ACKED = S_TRANSACT + 17
DIR_FETCH_FWD = S_TRANSACT + 18
DIR_FETCH_SEND = S_TRANSACT + 19
DIR_FETCH_ARRIVED = S_TRANSACT + 20
