"""Structural and unit contracts for the flat state-machine core.

The flat dispatch tables in ``repro.ring.flatring`` / ``flatsnooping``
/ ``flatdirectory`` exist to eliminate per-event object churn: no
generator frames, no request objects, no ad-hoc ``Event`` allocation
per kernel wait.  Their behaviour is pinned byte for byte by
``tests/test_golden_regression.py`` and checked exhaustively by the
explorer; this module pins the *structural* property with an AST lint
over every handler reachable from a dispatch table:

* no ``yield`` / ``yield from`` / ``await`` -- a handler is a plain
  function, never a resumable frame;
* no construction of kernel request objects (``Timeout`` / ``Relay`` /
  ``Event``) and no ``sim.timeout(...)`` calls -- waits go through the
  preallocated ``f_delay`` / ``f_event`` / ``f_relay`` record fields;
* no ``sim.spawn(...)`` of a fresh generator -- background machines
  come from the per-engine free-list pools.

The same lint covers the kernel's inlined dispatch loop itself.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

from repro.ring import flatdirectory, flatring, flatsnooping
from repro.sim.flatcore import (
    OP_CONTINUE,
    OP_DONE,
    OP_RELAY,
    OP_TIMEOUT,
    FlatProcess,
)
from repro.sim.kernel import Simulator

# ----------------------------------------------------------------------
# Every handler reachable from any dispatch table, deduplicated.
# ----------------------------------------------------------------------
DISPATCH_TABLES = {
    "flatring.SHARED_HANDLERS": flatring.SHARED_HANDLERS,
    "flatring.INVALIDATE_TABLE": flatring.INVALIDATE_TABLE,
    "flatring.DOWNGRADE_TABLE": flatring.DOWNGRADE_TABLE,
    "flatsnooping.SNOOPING_TABLE": flatsnooping.SNOOPING_TABLE,
    "flatdirectory.DIRECTORY_TABLE": flatdirectory.DIRECTORY_TABLE,
}


def _all_handlers():
    seen = {}
    for table_name, table in DISPATCH_TABLES.items():
        for handler in table:
            key = (handler.__module__, handler.__qualname__)
            seen.setdefault(key, (table_name, handler))
    return [
        pytest.param(handler, id=f"{key[0].rsplit('.', 1)[-1]}.{key[1]}")
        for key, (_, handler) in sorted(seen.items())
    ]


#: Calls that allocate a kernel request object per event.
_FORBIDDEN_CONSTRUCTORS = {"Timeout", "Relay", "Event"}
#: Method calls that allocate (sim.timeout builds a Timeout; sim.spawn
#: builds a Process around a fresh generator frame).
_FORBIDDEN_METHODS = {"timeout", "spawn"}


def _lint_tree(tree: ast.AST, where: str) -> None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            raise AssertionError(
                f"{where}: dispatch code must not contain "
                f"{type(node).__name__} (line {node.lineno})"
            )
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _FORBIDDEN_CONSTRUCTORS
            ):
                raise AssertionError(
                    f"{where}: allocates {func.id}(...) per event "
                    f"(line {node.lineno}); use the preallocated "
                    f"f_delay/f_event/f_relay fields"
                )
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _FORBIDDEN_METHODS
            ):
                raise AssertionError(
                    f"{where}: calls .{func.attr}(...) per event "
                    f"(line {node.lineno}); flat machines must come "
                    f"from the free-list pools"
                )


@pytest.mark.parametrize("handler", _all_handlers())
def test_dispatch_handlers_allocate_nothing_per_event(handler):
    source = textwrap.dedent(inspect.getsource(handler))
    _lint_tree(ast.parse(source), handler.__qualname__)


def test_tables_share_the_common_prefix():
    """Engine tables embed SHARED_HANDLERS verbatim at indices 0..N-1,
    so a machine's generic states (CPU loop, acquire, sends, pools)
    mean the same thing in every engine."""
    shared = flatring.SHARED_HANDLERS
    for name, table in (
        ("SNOOPING_TABLE", flatsnooping.SNOOPING_TABLE),
        ("DIRECTORY_TABLE", flatdirectory.DIRECTORY_TABLE),
    ):
        assert table[: len(shared)] == shared, name
        assert len(table) > len(shared), name


def test_kernel_dispatch_loop_allocates_no_request_objects():
    """The inlined flat branch of Simulator.run() schedules through
    heap tuples only -- it never constructs Timeout/Relay/Event."""
    source = textwrap.dedent(inspect.getsource(Simulator.run))
    _lint_tree(ast.parse(source), "Simulator.run")


# ----------------------------------------------------------------------
# FlatProcess unit contract
# ----------------------------------------------------------------------
def _counter_table():
    def tick(proc, value):
        proc.count += 1
        if proc.count >= 3:
            proc.state = 1
            return OP_CONTINUE
        proc.f_delay = 1_000
        return OP_TIMEOUT

    def finish(proc, value):
        proc.result = proc.count
        return OP_DONE

    return [tick, finish]


class CounterMachine(FlatProcess):
    __slots__ = ("count",)

    def __init__(self, sim, table):
        FlatProcess.__init__(self, sim, table, name="counter")
        self.count = 0


def test_flat_process_runs_on_the_kernel():
    sim = Simulator()
    machine = CounterMachine(sim, _counter_table())
    sim.activate(machine)
    finish = sim.run()
    # Two real sleeps (the third tick chains straight to the finish
    # state via OP_CONTINUE without touching the heap).
    assert finish == 2_000
    assert machine.result == 3
    assert machine.done.fired
    assert machine.done.value == 3


def test_flat_process_reset_reactivates_cleanly():
    sim = Simulator()
    table = _counter_table()
    machine = CounterMachine(sim, table)
    sim.activate(machine)
    sim.run()
    assert machine.done.fired

    machine.reset()
    machine.count = 0
    assert machine.result is None
    sim.activate(machine)
    assert not machine.done.fired  # a fresh completion event
    sim.run()
    assert machine.result == 3
    assert machine.done.fired


def test_relay_record_is_mutated_in_place():
    sim = Simulator()
    machine = CounterMachine(sim, _counter_table())
    record = machine.f_relay
    op = machine.relay(5, 2, 11)
    assert op == OP_RELAY
    assert machine.f_relay is record
    assert (record.first, record.step, record.final) == (5, 2, 11)
