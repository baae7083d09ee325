"""Flat state-machine processes for the event kernel.

The generator kernel of :mod:`repro.sim.kernel` models a simulation
process as a Python generator resumed once per event.  That is the
CSIM-style process-oriented view the paper's simulators used, and the
bus, linked-list and hierarchical engines still run that way, but
resuming a coroutine per event -- and allocating a request object per
yield, a generator frame per helper, and a ``Process``/``Event`` pair
per background task -- is the dominant cost of large-ring simulations.

This module provides the *flat* process kind, used by the snooping and
directory engines, the snoop timers and the memory-bank service
timers: a process is a :class:`FlatProcess` record holding

* an **int-coded state** (``proc.state``) indexing into a dispatch
  ``table`` of plain handler functions -- protocol control flow as
  data, in the transition-table style of classic MSI tables rather
  than resumable control flow;
* **preallocated request fields** (``f_delay`` / ``f_event`` /
  ``f_relay``) that handlers mutate in place, so issuing a kernel wait
  allocates nothing;
* whatever machine-specific record fields a subclass declares in its
  ``__slots__`` (the transaction's node, address, grant cycle, ...),
  reused across activations via per-engine free lists.

The kernel's event loop drives a flat process by indexed dispatch::

    op = proc.table[proc.state](proc, value)

with small-int opcodes telling the loop what to schedule next.  A
handler returning :data:`OP_CONTINUE` chains straight into the next
state without touching the heap -- the flat analogue of straight-line
code between two ``yield`` points.

Kernel contract
---------------
Each wait a handler issues (``OP_TIMEOUT`` / ``OP_EVENT`` /
``OP_RELAY``) is the flat form of one ``yield`` of a generator
process and is scheduled exactly like it; same-time ordering
everywhere in the simulator is decided by kernel sequence numbers, so
both process kinds interleave deterministically on one heap.  The
exact event stream of the flat engines is pinned by the golden and
bench counters (``tests/golden/engine_outputs.json``,
``BENCH_kernel.json``).

The AST lint in ``tests/test_flatcore.py`` enforces the "no per-event
object churn" property structurally: no ``yield`` and no per-step
request construction inside dispatch handlers.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.kernel import Process, Relay, Simulator

__all__ = [
    "OP_CONTINUE",
    "OP_TIMEOUT",
    "OP_EVENT",
    "OP_RELAY",
    "OP_DONE",
    "FlatProcess",
]


# ----------------------------------------------------------------------
# Dispatch opcodes returned by state handlers
# ----------------------------------------------------------------------
#: Chain into ``proc.state`` immediately; no kernel interaction.  The
#: flat analogue of falling through to the next basic block.
OP_CONTINUE = -1
#: Sleep ``proc.f_delay`` picoseconds (the flat ``yield sim.timeout(d)``).
OP_TIMEOUT = 0
#: Wait on ``proc.f_event`` (the flat ``yield event``).
OP_EVENT = 1
#: Relay-sleep per ``proc.f_relay`` (the flat ``yield Relay(...)``).
OP_RELAY = 2
#: The machine finished; ``proc.result`` is its return value.
OP_DONE = 3

#: A state handler: mutates the record, returns the next opcode.
Handler = Callable[["FlatProcess", Any], int]


class FlatProcess(Process):
    """A simulation process driven by table dispatch, not a generator.

    ``body`` is ``None`` -- that is how the kernel's event loop
    recognises a flat process.  Subclasses declare their record fields
    in ``__slots__`` and build their dispatch ``table`` once per
    machine *class*; instances are cheap records that free-list pools
    reset and reactivate (:meth:`reset` + :meth:`Simulator.activate`)
    instead of reallocating.
    """

    __slots__ = ("state", "table", "f_delay", "f_event", "f_relay")

    def __init__(
        self,
        sim: Simulator,
        table: List[Handler],
        name: str = "flat",
        state: int = 0,
    ) -> None:
        Process.__init__(self, None, name, sim)
        self.state = state
        self.table = table
        self.f_delay = 0
        self.f_event: Optional[Any] = None
        #: Preallocated relay record, mutated in place per relay wait.
        #: Safe to reuse: the heap only references it between the wait
        #: being issued and the machine resuming, and a machine has at
        #: most one outstanding wait.
        self.f_relay = Relay(0, 1, 0)

    def reset(self, state: int = 0) -> None:
        """Prepare a pooled instance for reactivation.

        Bumps the wake token defensively (a finished machine has no
        pending heap entries, so this discards nothing) and drops the
        previous activation's completion event so :attr:`done` starts
        pending again.
        """
        self._wake_token += 1
        self._done_event = None
        self.result = None
        self.state = state
        self.f_event = None

    def relay(self, first: int, step: int, final: int) -> int:
        """Set the relay record and return :data:`OP_RELAY`."""
        relay = self.f_relay
        relay.first = first
        relay.step = step
        relay.final = final
        return OP_RELAY
