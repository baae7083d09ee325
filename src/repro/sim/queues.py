"""Synchronisation primitives built on the DES kernel.

These mirror the CSIM facilities the paper's simulators relied on:
mailboxes (:class:`Store`), single-server facilities (:class:`Resource`)
and FIFO service queues (used for memory banks and the bus arbiter).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from repro.sim.flatcore import OP_DONE, OP_TIMEOUT, FlatProcess
from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Store", "Resource", "FifoServer"]


class Store:
    """An unbounded FIFO mailbox between processes.

    ``put`` never blocks; ``get`` returns an event to ``yield`` on that
    fires with the oldest item as soon as one is available.

    >>> sim = Simulator()
    >>> box = Store(sim)
    >>> out = []
    >>> def consumer(sim, box):
    ...     item = yield box.get()
    ...     out.append((sim.now, item))
    >>> def producer(sim, box):
    ...     yield sim.timeout(5000)
    ...     box.put("hello")
    >>> _ = sim.spawn(consumer(sim, box))
    >>> _ = sim.spawn(producer(sim, box))
    >>> _ = sim.run()
    >>> out
    [(5000, 'hello')]
    """

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self._sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next available item."""
        event = self._sim.event(name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Resource:
    """A mutually-exclusive resource with FIFO granting.

    Usage pattern (inside a process body)::

        grant = yield resource.acquire()
        ...critical section...
        resource.release()

    The ``acquire`` event fires with the current simulation time at
    grant, which is convenient for measuring queueing delay.
    """

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self._sim = sim
        self.name = name
        self._busy = False
        self._waiters: Deque[Event] = deque()
        #: Total time the resource has spent granted, for utilisation.
        self.busy_time: int = 0
        self._acquired_at: int = 0
        self.grants: int = 0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event firing when the caller holds the resource."""
        event = self._sim.event(name=f"acquire:{self.name}")
        if not self._busy:
            self._busy = True
            self._acquired_at = self._sim.now
            self.grants += 1
            event.succeed(self._sim.now)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the resource, handing it to the oldest waiter."""
        if not self._busy:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self.busy_time += self._sim.now - self._acquired_at
        if self._waiters:
            # Hand over immediately: the resource stays busy.
            self._acquired_at = self._sim.now
            self.grants += 1
            self._waiters.popleft().succeed(self._sim.now)
        else:
            self._busy = False

    def reset_statistics(self) -> None:
        """Zero the utilisation counters (start of a measurement window)."""
        self.busy_time = 0
        self.grants = 0
        if self._busy:
            self._acquired_at = self._sim.now

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Fraction of time held, over ``elapsed`` (default: sim.now)."""
        window = self._sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        in_progress = self._sim.now - self._acquired_at if self._busy else 0
        return (self.busy_time + in_progress) / window


class ReadWriteLock:
    """A FIFO-fair shared/exclusive lock.

    Used for per-block transaction serialisation in the coherence
    engines: clean read misses to one block may overlap (their effects
    commute -- each requester fetches its own copy), while writes,
    upgrades and dirty-block transactions need exclusivity.  FIFO
    granting means a queued writer blocks later readers, so writers
    never starve.
    """

    def __init__(self, sim: Simulator, name: str = "rwlock") -> None:
        self._sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        self._queue: Deque[Tuple[bool, Event]] = deque()

    @property
    def held(self) -> bool:
        return self._writer or self._readers > 0

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def acquire(self, exclusive: bool) -> Event:
        """Return an event firing when the caller holds the lock."""
        event = self._sim.event(name=f"rw:{self.name}")
        self._queue.append((exclusive, event))
        self._drain()
        return event

    def release(self) -> None:
        """Release one holder (reader or writer, per current state)."""
        if self._writer:
            self._writer = False
        elif self._readers > 0:
            self._readers -= 1
        else:
            raise SimulationError(f"release of idle rwlock {self.name!r}")
        self._drain()

    def _drain(self) -> None:
        while self._queue:
            exclusive, event = self._queue[0]
            if exclusive:
                if self._writer or self._readers:
                    return
                self._queue.popleft()
                self._writer = True
                event.succeed(self._sim.now)
                return
            if self._writer:
                return
            self._queue.popleft()
            self._readers += 1
            event.succeed(self._sim.now)


def _service_sleep(timer: "_ServiceTimer", value) -> int:
    timer.f_delay = timer.when - timer._sim.now
    timer.state = 1
    return OP_TIMEOUT


def _service_complete(timer: "_ServiceTimer", value) -> int:
    server = timer.server
    server._pending -= 1
    event = timer.event
    timer.event = None
    event.succeed(timer._sim.now)
    server._timers.append(timer)
    return OP_DONE


_SERVICE_TABLE = [_service_sleep, _service_complete]


class _ServiceTimer(FlatProcess):
    """Completion timer of one :class:`FifoServer` request.

    One of these fires per request -- for memory banks that is one per
    miss -- so it is a flat machine pooled on the owning server and
    reused across requests: no per-request generator, process or name
    string.
    """

    __slots__ = ("server", "event", "when")

    def __init__(self, sim: Simulator, server: "FifoServer") -> None:
        FlatProcess.__init__(
            self, sim, _SERVICE_TABLE, name=f"{server.name}:svc"
        )
        self.server = server
        self.event: "Event | None" = None
        self.when = 0


class FifoServer:
    """A single server with a fixed (or per-request) service time.

    Models the paper's memory banks: requests queue FIFO and each takes
    ``service_time`` picoseconds of exclusive server time.  The returned
    event fires when service *completes*.
    """

    def __init__(self, sim: Simulator, service_time: int, name: str = "server") -> None:
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        self._sim = sim
        self.service_time = service_time
        self.name = name
        #: Earliest time the server is free again.
        self._free_at: int = 0
        #: Requests accepted but not yet completed (queued + in service).
        self._pending: int = 0
        self.requests: int = 0
        self.busy_time: int = 0
        self.total_wait: int = 0
        #: Free list of completed service timers.
        self._timers: list = []

    def request(self, service_time: Optional[int] = None) -> Event:
        """Enqueue a request; the event fires at service completion."""
        duration = self.service_time if service_time is None else service_time
        start = max(self._sim.now, self._free_at)
        finish = start + duration
        self._free_at = finish
        self.requests += 1
        self.busy_time += duration
        self.total_wait += start - self._sim.now
        histograms = self._sim.histograms
        if histograms is not None:
            histograms.record_queue_depth(self.name, self._pending)
        self._pending += 1
        event = self._sim.event(name=f"served:{self.name}")
        timers = self._timers
        timer = timers.pop() if timers else _ServiceTimer(self._sim, self)
        timer.reset()
        timer.when = finish
        timer.event = event
        self._sim.activate(timer)
        return event

    def reset_statistics(self) -> None:
        """Zero the request counters (start of a measurement window)."""
        self.requests = 0
        self.busy_time = 0
        self.total_wait = 0

    def mean_wait(self) -> float:
        """Average queueing delay (excludes service) per request."""
        return self.total_wait / self.requests if self.requests else 0.0

    def utilization(self, elapsed: Optional[int] = None) -> float:
        window = self._sim.now if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return min(1.0, self.busy_time / window)
