"""A minimal discrete-event simulation kernel.

Just enough machinery to simulate threads, locks, CPUs and queues in
virtual time, in the style of SimPy:

* :class:`Simulation` — the event loop and virtual clock;
* :class:`Event` — a one-shot occurrence with callbacks and a value;
* :class:`Process` — a generator that ``yield``\\ s events; it suspends on
  each yield and resumes (receiving the event's value) when the event
  fires.  A process is itself an event that fires when the generator
  returns;
* :class:`Resource` — a counted resource with FIFO waiters (used to model
  both the pool of processors and the global lock);
* :class:`Store` — an unbounded FIFO item store with blocking ``get``
  (used to model the run queue).

Determinism: simultaneous events fire in schedule order (a monotone
sequence number breaks time ties), so a given program + cost model always
produces the same virtual execution — which the property tests rely on.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["Simulation", "Event", "Process", "Resource", "Store"]


class Event:
    """A one-shot occurrence.  Fire it with :meth:`succeed`."""

    __slots__ = ("sim", "_callbacks", "_triggered", "_fired", "value")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False  # scheduled to fire
        self._fired = False  # callbacks have run
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now (at the current virtual time)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self.value = value
        self.sim._schedule(0.0, self)
        return self

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def fired(self) -> bool:
        return self._fired

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._fired:
            raise SimulationError("cannot add a callback to a fired event")
        self._callbacks.append(fn)

    def _fire(self) -> None:
        self._fired = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class Process(Event):
    """A generator-based simulated thread.

    The generator yields :class:`Event` objects; each ``yield`` suspends
    the process until the event fires, at which point the event's value is
    sent back in.  When the generator returns, the process (as an event)
    fires with the return value.
    """

    __slots__ = ("_gen", "name")

    def __init__(
        self,
        sim: "Simulation",
        gen: Generator[Event, Any, Any],
        name: str = "process",
    ) -> None:
        super().__init__(sim)
        self._gen = gen
        self.name = name
        # Kick off on the next event-loop step at the current time.
        bootstrap = Event(sim)
        bootstrap.add_callback(self._step)
        bootstrap.succeed()

    def _step(self, event: Optional[Event]) -> None:
        try:
            target = self._gen.send(event.value if event is not None else None)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                f"yield Event objects"
            )
        target.add_callback(self._step)

    def __repr__(self) -> str:
        return f"Process({self.name!r}, fired={self._fired})"


class Simulation:
    """The virtual clock and event loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = count()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def _schedule(self, delay: float, event: Event) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay {delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires *delay* virtual seconds from now."""
        ev = Event(self)
        ev._triggered = True
        ev.value = value
        self._schedule(delay, ev)
        return ev

    def start(self, gen: Generator[Event, Any, Any], name: str = "process") -> Process:
        """Launch a process from a generator."""
        return Process(self, gen, name=name)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the event heap drains (or virtual time *until*).

        Returns the final virtual time.  A drained heap with suspended
        processes is not an error at this level — callers decide whether
        that constitutes a deadlock.
        """
        while self._heap:
            t, _seq, event = self._heap[0]
            if until is not None and t > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = t
            event._fire()
        return self._now


class Resource:
    """A counted resource with FIFO waiters.

    ``capacity`` = 1 models a lock; ``capacity`` = P models a pool of P
    processors.  Usage inside a process::

        req = resource.request()
        yield req
        ...hold...
        resource.release()
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        # Instrumentation.
        self.total_requests = 0
        self.contended_requests = 0
        self.usage_integral = 0.0  # ∫ in_use dt — CPU-seconds consumed
        self._last_change = sim.now

    def _integrate(self) -> None:
        now = self.sim.now
        self.usage_integral += self.in_use * (now - self._last_change)
        self._last_change = now

    def request(self) -> Event:
        """An event that fires when a unit is granted (FIFO order)."""
        self.total_requests += 1
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self._grant(ev)
        else:
            self.contended_requests += 1
            self._waiters.append(ev)
        return ev

    def _grant(self, ev: Event) -> None:
        self._integrate()
        self.in_use += 1
        ev.succeed()

    def release(self) -> None:
        """Return one unit; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        self._integrate()
        self.in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())

    def utilization(self, makespan: float) -> float:
        """Mean fraction of capacity in use over ``[0, makespan]``."""
        self._integrate()
        if makespan <= 0:
            return 0.0
        return self.usage_integral / (makespan * self.capacity)

    def __repr__(self) -> str:
        return (
            f"Resource({self.name!r}, capacity={self.capacity}, "
            f"in_use={self.in_use}, waiting={len(self._waiters)})"
        )


class Store:
    """An unbounded FIFO store with blocking get (the run queue model)."""

    def __init__(self, sim: Simulation, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0
        self.max_depth = 0

    def put(self, item: Any) -> None:
        """Add *item*; wakes the oldest blocked getter if one exists."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._items.append(item)
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def get(self) -> Event:
        """An event that fires with the next item (FIFO)."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"Store({self.name!r}, depth={len(self._items)})"
