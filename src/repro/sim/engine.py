"""The discrete-event simulation environment.

Time is a float; by convention throughout this project it is measured in
**milliseconds** of simulated wall-clock time.  The environment is fully
deterministic: events scheduled for the same instant are processed in
(priority, insertion-order) sequence, so a run with the same seeds always
produces the same history.

A :class:`~repro.sim.events.Timeout` whose owner no longer waits on it
(a request's deadline once the reply is in) can be withdrawn with
:meth:`~repro.sim.events.Timeout.cancel`.  Its heap entry turns *dead*:
``run``, ``step`` and ``peek`` drop it without counting it in
``events_processed`` or moving ``now``.  Once more than
``COMPACT_FLOOR`` entries are dead and they are over half the queue, the
heap is rebuilt from the live ones, so it never holds more than twice
its live entries plus the floor.  ``(time, priority, eid)`` is a total
order, so every live event is processed exactly as if nothing had been
cancelled.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Tuple

from .events import (
    AllOf,
    AnyOf,
    Event,
    Process,
    SimulationError,
    Timeout,
)

__all__ = ["COMPACT_FLOOR", "Environment", "EmptySchedule"]

#: dead (cancelled) heap entries tolerated before the queue is compacted
#: regardless of its length; above it, compaction starts once dead
#: entries outnumber live ones.
COMPACT_FLOOR = 256


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class Environment:
    """Execution environment for a single simulation run.

    ``__slots__`` keeps the per-step attribute traffic (``_now``,
    ``_queue``, ``events_processed``, the ``metrics``/``trace`` probe
    reads) on the fast path; the slot list is the complete attribute
    surface of an environment.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_dead",
        "_active_process",
        "metrics",
        "trace",
        "events_processed",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: cancelled timers still in ``_queue`` (see :meth:`_cancelled`).
        self._dead = 0
        self._active_process: Optional[Process] = None
        #: metrics registry of the owning run (set by the cluster when
        #: measurement is enabled; None means unmeasured — probe sites
        #: throughout the stack guard on this).
        self.metrics: Optional[Any] = None
        #: trace hub of the owning run (set by the cluster when causal
        #: tracing is enabled; None means untraced — same guard pattern
        #: as ``metrics``).
        self.trace: Optional[Any] = None
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # ------------------------------------------------------------------
    # Event creation helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = 0) -> None:
        """Queue ``event`` for processing ``delay`` time units from now."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        queue = self._queue
        while queue and queue[0][3].callbacks is None:
            heappop(queue)  # a cancelled timer
            self._dead -= 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process the next live scheduled event."""
        self.peek()  # drops the cancelled timers ahead of it
        if not self._queue:
            raise EmptySchedule()
        self._now, _, _, event = heappop(self._queue)
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event.defused:
            # A failure nobody handled: abort the simulation loudly rather
            # than silently dropping an error.
            raise event._value

    def _cancelled(self) -> None:
        """Account one more dead entry; compact the heap if they dominate."""
        self._dead += 1
        queue = self._queue
        if self._dead > COMPACT_FLOOR and 2 * self._dead > len(queue):
            # In place: run() holds a reference to this very list.
            queue[:] = [entry for entry in queue if entry[3].callbacks is not None]
            heapify(queue)
            self._dead = 0

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value or raising its exception).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        # The loop binds the queue once and inlines :meth:`step`'s body:
        # at tens of thousands of iterations per run the attribute
        # lookups, the ``peek()`` indirection, and the per-event call
        # are all measurable.  Keep this block in lockstep with step().
        queue = self._queue
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event.ok:
                    return stop_event.value
                stop_event.defused = True
                raise stop_event.value
            if not queue:
                if stop_event is not None:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        f"event {stop_event!r} triggered"
                    )
                if stop_time != float("inf"):
                    self._now = stop_time
                break
            if queue[0][0] > stop_time:
                self._now = stop_time
                break
            when, _, _, event = heappop(queue)
            callbacks = event.callbacks
            if callbacks is None:
                self._dead -= 1  # a cancelled timer: not an event
                continue
            self._now = when
            self.events_processed += 1
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event.defused:
                raise event._value
        return None
