"""Event primitives for the discrete-event simulation kernel.

The kernel follows the SimPy model: a simulation *process* is a Python
generator that yields :class:`Event` objects.  Yielding an event suspends
the process until the event *triggers*; the process is then resumed with
the event's value (or the event's exception is thrown into it).

Only the small subset of machinery needed by this project is implemented:
plain events, timeouts, processes, and ``AnyOf``/``AllOf`` composition.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional

__all__ = [
    "PENDING",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "ProcessKilled",
    "SimulationError",
]


class _Pending:
    """Sentinel for the value of an event that has not yet triggered."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel itself."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary description of why the process was
    interrupted (e.g. the component whose failure woke it up).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Exception):
    """The failure value of a process terminated by :meth:`Process.kill`."""

    def __init__(self, reason: Any = None):
        super().__init__(reason)
        self.reason = reason


class Event:
    """An occurrence at a point in simulated time.

    An event starts *pending*; it may later *succeed* with a value or
    *fail* with an exception.  Callbacks registered on the event run when
    the environment processes it.

    Events are the unit allocation of the hot loop — tens of thousands
    per simulated second — so the whole hierarchy is ``__slots__``-only.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):  # noqa: F821 - forward ref
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Flattened Event.__init__ + env.schedule: a timeout is born
        # triggered, and this constructor runs tens of thousands of
        # times per simulated second.
        self.env = env
        self.callbacks = []
        self._ok = True
        self._value = value
        self.defused = False
        self.delay = delay
        env._eid += 1
        heappush(env._queue, (env._now + delay, 0, env._eid, self))


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that triggers when the generator
    returns (success, with the return value) or raises (failure).
    """

    __slots__ = ("name", "_generator", "_target", "_kill_pending")

    def __init__(self, env: "Environment", generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {generator!r}"
            )
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        self._kill_pending: Optional[Any] = None
        # Kick off the generator at the current simulation time.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self.triggered:
            return
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=-1)

    def kill(self, reason: Any = None) -> None:
        """Terminate the process without resuming it.

        Used to model crash failures: the process simply stops executing.
        The process event fails with :class:`ProcessKilled` but is marked
        ``defused`` so an unobserved kill does not abort the simulation.
        """
        if self.triggered:
            return
        if self.env._active_process is self:
            # A process causing its own CPU's failure kills itself while
            # executing; the generator cannot be closed from within.
            # Defer: it dies at its next yield without being resumed.
            self._kill_pending = reason
            return
        self._detach()
        generator, self._generator = self._generator, None
        if generator is not None:
            generator.close()
        self._ok = False
        self._value = ProcessKilled(reason)
        self.defused = True
        self.env.schedule(self)

    def _detach(self) -> None:
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            if not target.callbacks:
                # The killed process was the only observer: if the target
                # later fails (e.g. a reply error racing the kill), there
                # is nobody left to handle it — don't abort the run.
                target.defused = True

    def _resume(self, event: Event) -> None:
        if self._generator is None:
            return  # killed while a resume was already scheduled
        self._detach()
        self.env._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event.defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._finish(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process crashed
            self._finish(False, exc)
            return
        finally:
            self.env._active_process = None
        if self._kill_pending is not None:
            reason, self._kill_pending = self._kill_pending, None
            generator, self._generator = self._generator, None
            if generator is not None:
                generator.close()
            self._ok = False
            self._value = ProcessKilled(reason)
            self.defused = True
            self.env.schedule(self)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            self._generator.close()
            self._finish(False, exc)
            return
        if target.callbacks is None:
            # Already processed: resume immediately (next step, same time).
            immediate = Event(self.env)
            immediate._ok = target._ok
            immediate._value = target._value
            if not target._ok:
                target.defused = True
            immediate.defused = True
            immediate.callbacks.append(self._resume)
            self.env.schedule(immediate)
        else:
            self._target = target
            target.callbacks.append(self._resume)

    def _finish(self, ok: bool, value: Any) -> None:
        self._generator = None
        self._ok = ok
        self._value = value
        self.env.schedule(self)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name!r} {state}>"


class Condition(Event):
    """Base for events composed of other events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        self._pending = 0
        for event in self.events:
            if self.triggered:
                break  # the rest is released below, never hooked
            if event.callbacks is None:
                self._check(event)
            else:
                self._pending += 1
                event.callbacks.append(self._on_trigger)
        if self.triggered:
            self._release()
        else:
            self._maybe_finish()

    def _on_trigger(self, event: Event) -> None:
        self._pending -= 1
        if not event._ok:
            event.defused = True
        if not self.triggered:
            self._check(event)
            if not self.triggered:
                self._maybe_finish()
            if self.triggered:
                self._release()

    def _release(self) -> None:
        """Unhook from the constituents still pending once triggered.

        A triggered condition ignores its constituents, except that it
        owns their failures: a late failure must not abort the run as
        "unhandled".  Marking them ``defused`` now is exactly what the
        callback would do when they fired, and dropping the callback
        stops a losing constituent — typically a request's deadline
        timer — from keeping this condition, its value dict and the
        winner's value alive until it fires.  No event is added,
        removed or reordered.
        """
        on_trigger = self._on_trigger
        for event in self.events:
            callbacks = event.callbacks
            if callbacks is not None:
                event.defused = True
                while on_trigger in callbacks:
                    callbacks.remove(on_trigger)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _maybe_finish(self) -> None:
        raise NotImplementedError


class AnyOf(Condition):
    """Triggers as soon as any constituent event does.

    Succeeds with a dict mapping each already-triggered event to its value;
    fails if the first triggering event failed.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())

    def _maybe_finish(self) -> None:
        if not self.events:
            self.succeed({})

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self.events
            if event.processed and event._ok
        }


class AllOf(Condition):
    """Triggers when every constituent event has; fails on first failure."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if not event._ok:
            event.defused = True
            self.fail(event._value)

    def _maybe_finish(self) -> None:
        if self._pending == 0:
            self.succeed({event: event._value for event in self.events})
