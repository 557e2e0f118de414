"""Per-layer accounting for the traced run: host self time and counters.

Self time comes from spans recorded *from outside* the program: while
:func:`instrumented` is active, every public function and method of the
runtime packages of ``repro`` is replaced by a wrapper that opens a span
of its package ("layer") around the call.  Most layer entry points are
generator functions that the simulation kernel resumes later, so a call
only creates the generator; the wrapper then hands back a proxy
generator that opens a span around every *resumption* instead.

Spans nest, and :class:`LayerClock` charges each stretch of wall time to
the innermost open span only, so a layer's total is its self time: the
duration of its spans minus the part covered by child spans.  ``sim`` has
a single span, ``Environment.run``; its self time is the time inside the
event loop that no other layer's span covers, which includes the terminal
processes of ``repro.workloads``.  Time outside every span (this
benchmark's own code between drives) is charged to ``bench``.

Counters are read from the layers' public state before and after the
measured phase (:class:`CounterWindow`), so set-up work is excluded.
"""

from __future__ import annotations

import copy
import inspect
import sys
import time
import types
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: runtime packages of ``repro``, in stack order (bottom first).
LAYERS = (
    "sim", "hardware", "guardian", "discprocess", "core", "encompass",
    "measure", "trace",
)
#: pseudo-layer for time outside every layer span.
UNATTRIBUTED = "bench"


class LayerClock:
    """Exclusive (self) wall time per layer over a stack of open spans."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.copies = 0
        self._copy_depth = 0
        self._stack: List[str] = []
        self.reset()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset the clock inside a span")
        self.self_ns = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0)
        self.copies = 0
        self._top = UNATTRIBUTED
        self._mark = time.perf_counter_ns()

    def enter(self, layer: str) -> None:
        now = time.perf_counter_ns()
        self.self_ns[self._top] += now - self._mark
        self._stack.append(self._top)
        self._top = layer
        self._mark = now

    def exit(self) -> None:
        now = time.perf_counter_ns()
        self.self_ns[self._top] += now - self._mark
        self._top = self._stack.pop()
        self._mark = now

    def settle(self) -> None:
        """Charge the time since the last span boundary (call at the end)."""
        self.enter(UNATTRIBUTED)
        self.exit()


def _resumptions(gen: Any, layer: str, clock: LayerClock) -> Iterator:
    """Proxy ``gen``, timing each resumption as a span of ``layer``."""
    value: Any = None
    error: Any = None
    while True:
        clock.enter(layer)
        try:
            yielded = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            clock.exit()
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            clock.enter(layer)
            try:
                gen.close()
            finally:
                clock.exit()
            raise
        except BaseException as exc:  # noqa: BLE001 - forwarded into gen
            value, error = None, exc


def _spanned(fn: Callable, layer: str, clock: LayerClock) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.exit()
        if type(result) is types.GeneratorType:
            return _resumptions(result, layer, clock)
        return result

    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _counted_copy(fn: Callable, clock: LayerClock) -> Callable:
    """Count top-level calls of a deep-copy function (nested ones are not)."""

    def wrapper(obj: Any, *args: Any) -> Any:
        if clock._copy_depth == 0:
            clock.copies += 1
        clock._copy_depth += 1
        try:
            return fn(obj, *args)
        finally:
            clock._copy_depth -= 1

    return wrapper


def _layer_of(module_name: str) -> str:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return ""


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


@contextmanager
def instrumented(clock: LayerClock) -> Iterator[LayerClock]:
    """Wrap every public function of the runtime layers while active.

    Only modules already imported are patched, so import the system
    (``repro.encompass`` and ``repro.apps.banking``) first.  Everything
    is restored on exit.
    """
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, new: Any) -> None:
        patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    modules = [
        module for name, module in sorted(sys.modules.items())
        if name.startswith("repro.") and module is not None
    ]
    originals: Dict[int, Any] = {}
    environment = sys.modules["repro.sim.engine"].Environment
    fast_deepcopy = sys.modules["repro.sim.fastcopy"].fast_deepcopy
    originals[id(fast_deepcopy)] = _counted_copy(fast_deepcopy, clock)
    originals[id(copy.deepcopy)] = _counted_copy(copy.deepcopy, clock)
    try:
        patch(environment, "run", _spanned(environment.run, "sim", clock))
        patch(copy, "deepcopy", originals[id(copy.deepcopy)])
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer in ("", "sim"):
                continue
            for name, value in list(vars(module).items()):
                if not _is_public(name) or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    if issubclass(value, BaseException):
                        continue
                    for attr, member in list(vars(value).items()):
                        if not _is_public(attr):
                            continue
                        if isinstance(member, types.FunctionType):
                            patch(value, attr, _spanned(member, layer, clock))
                        elif isinstance(member, (staticmethod, classmethod)):
                            patch(value, attr, type(member)(
                                _spanned(member.__func__, layer, clock)))
                elif isinstance(value, types.FunctionType):
                    originals[id(value)] = _spanned(value, layer, clock)
        # Module-level functions are rebound wherever they were imported
        # by name, so every caller goes through the wrapper.
        for module in modules:
            if module.__name__ == "repro.sim.fastcopy":
                continue  # its own recursion is nested copying, not calls
            for name, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and isinstance(value, types.FunctionType):
                    patch(module, name, wrapper)
        yield clock
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# ----------------------------------------------------------------------
# Counters read from the layers' public state
# ----------------------------------------------------------------------
class CounterWindow:
    """Layer counters of ``system`` accumulated from construction on.

    Create it after set-up and call :meth:`close` after the measured
    phase.  A takeover rebuilds a DISCPROCESS's cache, so cache tallies
    are summed over every cache object seen, the replaced ones included.
    """

    def __init__(self, system: Any) -> None:
        self.system = system
        self._caches: Dict[int, Any] = {}
        self._before = self._read()

    def close(self) -> Dict[str, float]:
        after = self._read()
        return {name: after[name] - self._before[name] for name in after}

    def _read(self) -> Dict[str, float]:
        system = self.system
        counters = system.tracer.counters
        cluster = system.cluster
        nodes = [cluster.node(name) for name in cluster.node_names]
        disc_processes = list(system.disc_processes.values())
        for dp in disc_processes:
            self._caches.setdefault(id(dp.cache.stats), dp.cache.stats)
        caches = self._caches.values()
        return {
            "sim.events": system.env.events_processed,
            "hardware.disc_reads": sum(
                v.block_reads for node in nodes for v in node.volumes.values()
            ),
            "hardware.disc_writes": sum(
                v.block_writes for node in nodes for v in node.volumes.values()
            ),
            # Disc-arm time the DISCPROCESSes and AUDITPROCESSes charged
            # for physical block I/O (the volumes themselves are timeless).
            "hardware.disc_busy_ms": sum(dp.busy_ms for dp in disc_processes)
            + sum(a.busy_ms for a in system.audit_processes.values()),
            "hardware.bus_transfers": sum(node.buses.transfers for node in nodes),
            "guardian.checkpoints": counters["checkpoint"],
            "guardian.msgs_local": counters["msg_local"],
            "guardian.msgs_network": counters["msg_network"],
            "guardian.takeovers": counters["takeover"],
            "discprocess.audit_batches": sum(
                dp.audit_batches_sent for dp in disc_processes
            ),
            "discprocess.audit_records": sum(
                dp.audit_records_forwarded for dp in disc_processes
            ),
            "discprocess.lock_waits": counters["lock_wait"],
            "discprocess.lock_timeouts": counters["lock_timeout"],
            "discprocess.cache_hits": sum(c.hits for c in caches),
            "discprocess.cache_misses": sum(c.misses for c in caches),
            "core.audit_forces": sum(
                a.forces for a in system.audit_processes.values()
            ),
            "core.state_broadcasts": counters["state_broadcast"],
            "core.phase1_msgs": sum(tmf.phase1_sent for tmf in system.tmf.values()),
            "core.aborts": sum(tmf.aborts for tmf in system.tmf.values()),
            "core.backouts": counters["transaction_backed_out"],
            "encompass.restarts": sum(
                tcp.restarts_total for tcp in system.tcps.values()
            ),
            "trace.records": sum(
                count for kind, count in counters.items()
                if kind.startswith("trace.")
            ),
        }
