"""The process-pair: NonStop's unit of fault-tolerant service.

"An I/O process-pair consists of two cooperating processes which run in
two processors ... The primary process sends the backup process
'checkpoints' ... which ensure that the backup process has all the
information that it would need in the event of failure to assume control
... and carry through to completion any operation initiated by the
primary."  (paper, §The Tandem Operating System)

:class:`ProcessPair` is the generic mechanism: subclasses implement
``handle`` (the server loop body) and call ``checkpoint`` to replicate
whatever state the backup would need.  The pair:

* runs the primary server loop in one CPU and keeps a passive backup
  image in another;
* promotes the backup to primary when the primary's CPU fails (state is
  the last checkpointed image — exactly the paper's semantics: anything
  not yet checkpointed is lost, so subclasses checkpoint *before*
  exposing effects, the discipline that substitutes for Write-Ahead-Log);
* recruits a replacement backup CPU after a takeover, or runs
  *unprotected* when no CPU is available, re-protecting when one returns;
* is *down* only when both CPUs fail before a new backup was recruited —
  the multi-module failure that §ROLLFORWARD exists for.

Value semantics: a pair state maps names to *tables* (dicts) or to
immutable values, and every value a table holds is immutable once
checkpointed (record images, copy-on-write blocks, frozen carriers,
tuples, scalars).  The backup can therefore share what a checkpoint
carries instead of copying it, and copying a whole state (takeover,
backup adoption, restart) copies only the table dicts themselves — see
:meth:`ProcessPair.copy_state`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from ..sim import Tracer
from .message import Message
from .process import NodeOs, OsProcess

__all__ = ["ProcessPair", "PairDown"]


class PairDown(Exception):
    """Both halves of a process-pair are gone (multi-module failure)."""


class ProcessPair:
    """A named, fault-tolerant server replicated across two CPUs."""

    def __init__(
        self,
        node_os: NodeOs,
        name: str,
        primary_cpu: int,
        backup_cpu: int,
        tracer: Optional[Tracer] = None,
        allowed_cpus: Optional[Any] = None,
    ):
        if primary_cpu == backup_cpu:
            raise ValueError("primary and backup must run in distinct CPUs")
        self.node_os = node_os
        self.env = node_os.env
        self.name = name
        self.tracer = tracer
        # An I/O process-pair can only run in the CPUs physically
        # connected to its device (None = any CPU, e.g. TCPs and TMPs).
        self.allowed_cpus = set(allowed_cpus) if allowed_cpus is not None else None
        self.state: Dict[str, Any] = {}
        self.backup_state: Dict[str, Any] = {}
        self.primary_cpu: Optional[int] = primary_cpu
        self.backup_cpu: Optional[int] = backup_cpu
        self.takeovers = 0
        self.checkpoints_sent = 0
        self._apply_state_defaults()
        self.primary_process: Optional[OsProcess] = node_os.spawn(
            name, primary_cpu, self._serve
        )
        for cpu in node_os.node.cpus:
            cpu.watch_failure(self._on_cpu_failure)
            cpu.watch_restore(self._on_cpu_restore)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        """True while a primary is serving requests."""
        return (
            self.primary_process is not None
            and self.primary_process.alive
        )

    @property
    def protected(self) -> bool:
        """True while a backup CPU stands by."""
        return self.backup_cpu is not None

    @property
    def node_name(self) -> str:
        return self.node_os.node.name

    # ------------------------------------------------------------------
    # Server loop
    # ------------------------------------------------------------------
    def _serve(self, proc: OsProcess) -> Generator:
        self.on_start(proc)
        while True:
            message = yield from proc.receive()
            yield from self.handle(proc, message)

    def handle(self, proc: OsProcess, message: Message) -> Generator:
        """Process one request.  Subclasses must implement this."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator

    def on_start(self, proc: OsProcess) -> None:
        """Hook: a (new) primary is about to start serving."""

    def state_defaults(self) -> Dict[str, Any]:
        """Tables/keys that must exist in ``self.state`` at all times.

        Re-applied whenever the state is replaced (takeover, restart),
        so a takeover that precedes the first checkpoint still finds its
        tables.
        """
        return {}

    def _apply_state_defaults(self) -> None:
        for key, value in self.state_defaults().items():
            self.state.setdefault(key, value)

    def on_takeover(self) -> None:
        """Hook: state has been replaced by the checkpointed image."""

    def on_pair_down(self) -> None:
        """Hook: both halves are dead."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @staticmethod
    def copy_state(state: Dict[str, Any]) -> Dict[str, Any]:
        """One process's copy of a pair state: new tables, shared values."""
        return {
            key: dict(value) if value.__class__ is dict else value
            for key, value in state.items()
        }

    def checkpoint(self, _charge: bool = True, **entries: Any) -> Generator:
        """Replicate ``entries`` of ``self.state`` to the backup image.

        Costs one interprocessor checkpoint message (``_charge=False``
        piggybacks on the preceding checkpoint in the same operation and
        costs nothing extra).  A table (dict) entry is copied, so the
        primary's later changes to its own table stay its own; any other
        value is immutable and shared.
        """
        for key, value in entries.items():
            self.state[key] = value
        if self.backup_cpu is not None:
            if _charge:
                # A checkpoint is an interprocessor message: it occupies
                # a bus for its duration.
                node = self.node_os.node
                latency = node.latencies.checkpoint
                node.buses.record_transfer(latency)
                yield self.env.timeout(latency)
                self.checkpoints_sent += 1
                metrics = self.env.metrics
                if metrics is not None and metrics.enabled:
                    metrics.inc("pair.checkpoints")
                if self.tracer is not None:
                    self._trace("checkpoint", keys=sorted(entries))
            self.backup_state.update(self.copy_state(entries))

    def checkpoint_update(
        self,
        table: str,
        updates: Optional[Dict[Any, Any]] = None,
        removals: Any = (),
        _charge: bool = True,
    ) -> Generator:
        """Delta-checkpoint entries of the dict ``self.state[table]``.

        Applies ``updates`` and ``removals`` to the primary's table and
        mirrors them into the backup image, at the cost of a single
        checkpoint message (``_charge=False`` piggybacks).  The updated
        values are immutable and shared by reference.
        Used for large tables (dirty blocks, lock grants, duplicate-
        suppression entries) where re-copying the whole table per
        operation would be wrong.
        """
        table_state = self.state.setdefault(table, {})
        if updates:
            table_state.update(updates)
        for key in removals:
            table_state.pop(key, None)
        if self.backup_cpu is not None:
            if _charge:
                node = self.node_os.node
                latency = node.latencies.checkpoint
                node.buses.record_transfer(latency)
                yield self.env.timeout(latency)
                self.checkpoints_sent += 1
                metrics = self.env.metrics
                if metrics is not None and metrics.enabled:
                    metrics.inc("pair.checkpoints")
                if self.tracer is not None:
                    self._trace("checkpoint", table=table)
            backup_table = self.backup_state.setdefault(table, {})
            if updates:
                backup_table.update(updates)
            for key in removals:
                backup_table.pop(key, None)

    def checkpoint_multi(
        self,
        parts: Any,
        scalars: Optional[Dict[str, Any]] = None,
        _charge: bool = True,
    ) -> Generator:
        """Delta-checkpoint several tables (plus scalars) in one message.

        ``parts`` is a sequence of ``(table, updates, removals)``.
        Semantically equivalent to one :meth:`checkpoint_update` per part
        plus a :meth:`checkpoint` of the scalars, but the whole
        multi-part payload costs a *single* checkpoint message — the
        coalescing the real pairs did: one IPC carries every delta an
        operation produced.
        """
        for table, updates, removals in parts:
            table_state = self.state.setdefault(table, {})
            if updates:
                table_state.update(updates)
            for key in removals:
                table_state.pop(key, None)
        if scalars:
            for key, value in scalars.items():
                self.state[key] = value
        if self.backup_cpu is not None:
            if _charge:
                node = self.node_os.node
                latency = node.latencies.checkpoint
                node.buses.record_transfer(latency)
                yield self.env.timeout(latency)
                self.checkpoints_sent += 1
                metrics = self.env.metrics
                if metrics is not None and metrics.enabled:
                    metrics.inc("pair.checkpoints")
                if self.tracer is not None:
                    self._trace(
                        "checkpoint",
                        tables=[table for table, _u, _r in parts],
                    )
            backup_state = self.backup_state
            for table, updates, removals in parts:
                backup_table = backup_state.setdefault(table, {})
                if updates:
                    backup_table.update(updates)
                for key in removals:
                    backup_table.pop(key, None)
            if scalars:
                backup_state.update(scalars)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_cpu_failure(self, cpu) -> None:
        if cpu.number == self.primary_cpu:
            self._takeover()
        elif cpu.number == self.backup_cpu:
            self._lose_backup()

    def _on_cpu_restore(self, cpu) -> None:
        if self.backup_cpu is None and self.available:
            if cpu.number != self.primary_cpu and (
                self.allowed_cpus is None or cpu.number in self.allowed_cpus
            ):
                self._adopt_backup(cpu.number)

    def _takeover(self) -> None:
        failed_cpu = self.primary_cpu
        self.primary_cpu = None
        self.primary_process = None
        if self.backup_cpu is None or not self.node_os.node.cpus[self.backup_cpu].up:
            self.backup_cpu = None
            self._trace("pair_down", last_cpu=failed_cpu)
            self.on_pair_down()
            return
        # Promote: the backup's knowledge is exactly the checkpointed image.
        self.takeovers += 1
        self.primary_cpu, self.backup_cpu = self.backup_cpu, None
        self.state = self.copy_state(self.backup_state)
        self._apply_state_defaults()
        self.on_takeover()
        self.primary_process = self.node_os.spawn(
            self.name, self.primary_cpu, self._serve
        )
        self._trace("takeover", new_primary_cpu=self.primary_cpu)
        replacement = self._pick_backup_cpu()
        if replacement is not None:
            self._adopt_backup(replacement)

    def _lose_backup(self) -> None:
        self.backup_cpu = None
        self._trace("backup_lost")
        replacement = self._pick_backup_cpu()
        if replacement is not None and self.available:
            self._adopt_backup(replacement)

    def _pick_backup_cpu(self) -> Optional[int]:
        exclude = [self.primary_cpu] if self.primary_cpu is not None else []
        candidate = self.node_os.pick_cpu(exclude=exclude)
        if candidate is None:
            return None
        if self.allowed_cpus is not None:
            allowed = [
                n
                for n in self.node_os.alive_cpu_numbers()
                if n in self.allowed_cpus and n not in exclude
            ]
            return allowed[0] if allowed else None
        return candidate

    def _adopt_backup(self, cpu_number: int) -> None:
        self.backup_cpu = cpu_number
        self.backup_state = self.copy_state(self.state)
        self._trace("backup_adopted", cpu=cpu_number)

    def restart(self, primary_cpu: int, backup_cpu: Optional[int] = None) -> None:
        """Cold-start a fully-dead pair (used by node-recovery procedures).

        The state is whatever survived in the checkpointed image; for a
        DISCPROCESS the caller is responsible for running volume recovery
        (ROLLFORWARD) before trusting the data base.
        """
        if self.available:
            raise RuntimeError(f"pair {self.name} is still available")
        self.primary_cpu = primary_cpu
        self.state = self.copy_state(self.backup_state)
        self._apply_state_defaults()
        self.on_takeover()
        self.primary_process = self.node_os.spawn(
            self.name, primary_cpu, self._serve
        )
        if backup_cpu is not None and backup_cpu != primary_cpu:
            self._adopt_backup(backup_cpu)
        else:
            self.backup_cpu = None
        self._trace("pair_restarted", primary_cpu=primary_cpu)

    def _trace(self, kind: str, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, kind, pair=f"{self.node_name}.{self.name}", **fields
            )

    def __repr__(self) -> str:
        return (
            f"<ProcessPair {self.node_name}.{self.name} "
            f"primary_cpu={self.primary_cpu} backup_cpu={self.backup_cpu}>"
        )


class ConcurrentPair(ProcessPair):
    """A process-pair that serves requests concurrently.

    The real DISCPROCESS (and TMP) multiplex many outstanding requests;
    a lock wait by one transaction must not stall the unlock that would
    release it.  ``handle`` therefore spawns one sub-coroutine per
    request; subclasses implement :meth:`serve_request`.

    Sub-handlers are killed on primary failure (their in-progress work
    is exactly what the checkpoint discipline makes recoverable).
    """

    def __init__(self, *args: Any, **kwargs: Any):
        self._active_handlers: set = set()
        super().__init__(*args, **kwargs)

    def handle(self, proc: OsProcess, message: Message) -> Generator:
        handler = self.env.process(
            self._run_handler(proc, message),
            name=f"{self.name}.h{message.msg_id}",
        )
        self._active_handlers.add(handler)
        handler.callbacks.append(
            lambda _event: self._active_handlers.discard(handler)
        )
        return
        yield  # pragma: no cover - generator marker

    def _run_handler(self, proc: OsProcess, message: Message) -> Generator:
        hub = self.env.trace
        if hub is None:
            yield from self.serve_request(proc, message)
            return
        # Causal tracing: the sub-handler is one serve span, child of
        # the message's send span.  The span closes even when the
        # handler is killed mid-request (takeover): GeneratorExit runs
        # the finally, and serve_end only emits — it never yields.
        ctx = hub.serve_begin(
            message, node=self.node_name, proc_name=self.name,
            cpu=proc.cpu.number,
        )
        try:
            yield from self.serve_request(proc, message)
        finally:
            hub.serve_end(ctx)

    def serve_request(self, proc: OsProcess, message: Message) -> Generator:
        raise NotImplementedError
        yield  # pragma: no cover - generator marker

    def _kill_handlers(self, reason: str) -> None:
        handlers, self._active_handlers = self._active_handlers, set()
        for handler in handlers:
            handler.kill(reason)

    def on_takeover(self) -> None:
        self._kill_handlers("primary failed")

    def on_pair_down(self) -> None:
        self._kill_handlers("pair down")
