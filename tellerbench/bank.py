"""The TELLERBENCH workloads: a simulated bank, driven through the public API.

Every workload is a closed loop of 16 terminals in one process, because
each teller waits for the reply to an input screen before thinking and
sending the next.  One *episode* builds a fresh system, loads it, warms
it up (together the set-up), then drives the measured phase and checks
the bank's books.  The workload seed only shapes the terminal inputs and
think times; the system itself is always built the same way.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.banking import (
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.discprocess import PartitionSpec
from repro.encompass import SystemBuilder
from repro.workloads import LoadResult, run_closed_loop

from layers import CounterWindow, LayerClock, instrumented

# 512 accounts per volume: more than a 64-block cache holds, and below the
# ~1,000 records at which populate_banking's one-request balance scan
# times out.
ACCOUNTS = 1024
BRANCHES = 8
TERMINALS = 16
TELLERS_PER_BRANCH = TERMINALS // BRANCHES
INITIAL_BALANCE = 1000
AMOUNTS = (-20, -5, 5, 10, 25)
CACHE_BLOCKS = 64
SERVERS = 4
RESTART_LIMIT = 16
THINK_MS = 10.0
WARMUP_MS = 1000.0
#: the commit-gap statistic looks at the measured phase in slices this long
#: (rounded so that whole slices fill each window).
GAP_SLICE_MS = 1000.0
SYSTEM_SEED = 1981
#: the p99 of fewer samples is too close to the maximum to be a percentile.
MIN_P99_SAMPLES = 1000


class CheckFailed(Exception):
    """An output check of the benchmark failed; no result may be printed."""


@dataclass(frozen=True)
class Workload:
    name: str
    program: str            # "post" (debit/credit) or "inquiry"
    network: bool           # three nodes, probes on, one remote CPU failure
    window_ms: float        # one closed-loop drive of the measured phase
    windows: int            # windows per episode
    episodes: int           # distinct input sets per run


# Why each workload exists is in BENCHMARK.json and README.md.  Windows
# are several times the workload's p99 latency, so the drain at each
# window's end is a small part of it.  Episodes x windows is sized so that
# a run pools enough simulated samples for steady percentiles, and enough
# wall time (about half a minute) that the host's slow and fast phases
# average out in host_commits_per_s.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("teller_post", program="post", network=False,
                 window_ms=2_000.0, windows=14, episodes=4),
        Workload("balance_inquiry", program="inquiry", network=False,
                 window_ms=1_000.0, windows=40, episodes=3),
        Workload("branch_network", program="post", network=True,
                 window_ms=5_000.0, windows=4, episodes=9),
    )
}


@dataclass
class Window:
    """One closed-loop drive of the measured phase."""

    wall_s: float
    committed: int
    attempted: int
    latencies_ms: List[float]
    duration_ms: float
    max_gaps_ms: List[float]    # per 1 s slice: longest commit-free stretch


@dataclass
class Episode:
    """What one episode measured, simulated and host side."""

    setup_s: float
    setup_state: Tuple[Any, ...]
    windows: List[Window]
    counters: Dict[str, float]
    #: traced episodes only: host self time per layer (ns) and top-level
    #: deep copies, over the measured phase.
    self_ns: Optional[Dict[str, int]] = None
    copies: int = 0

    @property
    def wall_s(self) -> float:
        return sum(w.wall_s for w in self.windows)

    @property
    def committed(self) -> int:
        return sum(w.committed for w in self.windows)

    @property
    def attempted(self) -> int:
        return sum(w.attempted for w in self.windows)

    def fingerprint(self) -> Tuple[Any, ...]:
        """Everything simulated: equal for two runs of one seed."""
        return (
            self.setup_state,
            tuple((w.committed, w.attempted, tuple(w.latencies_ms),
                   w.duration_ms, tuple(w.max_gaps_ms)) for w in self.windows),
            tuple(sorted(self.counters.items())),
        )


# ----------------------------------------------------------------------
# The bank
# ----------------------------------------------------------------------
def inquiry_program(replies: List[int]) -> Callable:
    """A screen program for one unlocked balance inquiry, as a TMF unit."""

    def program(ctx: Any, data: Dict[str, Any]):
        reply = yield from ctx.send_ok(
            "$bank", {"op": "balance", "account_id": data["account_id"]}
        )
        replies.append(reply["balance"])
        return reply["balance"]

    return program


def build(workload: Workload, latencies: Any = None) -> Tuple[Any, List[int]]:
    """A loaded bank for ``workload``: (system, inquiry replies).

    The terminals, TCP, branch, teller and history files live on ``n1``.
    """
    if workload.network:
        builder = SystemBuilder(
            seed=SYSTEM_SEED, latencies=latencies, keep_trace=False,
            measure=True, trace=True, watchdog=True,
        )
        nodes = ("n1", "n2", "n3")
        for node in nodes:
            builder.add_node(node, cpus=4)
            builder.add_volume(node, "$data", cpus=(0, 1),
                               cache_capacity=CACHE_BLOCKS)
        step = -(-ACCOUNTS // len(nodes))
        partitions = tuple(
            PartitionSpec(node, "$data", low_key=(i * step,) if i else None)
            for i, node in enumerate(nodes)
        )
        meta = history = PartitionSpec("n1", "$data")
    else:
        builder = SystemBuilder(seed=SYSTEM_SEED, latencies=latencies,
                                keep_trace=False)
        builder.add_node("n1", cpus=4)
        for name, cpus in (("$data0", (0, 1)), ("$data1", (1, 0))):
            builder.add_volume("n1", name, cpus=cpus,
                               cache_capacity=CACHE_BLOCKS)
        partitions = (
            PartitionSpec("n1", "$data0"),
            PartitionSpec("n1", "$data1", low_key=(ACCOUNTS // 2,)),
        )
        meta, history = PartitionSpec("n1", "$data0"), PartitionSpec("n1", "$data1")
    install_banking(
        builder, "n1", meta.volume, server_instances=SERVERS,
        data_partitions=partitions, meta_partition=meta,
        history_partition=history,
    )
    # Generous, so that a unit caught in the takeover's lock timeouts still
    # commits: at 8 restarts about one unit in 50,000 gave up.
    builder.add_tcp("n1", "$tcp1", cpus=(2, 3), restart_limit=RESTART_LIMIT)
    replies: List[int] = []
    program = (debit_credit_program if workload.program == "post"
               else inquiry_program(replies))
    builder.add_program("n1", "$tcp1", workload.program, program)
    for index in range(TERMINALS):
        builder.add_terminal("n1", "$tcp1", f"T{index}", workload.program)
    system = builder.build()
    populate_banking(system, "n1", branches=BRANCHES,
                     tellers_per_branch=TELLERS_PER_BRANCH,
                     accounts=ACCOUNTS, initial_balance=INITIAL_BALANCE)
    return system, replies


class Inputs:
    """The terminal inputs of one phase, generated from the seed.

    Each terminal has its own stream, so input ``i`` of a terminal is the
    same however the terminals interleave in simulated time.
    """

    def __init__(self, workload: Workload, key: str):
        self.workload = workload
        self.key = key
        self._made: Dict[str, List[Dict[str, Any]]] = {}
        self._rngs: Dict[str, random.Random] = {}

    def _make(self, rng: random.Random, terminal: str) -> Dict[str, Any]:
        account = rng.randrange(ACCOUNTS)
        if self.workload.program == "inquiry":
            return {"account_id": account}
        teller = int(terminal[1:])
        return {
            "account_id": account,
            "teller_id": teller,
            "branch_id": teller // TELLERS_PER_BRANCH,
            "amount": rng.choice(AMOUNTS),
            "allow_overdraft": True,
        }

    def __call__(self, _rng: Any, terminal: str, iteration: int) -> Dict[str, Any]:
        made = self._made.setdefault(terminal, [])
        if iteration >= len(made):
            rng = self._rngs.setdefault(
                terminal, random.Random(f"{self.key}:{terminal}")
            )
            while iteration >= len(made):
                made.append(self._make(rng, terminal))
        return made[iteration]


def _drive(system: Any, workload: Workload, key: str, duration: float) -> LoadResult:
    return run_closed_loop(
        system, "n1", "$tcp1", [f"T{i}" for i in range(TERMINALS)],
        Inputs(workload, key), duration=duration, think_time=THINK_MS,
        rng=random.Random(f"{key}:think"),
    )


def _fail_remote_cpu(system: Any, at: float, outage: float) -> None:
    """Fail CPU 0 of ``n2`` (its DISCPROCESS primary) and restore it."""

    def chaos(proc: Any):
        yield system.env.timeout(at)
        system.cluster.node("n2").fail_cpu(0)
        yield system.env.timeout(outage)
        system.cluster.node("n2").restore_cpu(0)

    system.spawn("n1", "$chaos", chaos, cpu=0)


# ----------------------------------------------------------------------
# One episode
# ----------------------------------------------------------------------
def _key(workload: Workload, seed: int, index: int) -> str:
    return f"tellerbench:{workload.name}:{seed}:{index}"


def set_up(workload: Workload, seed: int, index: int,
           latencies: Any = None) -> Tuple[float, Any, Tuple[Any, ...], LoadResult, List[int]]:
    """Build, load and warm up: (seconds, system, state, warm-up, replies).

    ``state`` is the simulated outcome of the set-up, for replay checks.
    """
    # Earlier episodes' garbage is collected here, untimed, so that every
    # set-up starts from the same collector state.
    gc.collect()
    started = time.perf_counter()
    system, replies = build(workload, latencies)
    warmup = _drive(system, workload, f"{_key(workload, seed, index)}:warmup",
                    WARMUP_MS)
    setup_s = time.perf_counter() - started
    state = (
        system.env.now, system.env.events_processed,
        tuple(sorted(system.tracer.counters.items())),
        tuple(m.latency for m in warmup.metrics),
    )
    return setup_s, system, state, warmup, replies


def run_episode(
    workload: Workload,
    seed: int,
    index: int,
    traced: bool = False,
    latencies: Any = None,
) -> Episode:
    """Set up, measure and check one episode of ``workload``.

    With ``traced`` the runtime layers are instrumented for the whole
    episode (bound methods are taken during set-up), and the clock is
    reset when the measured phase starts.
    """
    clock = LayerClock() if traced else None
    if clock is None:
        return _episode(workload, seed, index, None, latencies)
    with instrumented(clock):
        return _episode(workload, seed, index, clock, latencies)


def _episode(workload: Workload, seed: int, index: int,
             clock: Optional[LayerClock], latencies: Any) -> Episode:
    setup_s, system, state, warmup, replies = set_up(
        workload, seed, index, latencies
    )
    counters = CounterWindow(system)
    if workload.network:
        # Mid-run, inside the second window, so every episode has one
        # takeover, one re-protection and the backouts in between.
        _fail_remote_cpu(system, at=workload.window_ms * 1.4,
                         outage=workload.window_ms * 0.4)
    # The set-up's garbage too: otherwise where the collector's passes
    # fall, and how much they scan, differs from run to run.
    gc.collect()
    if clock is not None:
        clock.reset()
    windows = []
    for number in range(workload.windows):
        windows.append(_window(system, workload,
                               f"{_key(workload, seed, index)}:{number}"))
    episode = Episode(setup_s, state, windows, {})
    if clock is not None:
        clock.settle()
        episode.self_ns, episode.copies = dict(clock.self_ns), clock.copies
    episode.counters = counters.close()
    _check_books(system, workload, warmup.committed + episode.committed, replies)
    return episode


def _window(system: Any, workload: Workload, key: str) -> Window:
    start = system.env.now
    began = time.perf_counter()
    result = _drive(system, workload, key, workload.window_ms)
    wall_s = time.perf_counter() - began
    commits = sorted(m.end for m in result.metrics if m.ok)
    gaps = []
    slices = max(1, round(workload.window_ms / GAP_SLICE_MS))
    width = workload.window_ms / slices
    for number in range(slices):
        low = start + number * width
        high = low + width
        marks = [low] + [t for t in commits if low <= t <= high] + [high]
        gaps.append(max(b - a for a, b in zip(marks, marks[1:])))
    return Window(
        wall_s=wall_s,
        committed=result.committed,
        attempted=len(result.metrics),
        latencies_ms=[m.latency for m in result.metrics if m.ok],
        duration_ms=result.duration,
        max_gaps_ms=gaps,
    )


def _check_books(system: Any, workload: Workload, units: int,
                 replies: List[int]) -> None:
    """The bank's assertions, plus one history row per committed posting.

    ``units`` counts every committed unit since the load, warm-up included.
    """
    report = check_consistency(system, "n1")
    if not report["consistent"]:
        raise CheckFailed(f"{workload.name}: books inconsistent: {report}")
    if report["accounts"] != ACCOUNTS:
        raise CheckFailed(f"{workload.name}: {report['accounts']} accounts")
    if report["account_total"] != ACCOUNTS * INITIAL_BALANCE + report["history_sum"]:
        raise CheckFailed(f"{workload.name}: money created or lost: {report}")
    postings = units if workload.program == "post" else 0
    if report["history_count"] != postings:
        raise CheckFailed(
            f"{workload.name}: {report['history_count']} history rows for "
            f"{postings} committed postings"
        )
    if workload.program == "inquiry":
        if len(replies) < units or any(b != INITIAL_BALANCE for b in replies):
            raise CheckFailed(f"{workload.name}: a balance inquiry read a wrong balance")
    if system.watchdog is not None:
        illegal = [a for a in system.watchdog.alarms
                   if a["reason"] == "illegal_transition"]
        if illegal:
            raise CheckFailed(f"{workload.name}: illegal TMF transitions {illegal[:3]}")
