"""The pinned-seed experiment suite behind ``python -m repro.bench``.

Each experiment reproduces one figure (F1–F4) or claim (E1–E11) of the
paper, parameterized by *scale*: ``smoke`` runs a scaled-down episode
suitable for CI, ``full`` the figure-sized one.  Every experiment returns

``{"counters": {...}, "info": {...}}``

where ``counters`` holds only deterministic integers (exact-compared
against the baseline by :mod:`repro.bench.compare`) and ``info`` holds
advisory numbers (simulated throughput, latencies) that are reported
but never gated on.  An experiment that reproduces a paper table puts
its rows in ``info["tables"]`` (title -> rows); the CLI prints them.

Each experiment also checks the paper's claims about its own episode
(:func:`_claim`): "commits continue during the outage", "every single
failure is survivable", "capacity grows with CPUs".  A broken claim
raises :class:`ClaimFailed` (an ``AssertionError``) naming the
experiment and the claim, at every scale and whatever the baseline
says, so re-recording the baseline cannot accept it.

Seeds are pinned per experiment and must never change casually: the
committed baseline encodes the exact history they produce.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.banking import (
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.apps.manufacturing import MANUFACTURING_NODES, build_manufacturing_system
from repro.apps.order_entry import install_order_entry
from repro.core import (
    LEGAL_TRANSITIONS,
    AuditRecord,
    Rollforward,
    TransactionAborted,
    TxState,
    dump_volume,
)
from repro.discprocess import (
    BoxcarPolicy,
    FileError,
    FileSchema,
    FileUnavailableError,
    KEY_SEQUENCED,
    KeySequencedFile,
    MemoryBlockStore,
    PartitionSpec,
)
from repro.encompass import SystemBuilder, compile_query
from repro.guardian import Cluster, ConcurrentPair
from repro.hardware import Latencies, Network, Node
from repro.sim import Environment
from repro.workloads import KeyChooser, run_closed_loop

__all__ = [
    "ClaimFailed",
    "EXPERIMENTS",
    "determinism_digests",
    "run_experiment",
    "run_suite",
]

SMOKE = "smoke"


class ClaimFailed(AssertionError):
    """A paper claim did not hold in the experiment's own run."""


def _claim(ok: Any, claim: str) -> None:
    """Check one paper claim; ``run_experiment`` names the experiment."""
    if not ok:
        raise ClaimFailed(claim)


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def _build_banking(
    seed: int,
    cpus: int = 4,
    volumes: int = 1,
    accounts: int = 24,
    branches: int = 2,
    tellers: int = 8,
    terminals: int = 8,
    keep_trace: bool = False,
    cache_capacity: int = 256,
    restart_limit: int = 8,
    **options: Any,
) -> Tuple[Any, List[str]]:
    builder = SystemBuilder(seed=seed, keep_trace=keep_trace, **options)
    builder.add_node("alpha", cpus=cpus)
    cpu_pairs = [(c, c + 1) for c in range(0, cpus - 1, 2)]
    volume_names = []
    for v in range(volumes):
        pair = cpu_pairs[v % len(cpu_pairs)]
        name = f"$data{v}" if volumes > 1 else "$data"
        builder.add_volume("alpha", name, cpus=pair, cache_capacity=cache_capacity)
        volume_names.append(name)
    if volumes == 1:
        install_banking(builder, "alpha", "$data", server_instances=3)
    else:
        account_volumes = volume_names[2:] if volumes > 2 else volume_names
        step = max(accounts // len(account_volumes), 1)
        partitions = [PartitionSpec("alpha", account_volumes[0])]
        for index in range(1, len(account_volumes)):
            partitions.append(
                PartitionSpec(
                    "alpha", account_volumes[index], low_key=(index * step,)
                )
            )
        install_banking(
            builder, "alpha", volume_names[0],
            server_instances=3,
            data_partitions=tuple(partitions),
            meta_partition=PartitionSpec("alpha", volume_names[0]),
            history_partition=PartitionSpec("alpha", volume_names[1 % volumes]),
        )
    tcp_cpus = (cpus - 2, cpus - 1)
    builder.add_tcp("alpha", "$tcp1", cpus=tcp_cpus, restart_limit=restart_limit)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminal_ids = [f"T{i}" for i in range(terminals)]
    for terminal in terminal_ids:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=branches,
                     tellers_per_branch=tellers // branches, accounts=accounts)
    return system, terminal_ids


def _build_transfer(seed, accounts, restart_limit, lock_timeout, hold):
    """Transfers between two random accounts, each locked at read time in
    request order: a deadlock generator (E4's ablation, E8)."""
    builder = SystemBuilder(seed=seed, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=4)

    def transfer_server(ctx, request):
        a = yield from ctx.read("account", (request["a"],), lock=True,
                                lock_timeout=lock_timeout)
        yield from ctx.pause(hold)
        b = yield from ctx.read("account", (request["b"],), lock=True,
                                lock_timeout=lock_timeout)
        a["balance"] -= 1
        b["balance"] += 1
        yield from ctx.update("account", a)
        yield from ctx.update("account", b)
        return {"ok": True}

    def transfer_program(ctx, data):
        yield from ctx.send_ok("$xfer", data)
        return True

    builder.add_server_class("alpha", "$xfer", transfer_server, instances=4)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=restart_limit)
    builder.add_program("alpha", "$tcp1", "transfer", transfer_program)
    terminals = [f"T{i}" for i in range(6)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "transfer")
    system = builder.build()
    populate_banking(system, "alpha", branches=1, tellers_per_branch=1,
                     accounts=accounts)
    return system, terminals


def _ledger(name: str, node: str) -> FileSchema:
    """An audited key-sequenced file on ``node``'s ``$data`` volume."""
    return FileSchema(name=name, organization=KEY_SEQUENCED,
                      primary_key=("entry",), audited=True,
                      partitions=(PartitionSpec(node, "$data"),))


def _banking_input(accounts: int, branches: int = 2, tellers: int = 8,
                   amounts: Tuple[int, ...] = (5, 10, 25, -5)):
    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(accounts),
            "teller_id": rng.randrange(tellers),
            "branch_id": rng.randrange(branches),
            "amount": rng.choice(amounts),
            "allow_overdraft": True,
        }

    return make_input


def _drive(system, terminals, duration, accounts, seed=5, think_time=15.0,
           branches=2, tellers=8):
    return run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        _banking_input(accounts, branches=branches, tellers=tellers),
        duration=duration, think_time=think_time, rng=random.Random(seed),
    )


def _run(system, node, body, *, name, cpu=0):
    """Run ``body`` as a process on ``node`` to completion; its result."""
    proc = system.spawn(node, name, body, cpu=cpu)
    return system.cluster.run(proc.sim_process)


def _settle(system, ms=1000.0, node="alpha"):
    _run(system, node, lambda p: (yield system.env.timeout(ms)), name="$settle")


def _base_counters(system) -> Dict[str, int]:
    """Deterministic counters every full-system experiment reports."""
    tracer = system.tracer
    return {
        "events": int(system.env.events_processed),
        "msg_local": int(tracer.counters["msg_local"]),
        "msg_network": int(tracer.counters["msg_network"]),
        "commits": sum(t.commits for t in system.tmf.values()),
        "aborts": sum(t.aborts for t in system.tmf.values()),
        "audit_forces": sum(
            a.forced_block_writes for a in system.audit_processes.values()
        ),
    }


def _consistent(system, node="alpha") -> int:
    return int(bool(check_consistency(system, node)["consistent"]))


# ----------------------------------------------------------------------
# E1 — online recovery through a CPU outage
# ----------------------------------------------------------------------
def _e1_episode(fail_cpu: int, duration: float):
    fail_at, restore_at = 1000.0, 1800.0
    system, terminals = _build_banking(seed=41, accounts=32, terminals=8)

    def chaos(proc):
        yield system.env.timeout(fail_at)
        system.cluster.node("alpha").fail_cpu(fail_cpu)
        yield system.env.timeout(restore_at - fail_at)
        system.cluster.node("alpha").restore_cpu(fail_cpu)

    system.spawn("alpha", "$chaos", chaos, cpu=(fail_cpu + 1) % 4)
    result = _drive(system, terminals, duration=duration, accounts=32)
    _settle(system)
    windows = Counter(
        "before" if m.end < fail_at else "during" if m.end < restore_at
        else "after"
        for m in result.metrics if m.ok
    )
    by_failure = [r for r in system.tmf["alpha"].records.values()
                  if r.done == "aborted"
                  and f"cpu {fail_cpu} failed" in (r.abort_reason or "")]
    counters = _base_counters(system)
    row = {
        "failed_cpu": fail_cpu,
        "committed": result.committed,
        "failed": result.failed,
        "commits_before": windows["before"],
        "commits_during_outage": windows["during"],
        "commits_after": windows["after"],
        "aborted_by_failure": len(by_failure),
        "consistent": _consistent(system),
    }
    _claim(row["consistent"], f"cpu {fail_cpu} outage: database consistent")
    _claim(min(windows["before"], windows["during"], windows["after"]) > 0,
           f"cpu {fail_cpu} outage: no system halt — commits before, "
           f"during and after the outage")
    _claim(all(r.origin_cpu == fail_cpu for r in by_failure),
           f"cpu {fail_cpu} outage: only transactions begun in the failed "
           f"CPU are backed out")
    return counters, row


def e1_online_recovery(scale: str) -> Dict[str, Any]:
    duration = 3000.0 if scale == SMOKE else 6000.0
    # CPU 0 hosts the DISCPROCESS primary; CPU 2 the TCP/TMP/audit ones.
    counters, row = _e1_episode(0, duration)
    _, row2 = _e1_episode(2, duration)
    counters.update({k: v for k, v in row.items() if k != "failed_cpu"})
    counters.update({f"{k}_cpu2": v for k, v in row2.items() if k != "failed_cpu"})
    _claim(row2["aborted_by_failure"] > 0,
           "the TCP/TMP CPU's failure backs out its in-flight transactions")
    return {"counters": counters, "info": {"tables": {
        "E1: commits across an 800 ms CPU outage": [row, row2]}}}


# ----------------------------------------------------------------------
# E2 — checkpoint-instead-of-WAL accounting
# ----------------------------------------------------------------------
def e2_checkpoint_vs_wal(scale: str) -> Dict[str, Any]:
    duration = 2000.0 if scale == SMOKE else 5000.0
    system, terminals = _build_banking(seed=47, accounts=64, terminals=8)
    result = _drive(system, terminals, duration=duration, accounts=64)
    _settle(system)
    dp = system.disc_processes[("alpha", "$data")]
    audit = system.audit_processes["alpha"]
    durable = {r.transid for r in audit.trail.scan_all()
               if isinstance(r, AuditRecord)}
    committed = [transid for transid, disposition
                 in system.tmf["alpha"].dispositions.items()
                 if disposition == "committed"]
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        checkpoints=dp.checkpoints_sent,
        audit_records=dp.state["audit_seq"],
        committed_not_durable=sum(t not in durable for t in committed),
    )
    # Protection cost of the same operation stream under both
    # disciplines: TMF pays a checkpoint per update plus the forced
    # (group-committed) audit blocks; WAL forces every audit image.
    lat = system.cluster.latencies
    commit_records = counters["commits"] + counters["aborts"]
    rows = []
    for label, disc_ms in (("1981 disc (25 ms)", lat.disc_write),
                           ("fast disc (2.5 ms)", lat.disc_write / 10),
                           ("near-IPC disc (0.25 ms)", lat.disc_write / 100)):
        tmf_ms = (counters["checkpoints"] * lat.checkpoint
                  + (counters["audit_forces"] + commit_records) * disc_ms / 2)
        wal_ms = (counters["audit_records"] + commit_records) * disc_ms / 2
        rows.append({"disc": label, "tmf_protection_ms": tmf_ms,
                     "wal_protection_ms": wal_ms, "wal_over_tmf": wal_ms / tmf_ms})
    _claim(result.committed > 50, "the load commits transactions")
    _claim(counters["audit_forces"] < counters["audit_records"],
           "group commit forces fewer audit blocks than one per update")
    _claim(rows[0]["wal_over_tmf"] > 2.0,
           "with 1981 discs checkpointing protects updates far cheaper than WAL")
    _claim(rows[2]["wal_over_tmf"] < rows[0]["wal_over_tmf"],
           "the checkpoint advantage shrinks as discs approach IPC speed")
    _claim(committed and counters["committed_not_durable"] == 0,
           "every committed transaction's audit is on the durable trail")
    return {"counters": counters, "info": {
        "tx_per_s": result.throughput,
        "tables": {"E2: checkpoint vs Write-Ahead-Log protection cost": rows},
    }}


# ----------------------------------------------------------------------
# E3 — commit cost vs participating nodes
# ----------------------------------------------------------------------
def e3_commit_protocols(scale: str) -> Dict[str, Any]:
    per_shape = 3 if scale == SMOKE else 10
    builder = SystemBuilder(seed=53)
    nodes = ("n1", "n2", "n3", "n4", "n5")
    for name in nodes:
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    for name in nodes:
        builder.define_file(_ledger(f"ledger.{name}", name))
    system = builder.build()
    tmf = system.tmf["n1"]
    client = system.clients["n1"]
    counters: Dict[str, int] = {}
    rows = []
    for shape, touch in enumerate(
        (["n1"], ["n1", "n2"], ["n1", "n2", "n3"]), start=1
    ):
        before = system.tracer.counters["msg_network"]
        broadcasts = sum(t.broadcaster.broadcasts for t in system.tmf.values())
        end_ms = [0.0]

        def body(proc, touch=touch, shape=shape):
            for i in range(per_shape):
                transid = yield from tmf.begin(proc)
                for node in touch:
                    yield from client.insert(
                        proc, f"ledger.{node}",
                        {"entry": i + 1000 * shape, "value": i},
                        transid=transid,
                    )
                start = system.env.now
                yield from tmf.end(proc, transid)
                end_ms[0] += system.env.now - start
            yield system.env.timeout(1500)  # drain safe-delivery phase 2

        _run(system, "n1", body, name=f"$run{shape}")
        counters[f"net_msgs_{shape}node"] = (
            system.tracer.counters["msg_network"] - before)
        counters[f"broadcasts_{shape}node"] = sum(
            t.broadcaster.broadcasts for t in system.tmf.values()) - broadcasts
        rows.append({
            "participating_nodes": shape,
            "end_latency_ms": end_ms[0] / per_shape,
            "network_msgs_per_tx": counters[f"net_msgs_{shape}node"] / per_shape,
            "state_broadcasts_per_tx": counters[f"broadcasts_{shape}node"] / per_shape,
        })
    counters.update(_base_counters(system))
    _claim(rows[0]["network_msgs_per_tx"] == 0,
           "the single-node abbreviated commit sends no network messages")
    _claim(rows[1]["end_latency_ms"] > rows[0]["end_latency_ms"]
           and rows[2]["network_msgs_per_tx"] > rows[1]["network_msgs_per_tx"],
           "distributed commit cost rises with participating nodes")
    _claim(all(abs(row["state_broadcasts_per_tx"] - 3 * row["participating_nodes"])
               <= 0.5 for row in rows),
           "state broadcasts scale with participants (3 per node), not with "
           "the 5-node network")
    return {"counters": counters, "info": {"tables": {
        "E3: commit cost vs participating nodes (5-node network)": rows}}}


# ----------------------------------------------------------------------
# E4 — lock contention under key skew, and timeout deadlock detection
# ----------------------------------------------------------------------
def _e4_skew(skew: float, duration: float):
    system, terminals = _build_banking(seed=59, accounts=16, terminals=8)
    rng = random.Random(61)
    chooser = KeyChooser(rng, 16, skew=skew)

    def make_input(r, terminal_id, iteration):
        return {
            "account_id": chooser.choose(),
            "teller_id": r.randrange(8),
            "branch_id": r.randrange(2),
            "amount": r.choice([5, 10, -5]),
            "allow_overdraft": True,
        }

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=duration, think_time=10.0, rng=rng,
    )
    _settle(system)
    dp = system.disc_processes[("alpha", "$data")]
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        lock_waits=dp.locks.waits,
        lock_timeouts=dp.locks.timeouts,
        restarts=result.restarts,
        consistent=_consistent(system),
    )
    _claim(counters["consistent"], f"skew {skew}: database consistent")
    row = {"zipf_skew": skew, "tx_per_s": result.throughput,
           "mean_latency_ms": result.mean_latency}
    row.update((k, counters[k]) for k in ("lock_waits", "lock_timeouts", "restarts"))
    return counters, row


def _e4_deadlocks(duration: float) -> Dict[str, int]:
    """Ablation: a waits-for-graph detector sampled beside the timeout
    mechanism on a deadlock-prone transfer load."""
    system, terminals = _build_transfer(seed=67, accounts=6, restart_limit=10,
                                        lock_timeout=120, hold=15)
    dp = system.disc_processes[("alpha", "$data")]
    samples = {"polls": 0, "cycles_seen": 0}

    def detector(proc):
        while proc.alive:
            yield system.env.timeout(25)
            samples["polls"] += 1
            samples["cycles_seen"] += dp.locks.find_deadlock_cycle() is not None

    system.spawn("alpha", "$detect", detector, cpu=0)

    def make_input(r, terminal_id, iteration):
        a, b = r.sample(range(6), 2)
        return {"a": a, "b": b}

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=duration, think_time=5.0, rng=random.Random(71),
    )
    _settle(system)
    counters = {f"wfg_{k}": v for k, v in samples.items()}
    counters.update(wfg_lock_timeouts=dp.locks.timeouts,
                    wfg_committed=result.committed,
                    wfg_consistent=_consistent(system))
    _claim(counters["wfg_cycles_seen"] > 0, "the transfer load deadlocks")
    _claim(counters["wfg_lock_timeouts"] > 0 and counters["wfg_committed"] > 0
           and counters["wfg_consistent"],
           "lock timeouts resolve every deadlock; the load completes consistent")
    return counters


def e4_locking(scale: str) -> Dict[str, Any]:
    duration = 1500.0 if scale == SMOKE else 4000.0
    counters, hot = _e4_skew(1.2, duration)
    uniform_counters, uniform = _e4_skew(0.0, duration)
    hottest_counters, hottest = _e4_skew(2.0, duration)
    for label, extra in (("uniform", uniform_counters), ("zipf2", hottest_counters)):
        counters[f"committed_{label}"] = extra["committed"]
        counters[f"lock_waits_{label}"] = extra["lock_waits"]
    counters.update(_e4_deadlocks(duration))
    _claim(uniform["tx_per_s"] > 0
           and hottest["tx_per_s"] < uniform["tx_per_s"] * 0.92
           and hottest["mean_latency_ms"] > uniform["mean_latency_ms"],
           "hot-record skew serializes on the hot lock: throughput drops "
           "and latency rises against uniform access")
    return {"counters": counters, "info": {"tables": {
        "E4: throughput vs key skew (hot records)": [uniform, hot, hottest]}}}


# ----------------------------------------------------------------------
# E5 — ROLLFORWARD after total node failure
# ----------------------------------------------------------------------
def _volume_contents(dp) -> Dict[str, Any]:
    return {name: dump.content for name, dump in dump_volume(dp).files.items()}


def _e5_episode(post_archive: float):
    system, terminals = _build_banking(seed=73, accounts=48, terminals=6)
    dp = system.disc_processes[("alpha", "$data")]
    _drive(system, terminals, duration=1000.0, accounts=48, seed=1)
    _settle(system)
    archive = dump_volume(dp)
    _drive(system, terminals, duration=post_archive, accounts=48, seed=2)
    _settle(system)
    before_failure = _volume_contents(dp)
    logical_updates = dp.state["audit_seq"]
    data_block_writes = dp.store.counters.writes

    node = system.cluster.node("alpha")
    node.total_failure()
    node.restore_all_cpus()
    system.audit_processes["alpha"].cold_restart(2, 3)
    tmf = system.tmf["alpha"]
    tmf.tmp.restart(2, 3)
    tmf.backout_process.restart(2, 3)
    tmf.reset_after_total_failure()
    dp.cold_restart(0, 1)
    rollforward = Rollforward(tmf)
    rollforward.rebuild_dispositions()
    holder: Dict[str, Any] = {}

    def recover(proc):
        holder["stats"] = yield from rollforward.recover_volume(proc, dp, archive)

    start = system.env.now
    _run(system, "alpha", recover, name="$rf")
    counters = _base_counters(system)
    row = {
        "post_archive_load_ms": post_archive,
        "audit_records": holder["stats"].audit_records_scanned,
        "reapplied": holder["stats"].records_reapplied,
        "recovery_ms": system.env.now - start,
        "exact": int(_volume_contents(dp) == before_failure),
    }
    counters.update(
        audit_scanned=row["audit_records"],
        reapplied=row["reapplied"],
        exact=row["exact"],
        logical_updates=logical_updates,
        data_block_writes=data_block_writes,
        consistent=_consistent(system),
    )
    _claim(row["exact"] and counters["consistent"],
           f"{post_archive:.0f} ms load: ROLLFORWARD rebuilds exactly the "
           f"pre-failure state")
    _claim(data_block_writes < logical_updates / 2,
           "normal processing defers data-block writes (audit carries "
           "durability); restart pays instead")
    return counters, row


def e5_rollforward(scale: str) -> Dict[str, Any]:
    loads = (1000.0, 2000.0) if scale == SMOKE else (1000.0, 3000.0, 6000.0)
    counters, first = _e5_episode(loads[0])
    rows = [first]
    for load in loads[1:]:
        extra, row = _e5_episode(load)
        rows.append(row)
        counters[f"audit_scanned_{load:.0f}ms"] = extra["audit_scanned"]
    _claim(rows[-1]["audit_records"] > first["audit_records"]
           and rows[-1]["recovery_ms"] > first["recovery_ms"],
           "rollforward time grows with the audit written since the archive")
    return {"counters": counters, "info": {"tables": {
        "E5: rollforward vs post-archive audit volume": rows}}}


# ----------------------------------------------------------------------
# E6 — partition and the in-doubt window
# ----------------------------------------------------------------------
def e6_partition(scale: str) -> Dict[str, Any]:
    builder = SystemBuilder(seed=83)
    for name in ("home", "remote"):
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    builder.define_file(_ledger("rledger", "remote"))
    system = builder.build()
    tmf_home = system.tmf["home"]
    tmf_remote = system.tmf["remote"]
    dp_remote = system.disc_processes[("remote", "$data")]
    observations: Dict[str, Any] = {}

    def committer(proc, transid):
        try:
            yield from tmf_home.end(proc, transid)
            observations["home_outcome"] = 1
        except TransactionAborted:
            observations["home_outcome"] = 0

    def body(proc):
        transid = yield from tmf_home.begin(proc)
        yield from system.clients["home"].insert(
            proc, "rledger", {"entry": 1, "value": 9}, transid=transid
        )
        node_os = system.cluster.os("home")
        commit_proc = node_os.spawn(
            "$c", 1, lambda p: committer(p, transid), register=False
        )
        while not tmf_remote.records[transid].phase1_acked:
            yield system.env.timeout(1)
        system.cluster.network.partition(["home"], ["remote"])
        partition_at = system.env.now
        yield commit_proc.sim_process
        yield system.env.timeout(1000)
        observations["locks_during"] = dp_remote.locks.held_count()
        observations["remote_state"] = str(
            tmf_remote.broadcaster.current_state(transid))
        system.cluster.network.heal()
        yield system.env.timeout(2000)
        observations["locks_after"] = dp_remote.locks.held_count()
        observations["remote_done"] = tmf_remote.records[transid].done
        observations["stranded_ms"] = system.env.now - partition_at

    _run(system, "home", body, name="$episode")
    _claim(observations["home_outcome"] == 1
           and observations["locks_during"] > 0
           and observations["remote_state"] == "ending",
           "a participant that acked phase one holds its locks, in doubt, "
           "while cut off")
    _claim(observations["locks_after"] == 0
           and observations["remote_done"] == "committed",
           "after the heal safe delivery commits the participant and frees "
           "its locks")
    counters = _base_counters(system)
    counters.update((k, observations[k])
                    for k in ("home_outcome", "locks_during", "locks_after"))
    return {"counters": counters, "info": {"tables": {
        "E6: in-doubt locks after a phase-1 ack": [observations]}}}


# ----------------------------------------------------------------------
# E7 — structured-file storage: the B-tree, the cache, alternate keys
# ----------------------------------------------------------------------
def _e7_cache(capacity: int, duration: float) -> Dict[str, Any]:
    system, terminals = _build_banking(seed=89, accounts=256, terminals=6,
                                       cache_capacity=capacity)
    _drive(system, terminals, duration=duration, accounts=256)
    dp = system.disc_processes[("alpha", "$data")]
    return {"cache_blocks": capacity, "hit_ratio": dp.cache.stats.hit_ratio,
            "physical_reads": dp.store.counters.reads}


def _e7_index_vs_scan() -> Dict[str, Dict[str, Any]]:
    """'Multi-key access to records': one selective query through the
    query engine, with its alternate key and without (cold cache)."""
    builder = SystemBuilder(seed=119, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1), cache_capacity=8)
    install_order_entry(builder, "alpha", "$data")
    system = builder.build()
    tmf = system.tmf["alpha"]
    client = system.clients["alpha"]
    dp = system.disc_processes[("alpha", "$data")]

    def loader(proc):
        # 400 customers over 80 regions: a region selects 5 rows.
        for start in range(0, 400, 50):
            transid = yield from tmf.begin(proc)
            for cid in range(start, start + 50):
                yield from client.insert(
                    proc, "customer",
                    {"customer_id": cid, "region": f"r{cid % 80}",
                     "name": f"customer {cid}"},
                    transid=transid,
                )
            yield from tmf.end(proc, transid)

    _run(system, "alpha", loader, name="$ld")
    out = {}
    for label, source in (("index", 'FROM customer\nWHERE region = "r7"'),
                          ("scan", 'FROM customer\nWHERE name = "customer 7"')):
        query = compile_query(source, system.dictionary)
        _run(system, "alpha", lambda p: client.flush_volume(p, "$data"),
             cpu=2, name="$fl")
        dp.cache.clear()  # cold cache; all blocks safely on disc
        before = dp.store.counters.reads
        result = _run(system, "alpha", lambda p: query.execute(p, client),
                      cpu=2, name="$q")
        out[label] = {"plan": query.plan, "rows": len(result.rows),
                      "reads": dp.store.counters.reads - before}
    return out


def e7_storage(scale: str) -> Dict[str, Any]:
    n = 1500 if scale == SMOKE else 5000
    store = MemoryBlockStore()
    tree = KeySequencedFile(store, "t", create=True)
    for i in range(n):
        tree.insert((i,), {"v": i})
    rng = random.Random(7)
    probe = [rng.randrange(n) for _ in range(500)]
    total = 0
    for key in probe:
        total += tree.read((key,))["v"]
    scanned = len(tree.scan(low=(n // 5,), high=(n // 2,)))
    counters = {
        "records": tree.record_count,
        "probe_sum": total,
        "scanned": scanned,
        "block_reads": store.counters.reads,
        "block_writes": store.counters.writes,
    }
    _claim(counters["records"] == n and total == sum(probe)
           and scanned == n // 2 - n // 5 + 1,
           "the key-sequenced B-tree returns every inserted record, by key "
           "and by range")
    sizes = (8, 256) if scale == SMOKE else (8, 32, 256)
    cache_rows = [_e7_cache(size, 1000.0 if scale == SMOKE else 2500.0)
                  for size in sizes]
    counters.update((f"cache_reads_{row['cache_blocks']}blk", row["physical_reads"])
                    for row in cache_rows)
    _claim(cache_rows[0]["hit_ratio"] < cache_rows[-1]["hit_ratio"]
           and cache_rows[0]["physical_reads"] > cache_rows[-1]["physical_reads"],
           "a bigger cache hits more and reads fewer blocks")
    queries = _e7_index_vs_scan()
    for label, query in queries.items():
        counters[f"{label}_query_rows"] = query["rows"]
        counters[f"{label}_query_reads"] = query["reads"]
    _claim(queries["index"]["plan"] == "index-lookup"
           and queries["scan"]["plan"] == "full-scan"
           and queries["index"]["reads"] < queries["scan"]["reads"],
           "an alternate-key query reads fewer blocks than the full scan "
           "the same predicate needs without its index")
    return {"counters": counters, "info": {"tables": {
        "E7: cache size sweep (debit/credit)": cache_rows}}}


# ----------------------------------------------------------------------
# E8 — restart limit under transfer contention
# ----------------------------------------------------------------------
def e8_restart(scale: str) -> Dict[str, Any]:
    duration = 1500.0 if scale == SMOKE else 4000.0
    system, terminals = _build_transfer(seed=97, accounts=5, restart_limit=4,
                                        lock_timeout=100, hold=20)

    def make_input(rng, terminal_id, iteration):
        a, b = rng.sample(range(5), 2)
        return {"a": a, "b": b, "hold": 20}

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=duration, think_time=5.0, rng=random.Random(3),
    )
    _settle(system)
    attempts = Counter(m.attempts for m in result.metrics if m.ok)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        failed=result.failed,
        restarts=result.restarts,
        max_attempts=max(attempts, default=0),
        consistent=_consistent(system),
    )
    _claim(counters["consistent"] and result.committed > 0,
           "restarted transfers leave the database consistent")
    _claim(counters["max_attempts"] > 1, "contention causes automatic restarts")
    rows = [{"attempts": k, "units": v, "share": v / result.committed}
            for k, v in sorted(attempts.items())]
    return {"counters": counters, "info": {"tables": {
        "E8: attempts per committed unit (hot transfers)": rows}}}


# ----------------------------------------------------------------------
# E9 — single-module failure mid-load, for every component
# ----------------------------------------------------------------------
_E9_SWEEP: List[Tuple[str, Callable[[Any], Any]]] = [
    ("cpu0 (DISCPROCESS primary)", lambda node: node.cpus[0]),
    ("cpu1 (DISCPROCESS backup)", lambda node: node.cpus[1]),
    ("cpu2 (TCP/TMP/audit primary)", lambda node: node.cpus[2]),
    ("cpu3 (TCP/TMP/audit backup)", lambda node: node.cpus[3]),
    ("interprocessor bus X", lambda node: node.buses.x),
    ("interprocessor bus Y", lambda node: node.buses.y),
    ("data controller 0", lambda node: node.volumes["$data"].controllers[0]),
    ("data controller 1", lambda node: node.volumes["$data"].controllers[1]),
    ("data drive 0 (mirror)", lambda node: node.volumes["$data"].drives[0]),
    ("data drive 1 (mirror)", lambda node: node.volumes["$data"].drives[1]),
    ("audit drive 0 (mirror)", lambda node: node.volumes["$audvol"].drives[0]),
    ("audit controller 0", lambda node: node.volumes["$audvol"].controllers[0]),
]


def _e9_episode(label, pick, duration, fail_at, down_ms):
    system, terminals = _build_banking(seed=109, accounts=32, terminals=6)
    node = system.cluster.node("alpha")
    component = pick(node)

    def chaos():
        yield system.env.timeout(fail_at)
        component.fail(reason="bench E9")
        yield system.env.timeout(down_ms)
        component.restore()
        for volume in node.volumes.values():
            if component in volume.drives:
                volume.revive()

    # The injector is a raw simulation process outside the node, so
    # failing any CPU cannot kill the injector itself.
    system.env.process(chaos(), name="chaos")
    result = _drive(system, terminals, duration=duration, accounts=32)
    _settle(system)
    counters = _base_counters(system)
    row = {
        "failed_component": label,
        "committed": result.committed,
        "committed_after_failure": sum(
            1 for m in result.metrics if m.ok and m.end >= fail_at),
        "consistent": _consistent(system),
    }
    _claim(row["consistent"] and row["committed_after_failure"] > 0,
           f"{label} failure: the rest of the system takes over the "
           f"workload and stays consistent")
    return counters, row


def e9_failure_sweep(scale: str) -> Dict[str, Any]:
    # cpu0's episode carries the gated history; in smoke the rest of the
    # sweep runs shorter episodes.
    base = (2500.0 if scale == SMOKE else 4000.0, 800.0, 700.0)
    sweep = (1200.0, 400.0, 400.0) if scale == SMOKE else base
    episodes = [_e9_episode(label, pick, *(sweep if index else base))
                for index, (label, pick) in enumerate(_E9_SWEEP)]
    (counters, first), rows = episodes[0], [row for _, row in episodes]
    counters.update((k, first[k]) for k in
                    ("committed", "committed_after_failure", "consistent"))
    counters.update(
        sweep_components=len(rows),
        sweep_committed_after_failure=sum(r["committed_after_failure"] for r in rows),
    )
    return {"counters": counters, "info": {"tables": {
        "E9: single-module failure sweep under load": rows}}}


# ----------------------------------------------------------------------
# E10 — process-pair takeover and checkpoint overhead
# ----------------------------------------------------------------------
class _KvPair(ConcurrentPair):
    """A minimal replicated key-value service."""

    def state_defaults(self):
        return {"kv": {}, "completed": {}}

    def serve_request(self, proc, message):
        op = message.payload
        recorded = self.state["completed"].get(message.msg_id)
        if recorded is not None:
            proc.reply(message, recorded)
            return
        if op.get("op") == "put":
            self.state["kv"][op["key"]] = op["value"]
            reply = {"ok": True, "version": len(self.state["kv"])}
            yield from self.checkpoint_update(
                "kv", updates={op["key"]: op["value"]}
            )
            yield from self.checkpoint_update(
                "completed", updates={message.msg_id: reply}, _charge=False
            )
        else:
            reply = {"ok": True, "value": self.state["kv"].get(op["key"])}
        proc.reply(message, reply)


def e10_process_pairs(scale: str) -> Dict[str, Any]:
    puts = 40 if scale == SMOKE else 120
    cluster = Cluster(seed=113)
    cluster.add_node("alpha", cpu_count=4)
    cluster.connect_all()
    pair = _KvPair(cluster.os("alpha"), "$kv", 0, 1, cluster.tracer)
    done: Dict[str, Any] = {}

    def client(proc):
        for i in range(puts):
            if i == puts // 2:
                cluster.node("alpha").fail_cpu(0)
            yield from proc.request(
                "alpha", "$kv", {"op": "put", "key": i % 8, "value": i},
                timeout=500.0,
            )
        reply = yield from proc.request(
            "alpha", "$kv", {"op": "get", "key": 0}, timeout=500.0
        )
        done["value"] = reply["value"]

    proc = cluster.os("alpha").spawn("$client", 2, client, register=False)
    cluster.run(proc.sim_process)
    counters = {
        "events": int(cluster.env.events_processed),
        "msg_local": int(cluster.tracer.counters["msg_local"]),
        "takeovers": pair.takeovers,
        "checkpoints": pair.checkpoints_sent,
        "kv_size": len(pair.state["kv"]),
        "final_value": done["value"],
    }
    ckpt_ms = pair.checkpoints_sent * cluster.latencies.checkpoint / puts
    _claim(pair.takeovers == 1
           and done["value"] == max(i for i in range(puts) if i % 8 == 0),
           "the backup takes over and checkpointed state survives")
    _claim(pair.checkpoints_sent == puts and ckpt_ms < 1.0,
           "protection costs one checkpoint per update, well under a disc I/O")
    return {"counters": counters, "info": {"checkpoint_ms_per_put": ckpt_ms}}


# ----------------------------------------------------------------------
# E11 — BOXCAR flush-policy sweep (audit round-trips per commit)
# ----------------------------------------------------------------------
def e11_boxcar(scale: str) -> Dict[str, Any]:
    """The same pinned workload under three audit-forwarding policies.

    ``sync`` is the legacy one-AppendAudit-per-operation path,
    ``default`` the stock boxcar, ``wide`` a deliberately large one.
    The counters are the measured evidence for the group-commit claim:
    batches sent (audit round-trips), records carried, and round-trips
    saved relative to synchronous forwarding — all while the
    consistency check still passes.
    """
    duration = 1200.0 if scale == SMOKE else 4000.0
    policies: List[Tuple[str, Any]] = [
        ("sync", False),
        ("default", True),
        ("wide", BoxcarPolicy(max_records=64, max_wait_ms=20.0)),
    ]
    counters: Dict[str, int] = {}
    info: Dict[str, Any] = {}
    events = 0
    for label, policy in policies:
        system, terminals = _build_banking(
            seed=127, accounts=32, terminals=8, boxcar=policy
        )
        result = _drive(system, terminals, duration=duration, accounts=32,
                        seed=6)
        _settle(system)
        dp = system.disc_processes[("alpha", "$data")]
        batches = dp.audit_batches_sent
        records = dp.audit_records_forwarded
        counters[f"committed_{label}"] = result.committed
        counters[f"audit_batches_{label}"] = batches
        counters[f"audit_records_{label}"] = records
        counters[f"rt_saved_{label}"] = records - batches
        counters[f"consistent_{label}"] = _consistent(system)
        events += system.env.events_processed
        info[f"tx_per_s_{label}"] = result.throughput
        if result.committed:
            info[f"audit_rt_per_commit_{label}"] = round(
                batches / result.committed, 3
            )
    counters["events"] = events
    return {"counters": counters, "info": info}


# ----------------------------------------------------------------------
# F1 — redundant-path survey of the hardware fabric
# ----------------------------------------------------------------------
def f1_hardware_paths(scale: str) -> Dict[str, Any]:
    env = Environment()
    network = Network(env, Latencies())
    for name in ("alpha", "beta", "gamma"):
        node = Node(env, name, cpu_count=4)
        node.add_volume("$d0", 0, 1)
        node.add_volume("$d1", 2, 3)
        network.add_node(node)
    network.connect_all()
    pairs = [(a, b) for a in network.nodes for b in network.nodes if a < b]
    by_kind: Dict[str, Dict[str, Any]] = {}

    def survey(kind, component, node=None):
        component.fail(reason="survey")
        ok = all(network.connected(a, b) for a, b in pairs
                 if network.nodes[a].alive and network.nodes[b].alive)
        if node is not None:
            ok = ok and all(
                any(volume.accessible_from(cpu) for cpu in node.cpus)
                for volume in node.volumes.values()
            )
        component.restore()
        row = by_kind.setdefault(kind, {"kind": kind, "components": 0,
                                        "survivable": 0})
        row["components"] += 1
        row["survivable"] += ok
        return ok

    total = survivable = 0
    paths = []
    for node in network.nodes.values():
        for component in node.components():
            total += 1
            survivable += survey(component.kind, component, node)
            for volume in node.volumes.values():
                if any(drive.stale for drive in volume.drives):
                    volume.revive()
        for volume in node.volumes.values():
            paths.append(min(volume.paths_from(cpu) for cpu in node.cpus
                             if volume.accessible_from(cpu)))
        paths.append(sum(bus.up for bus in node.buses.buses))
    lines_survivable = sum(survey("line", line) for line in network.lines)
    # Node to node: the direct line plus one route through each other node.
    paths.extend(len(network.lines_between([a], [b])) + len(network.nodes) - 2
                 for a, b in pairs)
    counters = {"components": total, "survivable": survivable,
                "lines": len(network.lines), "lines_survivable": lines_survivable,
                "min_paths": min(paths)}
    _claim(survivable == total and lines_survivable == len(network.lines),
           "no single module or line failure disables any other module or "
           "any inter-module communication")
    _claim(counters["min_paths"] >= 2,
           "at least two paths connect any two components")
    return {"counters": counters, "info": {"tables": {
        "F1: single-module failure survey": list(by_kind.values())}}}


# ----------------------------------------------------------------------
# F2 — the debit/credit configuration workload (the FASTPATH yardstick)
# ----------------------------------------------------------------------
def f2_configuration(scale: str) -> Dict[str, Any]:
    counters: Dict[str, int] = {}
    rows = []
    for cpus, volumes in [(2, 1), (4, 2), (8, 4)]:
        system, terminals = _build_banking(
            seed=17, cpus=cpus, volumes=volumes, accounts=512, terminals=16,
            branches=8, tellers=16, cache_capacity=16,
        )
        result = _drive(system, terminals, duration=5000.0, accounts=512,
                        think_time=5.0, branches=8, tellers=16)
        label = f"{cpus}cpu_{volumes}vol"
        counters[f"committed_{label}"] = result.committed
        counters[f"consistent_{label}"] = _consistent(system)
        counters[f"events_{label}"] = system.env.events_processed
        rows.append({"cpus": cpus, "volumes": volumes,
                     "committed": result.committed,
                     "tx_per_s": result.throughput,
                     "mean_latency_ms": result.mean_latency})
        _claim(counters[f"consistent_{label}"], f"{label}: database consistent")
        pairs = [system.tcps[("alpha", "$tcp1")], system.audit_processes["alpha"],
                 *system.disc_processes.values()]
        _claim(all(None not in (p.primary_cpu, p.backup_cpu) for p in pairs)
               and system.server_classes[("alpha", "$bank")].live_instances(),
               f"{label}: Figure 2's components run — TCP, AUDITPROCESS and "
               f"DISCPROCESS pairs and the server class")
    # The 4-CPU/2-volume shape is the FASTPATH yardstick ``events`` tracks.
    counters["events"] = counters.pop("events_4cpu_2vol")
    _claim(rows[0]["committed"] > 0 and rows[-1]["tx_per_s"] > rows[0]["tx_per_s"],
           "expandability: capacity grows from 2 to 8 CPUs")
    return {"counters": counters, "info": {"tables": {
        "F2: configuration scaling (debit/credit)": rows}}}


# ----------------------------------------------------------------------
# F3 — the Figure 3 state machine, observed
# ----------------------------------------------------------------------
def f3_state_machine(scale: str) -> Dict[str, Any]:
    duration = 2000.0 if scale == SMOKE else 3000.0
    system, terminals = _build_banking(
        seed=23, accounts=6, terminals=6, keep_trace=True
    )

    def chaos(proc):
        yield system.env.timeout(900)
        system.cluster.node("alpha").fail_cpu(1)
        yield system.env.timeout(900)
        system.cluster.node("alpha").restore_cpu(1)

    system.spawn("alpha", "$chaos", chaos, cpu=0)
    result = _drive(system, terminals, duration=duration, accounts=6,
                    think_time=15.0)
    _settle(system)
    broadcasts = system.tracer.count("state_broadcast")
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        state_broadcasts=broadcasts,
    )
    last: Dict[Any, Optional[TxState]] = {}
    edges: Counter = Counter()
    illegal = 0
    fanouts = set()
    for record in system.tracer.select("state_broadcast"):
        state, previous = TxState(record.state), last.get(record.transid)
        illegal += state not in LEGAL_TRANSITIONS[previous]
        edges[(str(previous), str(state))] += 1
        last[record.transid] = state
        fanouts.add(record.cpus)
    counters.update(illegal_transitions=illegal,
                    transactions_observed=len(last))
    _claim(illegal == 0, "every observed state change is an edge of Figure 3")
    _claim(all(edges[e] for e in (("ending", "ended"), ("active", "aborting"),
                                  ("aborting", "aborted"))),
           "the workload exercises both the commit and the abort path")
    _claim(fanouts <= {3, 4},
           "every state change is broadcast to every live CPU of the node")
    _claim(2.5 <= broadcasts / (counters["commits"] + counters["aborts"]) <= 3.5,
           "three broadcasts per transaction")
    rows = [{"from": a, "to": b, "count": n} for (a, b), n in sorted(edges.items())]
    return {"counters": counters, "info": {"tables": {
        "F3: observed state transitions (all legal)": rows}}}


# ----------------------------------------------------------------------
# F4 — manufacturing network: autonomy under partition
# ----------------------------------------------------------------------
def _f4_episode(partition_ms: float, updates: int):
    app = build_manufacturing_system(seed=31, items_per_node=2,
                                     monitor_interval=150.0)
    system = app.system
    network = system.cluster.network
    network.isolate("neufahrn")
    start = system.env.now
    succeeded = 0
    for i in range(updates):
        # Neufahrn keeps updating the records it masters (items 6, 7).
        reply = _run(system, "neufahrn", lambda p, i=i: app.update_item(
            p, "neufahrn", 6 + (i % 2), {"qty_on_hand": 100 + i}), name=f"$u{i}")
        succeeded += bool(reply["ok"])
    _run(system, "cupertino", lambda p: (yield system.env.timeout(
        max(partition_ms - (system.env.now - start), 1))), name="$hold")
    depth_during = _suspense_depth(app, "neufahrn")
    network.heal()
    heal_at = system.env.now
    converged = 0
    for _ in range(200):
        _run(system, "cupertino", lambda p: (yield system.env.timeout(100)),
             name="$poll")
        if _suspense_depth(app, "neufahrn") == 0:
            converged = 1
            break
    counters = _base_counters(system)
    row = {"partition_ms": partition_ms, "updates_during": succeeded,
           "suspense_depth": depth_during, "converged": converged,
           "convergence_ms": system.env.now - heal_at,
           "copies_converged": int(app.convergence_report()["converged"])}
    _claim(succeeded == updates, "node autonomy: the cut-off node keeps "
           "updating the records it masters")
    _claim(converged and row["copies_converged"],
           "global copies converge after the network heals")
    return counters, row


def _f4_synchronous_ablation() -> Dict[str, int]:
    """The rejected design: update every copy in one TMF transaction."""
    app = build_manufacturing_system(seed=37, items_per_node=1,
                                     monitor_interval=150.0)
    system = app.system
    tmf = system.tmf["neufahrn"]
    client = system.clients["neufahrn"]

    def synchronous_update(proc):
        transid = yield from tmf.begin(proc)
        try:
            for node in MANUFACTURING_NODES:
                record = yield from client.read(
                    proc, f"item_master.{node}", (3,), transid=transid, lock=True)
                record["qty_on_hand"] = 1
                yield from client.update(
                    proc, f"item_master.{node}", record, transid=transid)
            yield from tmf.end(proc, transid)
            return 1
        except (TransactionAborted, FileError, FileUnavailableError) as exc:
            yield from tmf.abort(proc, transid, str(exc))
            return 0

    whole = _run(system, "neufahrn", synchronous_update, name="$sync1")
    system.cluster.network.isolate("neufahrn")
    partitioned = _run(system, "neufahrn", synchronous_update, cpu=1, name="$sync2")
    system.cluster.network.heal()
    _claim(whole and not partitioned,
           "the synchronous all-copy design commits on a whole network but "
           "fails during a partition: no autonomy")
    return {"sync_whole_committed": whole, "sync_partitioned_committed": partitioned}


def f4_manufacturing(scale: str) -> Dict[str, Any]:
    episodes = [(400.0, 4), (800.0, 8)] if scale == SMOKE else [(1200.0, 4), (2500.0, 8)]
    counters, first = _f4_episode(*episodes[0])
    _, second = _f4_episode(*episodes[1])
    counters.update(
        updates_during=first["updates_during"],
        suspense_depth=first["suspense_depth"],
        converged=first["converged"],
        copies_converged=first["copies_converged"],
        suspense_depth_long=second["suspense_depth"],
    )
    _claim(second["suspense_depth"] >= first["suspense_depth"],
           "the suspense backlog grows with the partition's length")
    counters.update(_f4_synchronous_ablation())
    return {"counters": counters, "info": {"tables": {
        "F4: partition episodes (record-master design)": [first, second]}}}


def _suspense_depth(app, node: str) -> int:
    client = app.system.clients[node]
    return len(_run(app.system, node,
                    lambda p: client.scan(p, f"suspense.{node}"), name="$d"))


# ----------------------------------------------------------------------
# Registry and runner
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[[str], Dict[str, Any]]] = {
    "e1_online_recovery": e1_online_recovery,
    "e2_checkpoint_vs_wal": e2_checkpoint_vs_wal,
    "e3_commit_protocols": e3_commit_protocols,
    "e4_locking": e4_locking,
    "e5_rollforward": e5_rollforward,
    "e6_partition": e6_partition,
    "e7_storage": e7_storage,
    "e8_restart": e8_restart,
    "e9_failure_sweep": e9_failure_sweep,
    "e10_process_pairs": e10_process_pairs,
    "e11_boxcar": e11_boxcar,
    "f1_hardware_paths": f1_hardware_paths,
    "f2_configuration": f2_configuration,
    "f3_state_machine": f3_state_machine,
    "f4_manufacturing": f4_manufacturing,
}


def run_experiment(
    name: str, scale: str = SMOKE, repeats: int = 1
) -> Dict[str, Any]:
    """Run one experiment ``repeats`` times; counters must agree exactly.

    Returns the experiment's section of the report: deterministic
    ``counters``, advisory ``info``, and the wall-clock median.  Raises
    :class:`ClaimFailed` if a paper claim fails, ``AssertionError`` if
    repeats diverge.
    """
    fn = EXPERIMENTS[name]
    walls: List[float] = []
    section: Optional[Dict[str, Any]] = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        try:
            outcome = fn(scale)
        except ClaimFailed as exc:
            raise ClaimFailed(f"{name}: {exc}") from exc
        walls.append((time.perf_counter() - start) * 1000.0)
        if section is not None and outcome["counters"] != section["counters"]:
            raise AssertionError(
                f"{name}: deterministic counters differ between repeats — "
                f"{outcome['counters']} vs {section['counters']}"
            )
        section = outcome
    assert section is not None
    return {
        "counters": section["counters"],
        "info": section["info"],
        "wall_ms": {"median": round(median(walls), 3), "repeats": len(walls)},
    }


def run_suite(
    scale: str = SMOKE,
    repeats: int = 1,
    only: Optional[List[str]] = None,
    progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run the suite and assemble the schema-versioned report."""
    from .compare import SCHEMA

    names = list(EXPERIMENTS) if not only else [
        n for n in EXPERIMENTS if n in set(only)
    ]
    unknown = set(only or []) - set(EXPERIMENTS)
    if unknown:
        raise KeyError(f"unknown experiments: {sorted(unknown)}")
    experiments: Dict[str, Any] = {}
    for name in names:
        experiments[name] = run_experiment(name, scale=scale, repeats=repeats)
        if progress is not None:
            progress(name, experiments[name])
    return {"schema": SCHEMA, "mode": scale, "experiments": experiments}


# ----------------------------------------------------------------------
# Determinism digests (hash-randomization and fast-path identity proofs)
# ----------------------------------------------------------------------
def determinism_digests(seed: int = 11) -> Dict[str, str]:
    """SHA-256 digests of a measured+traced pinned-seed banking run.

    The run covers every layer the FASTPATH optimisation touched (event
    scheduling, checkpointing, DISCPROCESS record images, audit images,
    message dispatch), so a byte-identical XRAY report and TRACE
    timeline across interpreter sessions — and across the optimisation
    itself — is strong evidence the simulated history is unchanged.
    """
    system, terminals = _build_banking(
        seed, accounts=16, tellers=6, terminals=6, measure=True,
        sample_interval=100.0, trace=True,
    )
    run_closed_loop(
        system, "alpha", "$tcp1", terminals,
        _banking_input(16, tellers=6, amounts=(-20, -5, 5, 10, 25)),
        duration=1500.0, think_time=10.0, rng=random.Random(99),
    )
    return {
        "xray_sha256": hashlib.sha256(
            system.xray_json().encode()
        ).hexdigest(),
        "timeline_sha256": hashlib.sha256(
            system.timeline_json().encode()
        ).hexdigest(),
    }
