"""The pinned-seed experiment suite behind ``python -m repro.bench``.

Each experiment is a compact, self-contained reproduction of one
benchmark module under ``benchmarks/`` (E1–E10, F1–F4), parameterized by
*scale*: ``smoke`` runs a scaled-down episode suitable for CI, ``full``
the figure-sized one.  Every experiment returns

``{"counters": {...}, "info": {...}}``

where ``counters`` holds only deterministic integers (exact-compared
against the baseline by :mod:`repro.bench.compare`) and ``info`` holds
advisory numbers (simulated throughput, latencies) that are reported
but never gated on.

Seeds are pinned per experiment and must never change casually: the
committed baseline encodes the exact history they produce.
"""

from __future__ import annotations

import hashlib
import random
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.banking import (
    check_consistency,
    debit_credit_program,
    install_banking,
    populate_banking,
)
from repro.apps.manufacturing import MANUFACTURING_NODES, build_manufacturing_system
from repro.core import Rollforward, dump_volume
from repro.discprocess import (
    BoxcarPolicy,
    FileSchema,
    KEY_SEQUENCED,
    KeySequencedFile,
    MemoryBlockStore,
    PartitionSpec,
)
from repro.encompass import SystemBuilder
from repro.guardian import Cluster, ConcurrentPair
from repro.hardware import Latencies, Network, Node
from repro.sim import Environment
from repro.workloads import KeyChooser, run_closed_loop

__all__ = [
    "EXPERIMENTS",
    "determinism_digests",
    "run_experiment",
    "run_suite",
]

SMOKE = "smoke"
FULL = "full"


# ----------------------------------------------------------------------
# Shared builders (mirrors benchmarks/_common.py, without pytest)
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
    boxcar: Any = True,
) -> Tuple[Any, List[str]]:
    builder = SystemBuilder(seed=seed, keep_trace=keep_trace, boxcar=boxcar)
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


def _banking_input(accounts: int, branches: int = 2, tellers: int = 8):
    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(accounts),
            "teller_id": rng.randrange(tellers),
            "branch_id": rng.randrange(branches),
            "amount": rng.choice([5, 10, 25, -5]),
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


def _settle(system, ms=1000.0, node="alpha"):
    proc = system.spawn(node, "$settle",
                        lambda p: (yield system.env.timeout(ms)), cpu=0)
    system.cluster.run(proc.sim_process)


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
def e1_online_recovery(scale: str) -> Dict[str, Any]:
    duration = 3000.0 if scale == SMOKE else 6000.0
    fail_at, restore_at = 1000.0, 1800.0
    system, terminals = _build_banking(seed=41, accounts=32, terminals=8)

    def chaos(proc):
        yield system.env.timeout(fail_at)
        system.cluster.node("alpha").fail_cpu(0)
        yield system.env.timeout(restore_at - fail_at)
        system.cluster.node("alpha").restore_cpu(0)

    system.spawn("alpha", "$chaos", chaos, cpu=1)
    result = _drive(system, terminals, duration=duration, accounts=32)
    _settle(system)
    during = sum(1 for m in result.metrics
                 if m.ok and fail_at <= m.end < restore_at)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        failed=result.failed,
        commits_during_outage=during,
        consistent=_consistent(system),
    )
    return {"counters": counters, "info": {"tx_per_s": result.throughput}}


# ----------------------------------------------------------------------
# E2 — checkpoint-instead-of-WAL accounting
# ----------------------------------------------------------------------
def e2_checkpoint_vs_wal(scale: str) -> Dict[str, Any]:
    duration = 2000.0 if scale == SMOKE else 5000.0
    system, terminals = _build_banking(seed=47, accounts=64, terminals=8)
    result = _drive(system, terminals, duration=duration, accounts=64)
    _settle(system)
    dp = system.disc_processes[("alpha", "$data")]
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        checkpoints=dp.checkpoints_sent,
        audit_records=dp.state["audit_seq"],
    )
    return {"counters": counters, "info": {"tx_per_s": result.throughput}}


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
        builder.define_file(
            FileSchema(
                name=f"ledger.{name}",
                organization=KEY_SEQUENCED,
                primary_key=("entry",),
                audited=True,
                partitions=(PartitionSpec(name, "$data"),),
            )
        )
    system = builder.build()
    tmf = system.tmf["n1"]
    client = system.clients["n1"]
    net_per_shape: Dict[int, int] = {}
    for shape, touch in enumerate(
        (["n1"], ["n1", "n2"], ["n1", "n2", "n3"]), start=1
    ):
        before = system.tracer.counters["msg_network"]

        def body(proc, touch=touch, shape=shape):
            for i in range(per_shape):
                transid = yield from tmf.begin(proc)
                for node in touch:
                    yield from client.insert(
                        proc, f"ledger.{node}",
                        {"entry": i + 1000 * shape, "value": i},
                        transid=transid,
                    )
                yield from tmf.end(proc, transid)
            yield system.env.timeout(1500)  # drain safe-delivery phase 2

        proc = system.spawn("n1", f"$run{shape}", body, cpu=0)
        system.cluster.run(proc.sim_process)
        net_per_shape[shape] = system.tracer.counters["msg_network"] - before
    counters = _base_counters(system)
    counters.update(
        net_msgs_1node=net_per_shape[1],
        net_msgs_2node=net_per_shape[2],
        net_msgs_3node=net_per_shape[3],
    )
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# E4 — lock contention under key skew
# ----------------------------------------------------------------------
def e4_locking(scale: str) -> Dict[str, Any]:
    duration = 1500.0 if scale == SMOKE else 4000.0
    system, terminals = _build_banking(seed=59, accounts=16, terminals=8)
    rng = random.Random(61)
    chooser = KeyChooser(rng, 16, skew=1.2)

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
    return {"counters": counters, "info": {"tx_per_s": result.throughput}}


# ----------------------------------------------------------------------
# E5 — ROLLFORWARD after total node failure
# ----------------------------------------------------------------------
def e5_rollforward(scale: str) -> Dict[str, Any]:
    post_archive = 1000.0 if scale == SMOKE else 3000.0
    system, terminals = _build_banking(seed=73, accounts=48, terminals=6)
    dp = system.disc_processes[("alpha", "$data")]
    _drive(system, terminals, duration=1000.0, accounts=48, seed=1)
    _settle(system)
    archive = dump_volume(dp)
    _drive(system, terminals, duration=post_archive, accounts=48, seed=2)
    _settle(system)

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
    proc = system.spawn("alpha", "$rf", recover, cpu=0)
    system.cluster.run(proc.sim_process)
    counters = _base_counters(system)
    counters.update(
        audit_scanned=holder["stats"].audit_records_scanned,
        reapplied=holder["stats"].records_reapplied,
        consistent=_consistent(system),
    )
    return {"counters": counters,
            "info": {"recovery_ms": system.env.now - start}}


# ----------------------------------------------------------------------
# E6 — partition and the in-doubt window
# ----------------------------------------------------------------------
def e6_partition(scale: str) -> Dict[str, Any]:
    builder = SystemBuilder(seed=83)
    for name in ("home", "remote"):
        builder.add_node(name, cpus=4)
        builder.add_volume(name, "$data", cpus=(0, 1))
    builder.define_file(
        FileSchema(
            name="rledger",
            organization=KEY_SEQUENCED,
            primary_key=("entry",),
            audited=True,
            partitions=(PartitionSpec("remote", "$data"),),
        )
    )
    system = builder.build()
    tmf_home = system.tmf["home"]
    tmf_remote = system.tmf["remote"]
    dp_remote = system.disc_processes[("remote", "$data")]
    observations: Dict[str, Any] = {}

    def committer(proc, transid):
        from repro.core import TransactionAborted

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
        yield commit_proc.sim_process
        yield system.env.timeout(1000)
        observations["locks_during"] = dp_remote.locks.held_count()
        system.cluster.network.heal()
        yield system.env.timeout(2000)
        observations["locks_after"] = dp_remote.locks.held_count()

    proc = system.spawn("home", "$episode", body, cpu=0)
    system.cluster.run(proc.sim_process)
    counters = _base_counters(system)
    counters.update(
        home_outcome=observations["home_outcome"],
        locks_during=observations["locks_during"],
        locks_after=observations["locks_after"],
    )
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# E7 — structured-file storage microbenchmarks (real data structures)
# ----------------------------------------------------------------------
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
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# E8 — restart limit under transfer contention
# ----------------------------------------------------------------------
def e8_restart(scale: str) -> Dict[str, Any]:
    duration = 1500.0 if scale == SMOKE else 4000.0
    builder = SystemBuilder(seed=97, keep_trace=False)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=4)

    def transfer_server(ctx, request):
        a = yield from ctx.read("account", (request["a"],), lock=True,
                                lock_timeout=100)
        yield from ctx.pause(request.get("hold", 20))
        b = yield from ctx.read("account", (request["b"],), lock=True,
                                lock_timeout=100)
        a["balance"] -= 1
        b["balance"] += 1
        yield from ctx.update("account", a)
        yield from ctx.update("account", b)
        return {"ok": True}

    def transfer_program(ctx, data):
        yield from ctx.send_ok("$xfer", data)
        return True

    builder.add_server_class("alpha", "$xfer", transfer_server, instances=4)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=4)
    builder.add_program("alpha", "$tcp1", "transfer", transfer_program)
    terminals = [f"T{i}" for i in range(6)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "transfer")
    system = builder.build()
    populate_banking(system, "alpha", branches=1, tellers_per_branch=1,
                     accounts=5)

    def make_input(rng, terminal_id, iteration):
        a, b = rng.sample(range(5), 2)
        return {"a": a, "b": b, "hold": 20}

    result = run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
        duration=duration, think_time=5.0, rng=random.Random(3),
    )
    _settle(system)
    attempts = sorted(m.attempts for m in result.metrics if m.ok)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        failed=result.failed,
        restarts=result.restarts,
        max_attempts=attempts[-1] if attempts else 0,
    )
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# E9 — single-module failure mid-load
# ----------------------------------------------------------------------
def e9_failure_sweep(scale: str) -> Dict[str, Any]:
    duration = 2500.0 if scale == SMOKE else 4000.0
    system, terminals = _build_banking(seed=109, accounts=32, terminals=6)
    node = system.cluster.node("alpha")
    component = node.cpus[0]

    def chaos():
        yield system.env.timeout(800)
        component.fail(reason="bench E9")
        yield system.env.timeout(700)
        component.restore()

    system.env.process(chaos(), name="chaos")
    result = _drive(system, terminals, duration=duration, accounts=32)
    _settle(system)
    after = sum(1 for m in result.metrics if m.ok and m.end >= 800)
    counters = _base_counters(system)
    counters.update(
        committed=result.committed,
        committed_after_failure=after,
        consistent=_consistent(system),
    )
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# E10 — process-pair takeover and checkpoint overhead
# ----------------------------------------------------------------------
class _KvPair(ConcurrentPair):
    """A minimal replicated key-value service (mirrors bench E10)."""

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
    return {"counters": counters, "info": {}}


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
    total = 0
    survivable = 0
    for node in network.nodes.values():
        for component in node.components():
            total += 1
            component.fail(reason="survey")
            volumes_ok = all(
                any(volume.accessible_from(cpu) for cpu in node.cpus)
                for volume in node.volumes.values()
            )
            network_ok = all(
                network.connected(a, b)
                for a in network.nodes
                for b in network.nodes
                if a < b and network.nodes[a].alive and network.nodes[b].alive
            )
            survivable += int(volumes_ok and network_ok)
            component.restore()
            for volume in node.volumes.values():
                if any(drive.stale for drive in volume.drives):
                    volume.revive()
    counters = {"components": total, "survivable": survivable}
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# F2 — the debit/credit configuration workload (the FASTPATH yardstick)
# ----------------------------------------------------------------------
def f2_configuration(scale: str) -> Dict[str, Any]:
    shapes = [(4, 2)] if scale == SMOKE else [(2, 1), (4, 2), (8, 4)]
    counters: Dict[str, int] = {}
    info: Dict[str, Any] = {}
    events = 0
    for cpus, volumes in shapes:
        system, terminals = _build_banking(
            seed=17, cpus=cpus, volumes=volumes, accounts=512, terminals=16,
            branches=8, tellers=16, cache_capacity=16,
        )
        result = _drive(system, terminals, duration=5000.0, accounts=512,
                        think_time=5.0, branches=8, tellers=16)
        label = f"{cpus}cpu_{volumes}vol"
        counters[f"committed_{label}"] = result.committed
        counters[f"consistent_{label}"] = _consistent(system)
        events += system.env.events_processed
        info[f"tx_per_s_{label}"] = result.throughput
    counters["events"] = events
    return {"counters": counters, "info": info}


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
    return {"counters": counters, "info": {}}


# ----------------------------------------------------------------------
# F4 — manufacturing network: autonomy under partition
# ----------------------------------------------------------------------
def f4_manufacturing(scale: str) -> Dict[str, Any]:
    partition_ms = 400.0 if scale == SMOKE else 1200.0
    app = build_manufacturing_system(seed=31, items_per_node=2,
                                     monitor_interval=150.0)
    system = app.system
    network = system.cluster.network
    others = [n for n in MANUFACTURING_NODES if n != "neufahrn"]

    def do_update(node, item, qty, name):
        def op(proc):
            reply = yield from app.update_item(
                proc, node, item, {"qty_on_hand": qty}
            )
            return reply

        proc = system.spawn(node, name, op, cpu=0)
        return system.cluster.run(proc.sim_process)

    network.partition(["neufahrn"], others)
    start = system.env.now
    succeeded = 0
    for i in range(4):
        reply = do_update("neufahrn", 6 + (i % 2), 100 + i, f"$u{i}")
        succeeded += bool(reply["ok"])
    idle = system.spawn(
        "cupertino", "$hold",
        lambda p: (yield system.env.timeout(
            max(partition_ms - (system.env.now - start), 1)
        )),
        cpu=0,
    )
    system.cluster.run(idle.sim_process)
    depth_during = _suspense_depth(app, "neufahrn")
    network.heal()
    converged = 0
    for _ in range(200):
        idle = system.spawn("cupertino", "$poll",
                            lambda p: (yield system.env.timeout(100)), cpu=0)
        system.cluster.run(idle.sim_process)
        if _suspense_depth(app, "neufahrn") == 0:
            converged = 1
            break
    counters = _base_counters(system)
    counters.update(
        updates_during=succeeded,
        suspense_depth=int(depth_during),
        converged=converged,
    )
    return {"counters": counters, "info": {}}


def _suspense_depth(app, node: str) -> int:
    out: Dict[str, int] = {}

    def reader(proc):
        rows = yield from app.system.clients[node].scan(proc, f"suspense.{node}")
        out["depth"] = len(rows)

    proc = app.system.spawn(node, "$d", reader, cpu=0)
    app.system.cluster.run(proc.sim_process)
    return out["depth"]


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
    ``counters``, advisory ``info``, and the wall-clock median.
    """
    fn = EXPERIMENTS[name]
    walls: List[float] = []
    section: Optional[Dict[str, Any]] = None
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        outcome = fn(scale)
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
    builder = SystemBuilder(seed=seed, keep_trace=False, measure=True,
                            sample_interval=100.0, trace=True)
    builder.add_node("alpha", cpus=4)
    builder.add_volume("alpha", "$data", cpus=(0, 1))
    install_banking(builder, "alpha", "$data", server_instances=3)
    builder.add_tcp("alpha", "$tcp1", cpus=(2, 3), restart_limit=8)
    builder.add_program("alpha", "$tcp1", "debit-credit", debit_credit_program)
    terminals = [f"T{i}" for i in range(6)]
    for terminal in terminals:
        builder.add_terminal("alpha", "$tcp1", terminal, "debit-credit")
    system = builder.build()
    populate_banking(system, "alpha", branches=2, tellers_per_branch=3,
                     accounts=16)

    def make_input(rng, terminal_id, iteration):
        return {
            "account_id": rng.randrange(16),
            "teller_id": rng.randrange(6),
            "branch_id": rng.randrange(2),
            "amount": rng.choice([-20, -5, 5, 10, 25]),
            "allow_overdraft": True,
        }

    run_closed_loop(
        system, "alpha", "$tcp1", terminals, make_input,
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
