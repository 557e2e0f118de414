"""TELLERBENCH: host speed of the simulator and service of the modelled bank.

Run from the root of a checkout of this repository::

    python3 tellerbench/run.py --workload teller_post --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md in this directory).  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Any failed output check exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class WrongTree(Exception):
    """``repro`` would not be imported from this checkout's ``src/``."""


def use_checkout_src() -> Dict[str, str]:
    """Import ``repro`` from this checkout only; return its provenance.

    The parent and the change must each be measured from their own tree,
    so an installed or already-imported ``repro`` elsewhere is refused.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise WrongTree(f"no repro package under {SRC}")
    loaded = sys.modules.get("repro")
    if loaded is None:
        sys.path.insert(0, str(SRC))
        import repro as loaded  # noqa: F811 - the checkout's own package
    resolved = Path(loaded.__file__).resolve().parent
    if resolved != package.resolve():
        raise WrongTree(f"repro resolves to {resolved}, not {package}")
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "repro": str(resolved),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


# ----------------------------------------------------------------------
# Aggregation over the episodes of one run
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of exact (unbucketed) samples."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[rank - 1]


def _untraced(workload: Any, seed: int, seconds: float,
              latencies: Any = None) -> Dict[str, List[Any]]:
    """Input sets ``0..episodes-1`` once each, then set-up replays.

    The replays fill the run up to ``seconds`` (at least one is made):
    each repeats the set-up of one input set, which must reproduce its
    simulated state bit for bit, and adds a set-up time sample.
    """
    import bank

    started = time.perf_counter()
    episodes = [bank.run_episode(workload, seed, index, latencies=latencies)
                for index in range(workload.episodes)]
    setups = [e.setup_s for e in episodes]
    replay = 0
    while replay < 1 or time.perf_counter() - started < seconds:
        index = replay % workload.episodes
        setup_s, _, state, _, _ = bank.set_up(workload, seed, index, latencies)
        if state != episodes[index].setup_state:
            raise bank.CheckFailed(
                f"{workload.name}: set-up of input set {index} did not "
                "replay bit-identically"
            )
        setups.append(setup_s)
        replay += 1
    return {"episodes": episodes, "setups": setups}


def end_to_end(workload: Any, seed: int, seconds: float,
               latencies: Any = None) -> Dict[str, Any]:
    """The end-to-end metrics of an untraced run."""
    import bank

    runs = _untraced(workload, seed, seconds, latencies)
    episodes = runs["episodes"]
    windows = [w for e in episodes for w in e.windows]
    latencies_ms = [x for w in windows for x in w.latencies_ms]
    if len(latencies_ms) < bank.MIN_P99_SAMPLES:
        raise bank.CheckFailed(
            f"{workload.name}: p99 needs {bank.MIN_P99_SAMPLES} samples, "
            f"got {len(latencies_ms)}"
        )
    committed = sum(w.committed for w in windows)
    attempted = sum(w.attempted for w in windows)
    metrics = {
        # Over all windows together: the host's own speed drifts between
        # phases lasting seconds, which a time-weighted rate averages and
        # a median of per-window rates does not.
        "host_commits_per_s": (
            committed / sum(w.wall_s for w in windows), "commits/s"),
        "setup_s": (statistics.median(runs["setups"]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_tps": (
            committed / (sum(w.duration_ms for w in windows) / 1000.0), "tx/s"),
        "sim_latency_p50_ms": (_percentile(latencies_ms, 0.50), "ms"),
        "sim_latency_p99_ms": (_percentile(latencies_ms, 0.99), "ms"),
        "committed_frac": (committed / attempted, "ratio"),
        # The mean over 1 s slices, not one maximum or a median: a single
        # maximum spreads 20-50% between seeds, and per-slice maxima fall
        # in two clusters whose boundary a median jumps across.
        "sim_max_commit_gap_ms": (
            statistics.fmean(g for w in windows for g in w.max_gaps_ms), "ms"),
    }
    return {
        "metrics": metrics,
        "samples": {"setup_s": len(runs["setups"]),
                    "sim_latency_p50_ms": len(latencies_ms),
                    "sim_latency_p99_ms": len(latencies_ms),
                    "sim_max_commit_gap_ms": sum(len(w.max_gaps_ms) for w in windows)},
        "attempted": attempted,
        "failed": attempted - committed,
    }


def _traced(workload: Any, seed: int, seconds: float,
            latencies: Any = None) -> Dict[str, List[Any]]:
    """Pairs of one untraced and one traced episode of the same input set.

    Pairs run while another one still fits in ``seconds`` (at least one
    runs).  The traced twin must replay the untraced episode bit for bit.
    """
    import bank

    plain, traced = [], []
    pair_s = 0.0
    started = time.perf_counter()
    while not traced or time.perf_counter() - started + pair_s <= seconds:
        pair_started = time.perf_counter()
        index = len(traced) % workload.episodes
        plain.append(bank.run_episode(workload, seed, index, latencies=latencies))
        traced.append(bank.run_episode(workload, seed, index, traced=True,
                                       latencies=latencies))
        if traced[-1].fingerprint() != plain[-1].fingerprint():
            raise bank.CheckFailed(
                f"{workload.name}: the traced run of input set {index} did "
                "not replay the untraced one bit-identically"
            )
        pair_s = time.perf_counter() - pair_started
    return {"plain": plain, "traced": traced}


def per_layer(workload: Any, seed: int, seconds: float,
              latencies: Any = None) -> Dict[str, Any]:
    """The per-layer metrics of a traced run (with its untraced twins)."""
    from layers import LAYERS, UNATTRIBUTED

    runs = _traced(workload, seed, seconds, latencies)
    plain, traced = runs["plain"], runs["traced"]
    # Counters come from input set 0 alone, so they do not depend on how
    # many pairs fitted in the run; host times come from every pair.
    commits = plain[0].committed
    total = plain[0].counters

    def per_commit(name: str) -> float:
        return total[name] / commits

    traced_commits = sum(e.committed for e in traced)
    self_ns = {layer: sum(e.self_ns[layer] for e in traced)
               for layer in LAYERS + (UNATTRIBUTED,)}

    def self_ms(layer: str) -> float:
        return self_ns[layer] / 1e6 / traced_commits

    lookups = total["discprocess.cache_hits"] + total["discprocess.cache_misses"]
    metrics = {
        "sim.events_per_commit": (per_commit("sim.events"), "events"),
        "sim.host_ns_per_event": (
            sum(e.wall_s for e in plain) * 1e9
            / sum(e.counters["sim.events"] for e in plain), "ns"),
        "hardware.disc_reads_per_commit": (per_commit("hardware.disc_reads"), "count"),
        "hardware.disc_writes_per_commit": (per_commit("hardware.disc_writes"), "count"),
        "hardware.disc_busy_ms_per_commit": (
            per_commit("hardware.disc_busy_ms"), "ms"),
        "hardware.bus_transfers_per_commit": (
            per_commit("hardware.bus_transfers"), "count"),
        "guardian.checkpoints_per_commit": (per_commit("guardian.checkpoints"), "count"),
        "guardian.msgs_local_per_commit": (per_commit("guardian.msgs_local"), "count"),
        "guardian.msgs_network_per_commit": (
            per_commit("guardian.msgs_network"), "count"),
        "guardian.takeovers": (total["guardian.takeovers"], "count"),
        "discprocess.audit_batches_per_commit": (
            per_commit("discprocess.audit_batches"), "count"),
        "discprocess.audit_records_per_commit": (
            per_commit("discprocess.audit_records"), "count"),
        "discprocess.lock_waits_per_commit": (
            per_commit("discprocess.lock_waits"), "count"),
        "discprocess.lock_timeouts": (total["discprocess.lock_timeouts"], "count"),
        "discprocess.cache_hit_ratio": (
            total["discprocess.cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "discprocess.copies_per_commit": (
            sum(e.copies for e in traced) / traced_commits, "count"),
        "core.audit_forces_per_commit": (per_commit("core.audit_forces"), "count"),
        "core.state_broadcasts_per_commit": (
            per_commit("core.state_broadcasts"), "count"),
        "core.phase1_msgs_per_commit": (per_commit("core.phase1_msgs"), "count"),
        "core.aborts_per_commit": (per_commit("core.aborts"), "count"),
        "core.backouts": (total["core.backouts"], "count"),
        "encompass.restarts_per_commit": (per_commit("encompass.restarts"), "count"),
        "trace.records_per_commit": (per_commit("trace.records"), "count"),
        "bench.unattributed_ms_per_commit": (self_ms(UNATTRIBUTED), "ms"),
        "bench.trace_overhead_ratio": (
            sum(e.wall_s for e in traced) / sum(e.wall_s for e in plain), "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_commit"] = (self_ms(layer), "ms")
    return {
        "metrics": metrics,
        "samples": {},
        "attempted": sum(e.attempted for e in traced),
        "failed": sum(e.attempted - e.committed for e in traced),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        provenance = use_checkout_src()
    except WrongTree as exc:
        print(f"tellerbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    import bank

    workload = bank.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"tellerbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bank.WORKLOADS)}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        outcome = measure(workload, args.seed, args.seconds)
    except bank.CheckFailed as exc:
        print(f"tellerbench: output check failed: {exc}", file=sys.stderr)
        return 1

    print(f"tree: {json.dumps(provenance, sort_keys=True)}")
    print(f"workload: {workload.name} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in outcome["metrics"].items():
        samples = outcome["samples"].get(name)
        note = f"  (n={samples})" if samples else ""
        print(f"  {name:40s} {value:14.6f} {unit}{note}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
