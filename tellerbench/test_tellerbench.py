"""Self-tests of TELLERBENCH: it measures what it claims, and checks outputs.

Run from the repository root::

    python3 -m pytest tellerbench -q

The runs here are scaled down (short windows, one input set) so the
suite takes about a minute; the p99 sample floor is lowered to match.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run

run.use_checkout_src()

import bank  # noqa: E402 - needs the checkout's src on the path
from repro.guardian import MessageSystem  # noqa: E402
from repro.hardware import Latencies  # noqa: E402

SMALL = {
    "teller_post": dict(window_ms=1_000.0, windows=2, episodes=1),
    "balance_inquiry": dict(window_ms=500.0, windows=2, episodes=1),
    "branch_network": dict(window_ms=2_000.0, windows=2, episodes=1),
}
BUSY_WAIT_S = 100e-6


def small(name: str) -> bank.Workload:
    return dataclasses.replace(bank.WORKLOADS[name], **SMALL[name])


@pytest.fixture(autouse=True)
def few_samples(monkeypatch):
    monkeypatch.setattr(bank, "MIN_P99_SAMPLES", 50)


def values(outcome):
    return {name: value for name, (value, _unit) in outcome["metrics"].items()}


def slow_request(monkeypatch):
    """Wrap one guardian public function, from outside, in a busy-wait."""
    original = MessageSystem.request

    def request(*args, **kwargs):
        until = time.perf_counter() + BUSY_WAIT_S
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    monkeypatch.setattr(MessageSystem, "request", request)


# ----------------------------------------------------------------------
# Sensitivity: host cost moves host metrics only, and the right layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SMALL))
def test_guardian_busy_wait_moves_host_metrics_only(name, monkeypatch):
    workload = small(name)
    base = values(run.end_to_end(workload, seed=3, seconds=0))
    base_layers = values(run.per_layer(workload, seed=3, seconds=0))
    slow_request(monkeypatch)
    slow = values(run.end_to_end(workload, seed=3, seconds=0))
    slow_layers = values(run.per_layer(workload, seed=3, seconds=0))

    assert slow["host_commits_per_s"] < 0.9 * base["host_commits_per_s"]
    assert (slow_layers["guardian.self_ms_per_commit"]
            > base_layers["guardian.self_ms_per_commit"] + 0.1)
    simulated = [n for n in base if n.startswith("sim_")] + ["committed_frac"]
    assert {n: slow[n] for n in simulated} == {n: base[n] for n in simulated}
    counts = [n for n, v in base_layers.items()
              if "self_ms" not in n and n not in (
                  "sim.host_ns_per_event", "bench.unattributed_ms_per_commit",
                  "bench.trace_overhead_ratio")]
    assert {n: slow_layers[n] for n in counts} == {n: base_layers[n] for n in counts}


def test_slower_disc_moves_latency_and_disc_explains_it():
    workload = small("teller_post")
    slow_disc = Latencies(disc_read=35.0, disc_write=35.0)
    base = values(run.end_to_end(workload, seed=4, seconds=0))
    slow = values(run.end_to_end(workload, seed=4, seconds=0, latencies=slow_disc))
    base_layers = values(run.per_layer(workload, seed=4, seconds=0))
    slow_layers = values(run.per_layer(workload, seed=4, seconds=0,
                                       latencies=slow_disc))
    assert slow["sim_latency_p50_ms"] > base["sim_latency_p50_ms"]
    assert slow_layers["hardware.disc_reads_per_commit"] > 0
    assert slow_layers["hardware.disc_writes_per_commit"] > 0
    assert (slow_layers["hardware.disc_busy_ms_per_commit"]
            > 1.2 * base_layers["hardware.disc_busy_ms_per_commit"])


def test_probe_layers_run_only_with_probes_on():
    for name in sorted(SMALL):
        layers = values(run.per_layer(small(name), seed=5, seconds=0))
        probes = [layers["measure.self_ms_per_commit"],
                  layers["trace.self_ms_per_commit"],
                  layers["trace.records_per_commit"]]
        if bank.WORKLOADS[name].network:
            assert all(v > 0 for v in probes), name
            assert layers["guardian.msgs_network_per_commit"] > 0
            assert layers["guardian.takeovers"] >= 1
        else:
            assert probes == [0, 0, 0], name
            assert layers["guardian.msgs_network_per_commit"] == 0
        assert layers["bench.trace_overhead_ratio"] > 1


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def test_one_seed_replays_bit_identically_and_seeds_differ():
    workload = small("teller_post")
    first = bank.run_episode(workload, seed=6, index=0)
    again = bank.run_episode(workload, seed=6, index=0)
    other = bank.run_episode(workload, seed=7, index=0)
    assert first.fingerprint() == again.fingerprint()
    assert first.fingerprint() != other.fingerprint()


def test_inconsistent_books_are_rejected(monkeypatch, capsys):
    import repro.apps.banking as banking

    honest = banking.bank_server

    def skimming_server(ctx, request):
        reply = yield from honest(ctx, request)
        if request.get("op") == "post" and reply.get("ok"):
            key = (request["account_id"],)
            account = yield from ctx.read("account", key, lock=True)
            account["balance"] += 1
            yield from ctx.update("account", account)
        return reply

    monkeypatch.setattr(banking, "bank_server", skimming_server)
    with pytest.raises(bank.CheckFailed):
        run.end_to_end(small("teller_post"), seed=8, seconds=0)

    monkeypatch.setattr(bank, "WORKLOADS", {"teller_post": small("teller_post")})
    code = run.main(["--workload", "teller_post", "--seed", "8",
                     "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_result_line_has_the_contract_keys(monkeypatch, capsys):
    monkeypatch.setattr(bank, "WORKLOADS",
                        {"balance_inquiry": small("balance_inquiry")})
    assert run.main(["--workload", "balance_inquiry", "--seed", "9",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in json.loads(
            (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    )


# ----------------------------------------------------------------------
# The measured tree
# ----------------------------------------------------------------------
def test_provenance_names_this_checkout():
    provenance = run.use_checkout_src()
    assert Path(provenance["repro"]) == (run.SRC / "repro").resolve()
    assert len(provenance["src_sha256"]) == 64


def test_a_foreign_repro_is_refused(monkeypatch):
    foreign = types.ModuleType("repro")
    foreign.__file__ = "/elsewhere/repro/__init__.py"
    monkeypatch.setitem(sys.modules, "repro", foreign)
    with pytest.raises(run.WrongTree):
        run.use_checkout_src()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "tellerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "tellerbench/run.py", "--workload", "teller_post",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
