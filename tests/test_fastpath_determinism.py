"""FASTPATH's contract: faster, but byte-identical simulated history.

Two independent proofs:

* **golden digests** — SHA-256 of the XRAY report and TRACE timeline of
  a pinned-seed banking run, captured on the pre-optimization tree.
  The optimized simulator must reproduce them bit for bit.  The run
  exercises every layer the optimization touched: event scheduling
  (__slots__ events, bound heap ops), process-pair checkpoints and
  DISCPROCESS record images (shared frozen images since FREEZE), message
  dispatch, and the cache probe sites.
* **hash-seed independence** — the same digests under two different
  ``PYTHONHASHSEED`` values (fresh interpreters).  Iteration order of
  str-keyed dicts varies across hash seeds; identical output means no
  set/dict-iteration order leaks into simulated history.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from repro.bench import determinism_digests, determinism_run

# Captured with `python -m repro.bench --digest`.  Re-recorded once for
# BOXCAR: asynchronous batched audit forwarding + multi-part checkpoints
# intentionally change simulated history (fewer AppendAudit round-trips,
# a ForceBoxcar drain in phase one), so the pre-BOXCAR digests no longer
# apply.  The XRAY digest was re-recorded once more for DEADLINE:
# withdrawn deadline timers are no longer stepped, so the report's
# ``meta.events_processed`` fell from 15073 to 14968 — the only field
# that moved (see XRAY_WITHOUT_EVENT_COUNT).  Any *further* digest
# change must again be justified.
GOLDEN = {
    "xray_sha256":
        "2e49a3b62383406b0ba0f0f14ce32b98c0a1f1848c69b37900ad87b11c100f1e",
    "timeline_sha256":
        "fa1c54f90fe89023622c45e59106d89243f9715ff48078c3492832668f7146e6",
}


#: SHA-256 of the same XRAY report with ``meta.events_processed`` removed,
#: as ``json.dumps(report, sort_keys=True)``; equal before and after
#: DEADLINE, which proves the event count is all that changed there.
XRAY_WITHOUT_EVENT_COUNT = (
    "f6de55f8cdbc73341d60bb85ac1ddffc6c9651df9ab5674645d25232d3a9236d"
)


def test_xray_report_unchanged_apart_from_the_event_count():
    report = json.loads(determinism_run().xray_json())
    assert report["meta"].pop("events_processed") == 14968
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == XRAY_WITHOUT_EVENT_COUNT


def test_golden_digests_unchanged_by_optimization():
    assert determinism_digests() == GOLDEN, (
        "XRAY/TRACE output changed — the fast path altered simulated "
        "history.  If the change is an intentional behaviour change, "
        "re-record GOLDEN (python -m repro.bench --digest) and say why."
    )


def _digests_under_hash_seed(seed: str) -> str:
    repo = Path(__file__).resolve().parent.parent
    env = {
        "PYTHONPATH": str(repo / "src"),
        "PYTHONHASHSEED": seed,
        # A bare env: PATH only so the interpreter itself resolves.
        "PATH": "/usr/bin:/bin",
    }
    result = subprocess.run(
        [sys.executable, "-c",
         "from repro.bench import determinism_digests;"
         "import json; print(json.dumps(determinism_digests(), sort_keys=True))"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_digests_independent_of_hash_randomization():
    first = _digests_under_hash_seed("1")
    second = _digests_under_hash_seed("31337")
    assert first == second, (
        "simulated history depends on PYTHONHASHSEED — some set/dict "
        "iteration order is leaking into the event schedule"
    )
    # And both match the in-process (randomized-hash) run.
    assert json.loads(first) == GOLDEN
