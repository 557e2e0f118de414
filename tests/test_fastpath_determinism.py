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

import subprocess
import sys
from pathlib import Path

from repro.bench import determinism_digests

# Captured with `python -m repro.bench --digest`.  Re-recorded once for
# BOXCAR: asynchronous batched audit forwarding + multi-part checkpoints
# intentionally change simulated history (fewer AppendAudit round-trips,
# a ForceBoxcar drain in phase one), so the pre-BOXCAR digests no longer
# apply.  Any *further* digest change must again be justified.
GOLDEN = {
    "xray_sha256":
        "0db2ba9b6426691c5f2fc30aacc4be9e5ddde08304c763b93fb4ef17f371079e",
    "timeline_sha256":
        "fa1c54f90fe89023622c45e59106d89243f9715ff48078c3492832668f7146e6",
}


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
    import json

    assert json.loads(first) == GOLDEN
