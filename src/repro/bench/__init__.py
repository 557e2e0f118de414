"""FASTPATH bench harness: pinned-seed experiments with a regression gate.

``python -m repro.bench`` executes the repository's E1–E11/F1–F4
experiment suite (scaled-down "smoke" variants by default) at pinned
seeds, prints the paper tables it reproduces, and emits one
schema-versioned report, ``BENCH_fastpath.json``.  Every experiment
checks the paper's claims about its own episode; a broken claim fails
the run at any scale.  Each experiment also contributes two kinds of
numbers:

* **deterministic counters** — events stepped, messages sent, commits,
  audit forces, takeovers ... — pure functions of the seed.  Any drift
  against the committed smoke baseline (``baseline.json``) means the
  simulated history changed and is a **hard failure** (exit code 1):
  performance work must leave behaviour byte-identical.
* **advisory wall-clock** — the median real time of N repeats.  A
  regression beyond a generous threshold (default 40%) is a **soft
  failure**: surfaced (and annotated in CI) but not fatal, because CI
  runners are noisy.

The comparator (:mod:`repro.bench.compare`) produces one of four
verdicts per run: ``clean``, ``counter-drift``, ``counter-improvement``
(cost counters dropped and nothing else drifted — still gates, but is
reported as an optimization rather than unexplained drift), and
``wall-clock-soft-fail``.

Like :mod:`repro.lint`, this package is *tooling*: it imports the stack
freely and nothing in the stack may import it.
"""

from .compare import (
    BASELINE,
    CLEAN,
    COUNTER_DRIFT,
    COUNTER_IMPROVEMENT,
    SCHEMA,
    WALL_CLOCK_SOFT_FAIL,
    Comparison,
    compare_reports,
)
from .experiments import (
    EXPERIMENTS,
    ClaimFailed,
    determinism_digests,
    determinism_run,
    run_experiment,
    run_suite,
)

__all__ = [
    "BASELINE",
    "CLEAN",
    "COUNTER_DRIFT",
    "ClaimFailed",
    "COUNTER_IMPROVEMENT",
    "Comparison",
    "EXPERIMENTS",
    "SCHEMA",
    "WALL_CLOCK_SOFT_FAIL",
    "compare_reports",
    "determinism_digests",
    "determinism_run",
    "run_experiment",
    "run_suite",
]
