"""The FASTPATH bench harness: runner, report schema, and comparator.

The harness's job is to make the regression gate trustworthy: the
runner must produce deterministic counters, the report must round-trip
through JSON unchanged (it is diffed against a checked-in baseline),
and the comparator must land on exactly one of its four verdicts —
clean, counter-drift, counter-improvement, wall-clock-soft-fail — for
the right reasons.  Above all of that, a broken paper claim must fail
every mode of the CLI and never reach the baseline file.
"""

import copy
import json

import pytest

from repro.bench import (
    BASELINE,
    CLEAN,
    COUNTER_DRIFT,
    ClaimFailed,
    COUNTER_IMPROVEMENT,
    EXPERIMENTS,
    SCHEMA,
    WALL_CLOCK_SOFT_FAIL,
    compare_reports,
    run_experiment,
    run_suite,
)
from repro.bench.__main__ import main


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_registry_covers_the_paper_suite():
    names = set(EXPERIMENTS)
    assert {f"e{i}" for i in range(1, 12)} == {n.split("_")[0] for n in names
                                              if n.startswith("e")}
    assert {f"f{i}" for i in range(1, 5)} == {n.split("_")[0] for n in names
                                             if n.startswith("f")}


def test_smoke_run_one_experiment_shape():
    section = run_experiment("e10_process_pairs", scale="smoke", repeats=2)
    counters = section["counters"]
    assert counters and all(isinstance(v, int) for v in counters.values()), (
        "deterministic counters must be ints (exact-compared)"
    )
    assert counters["takeovers"] == 1, "the mid-run CPU failure forces takeover"
    assert counters["checkpoints"] > 0
    assert section["wall_ms"]["repeats"] == 2
    assert section["wall_ms"]["median"] >= 0.0


def test_repeats_with_diverging_counters_raise(monkeypatch):
    from repro.bench import experiments as exp

    calls = iter([{"counters": {"x": 1}, "info": {}},
                  {"counters": {"x": 2}, "info": {}}])
    monkeypatch.setitem(exp.EXPERIMENTS, "e7_storage", lambda scale: next(calls))
    with pytest.raises(AssertionError, match="differ between repeats"):
        run_experiment("e7_storage", scale="smoke", repeats=2)


def test_run_suite_subset_and_schema(tmp_path):
    report = run_suite(scale="smoke", only=["e7_storage", "f1_hardware_paths"])
    assert report["schema"] == SCHEMA
    assert report["mode"] == "smoke"
    assert set(report["experiments"]) == {"e7_storage", "f1_hardware_paths"}
    # The report is diffed as JSON: it must round-trip unchanged.
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    assert json.loads(path.read_text()) == report


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError, match="e99"):
        run_suite(scale="smoke", only=["e99_nonsense"])


# ----------------------------------------------------------------------
# Comparator: the three verdicts
# ----------------------------------------------------------------------
def _report(wall=100.0, **counters):
    counters = counters or {"events": 1000, "commits": 10}
    return {
        "schema": SCHEMA,
        "mode": "smoke",
        "experiments": {
            "e_example": {
                "counters": dict(counters),
                "info": {},
                "wall_ms": {"median": wall, "repeats": 1},
            }
        },
    }


def test_verdict_clean():
    baseline = _report()
    comparison = compare_reports(baseline, copy.deepcopy(baseline))
    assert comparison.verdict == CLEAN
    assert comparison.ok
    assert not comparison.errors and not comparison.warnings


def test_verdict_counter_drift_is_hard():
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["commits"] = 11
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert not comparison.ok
    assert any("baseline 10 != run 11" in e for e in comparison.errors)


def test_verdict_wall_clock_soft_fail():
    baseline = _report(wall=100.0)
    current = _report(wall=150.0)  # +50% > the 40% threshold
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == WALL_CLOCK_SOFT_FAIL
    assert comparison.ok, "wall-clock regressions must not fail the gate"
    assert comparison.warnings and not comparison.errors


def test_wall_clock_within_threshold_is_clean():
    comparison = compare_reports(_report(wall=100.0), _report(wall=135.0))
    assert comparison.verdict == CLEAN


def test_tiny_experiments_skip_wall_comparison():
    # Sub-50ms medians are interpreter noise; a 3x "regression" there
    # must not warn.
    comparison = compare_reports(_report(wall=5.0), _report(wall=15.0))
    assert comparison.verdict == CLEAN


def test_counter_drift_beats_soft_fail():
    baseline = _report(wall=100.0)
    current = _report(wall=200.0)
    # events going *up* is a cost regression: plain drift.
    current["experiments"]["e_example"]["counters"]["events"] = 1001
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert comparison.warnings, "the wall regression is still reported"


def test_cost_counter_drop_is_an_improvement_not_drift():
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["events"] = 900
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_IMPROVEMENT
    assert not comparison.ok, "the baseline still has to be re-recorded"
    assert not comparison.errors
    assert any("cost counter improved" in line
               for line in comparison.improvements)


def test_per_shape_events_counter_is_a_cost():
    # F2 reports events per machine shape (events_2cpu_1vol, ...): a drop
    # is an improvement like the plain events counter, a rise is drift.
    baseline = _report(events_2cpu_1vol=1000, commits=10)
    fewer = _report(events_2cpu_1vol=900, commits=10)
    comparison = compare_reports(baseline, fewer)
    assert comparison.verdict == COUNTER_IMPROVEMENT
    assert not comparison.errors
    more = _report(events_2cpu_1vol=1100, commits=10)
    comparison = compare_reports(baseline, more)
    assert comparison.verdict == COUNTER_DRIFT
    assert not comparison.improvements


def test_improvement_plus_real_drift_is_drift():
    baseline = _report()
    current = _report()
    counters = current["experiments"]["e_example"]["counters"]
    counters["events"] = 900    # cost improved ...
    counters["commits"] = 11    # ... but outcomes changed too
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert comparison.improvements, "the improvement is still reported"
    assert any("commits" in e for e in comparison.errors)


def test_outcome_counter_drop_is_still_drift():
    # commits is an outcome, not a cost: fewer commits is never "better".
    baseline = _report()
    current = _report()
    current["experiments"]["e_example"]["counters"]["commits"] = 9
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert not comparison.improvements


def test_missing_and_extra_experiments_are_drift():
    baseline = _report()
    current = copy.deepcopy(baseline)
    current["experiments"]["e_new"] = current["experiments"].pop("e_example")
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT
    assert any("missing from run" in e for e in comparison.errors)
    assert any("not in baseline" in e for e in comparison.errors)


def test_mode_mismatch_is_drift():
    baseline = _report()
    current = copy.deepcopy(baseline)
    current["mode"] = "full"
    comparison = compare_reports(baseline, current)
    assert comparison.verdict == COUNTER_DRIFT


# ----------------------------------------------------------------------
# The committed baseline matches a fresh run (the actual CI gate).
# ----------------------------------------------------------------------
def test_committed_baseline_matches_fresh_run():
    baseline = json.loads(BASELINE.read_text())
    assert baseline["schema"] == SCHEMA
    assert baseline["mode"] == "smoke"
    # The whole smoke suite: every experiment's paper claims are checked
    # (a broken one raises) and every counter must match.
    fresh = run_suite(scale="smoke")
    assert {name: section["counters"]
            for name, section in fresh["experiments"].items()} == {
        name: section["counters"]
        for name, section in baseline["experiments"].items()
    }, (
        "simulated history drifted from the committed baseline — if the "
        "change is intentional, re-record with "
        "`python -m repro.bench --smoke --update-baseline`"
    )


# ----------------------------------------------------------------------
# Paper claims fail closed; the CLI finds its baseline from anywhere.
# ----------------------------------------------------------------------
def _break_path_redundancy(monkeypatch):
    # With no direct lines, F1's node-to-node path count drops to one.
    from repro.hardware import Network

    monkeypatch.setattr(Network, "lines_between", lambda self, a, b: [])


def test_broken_claim_makes_run_suite_raise(monkeypatch):
    _break_path_redundancy(monkeypatch)
    with pytest.raises(ClaimFailed, match="f1_hardware_paths: at least two "
                       "paths connect any two components"):
        run_suite(scale="smoke", only=["f1_hardware_paths"])


@pytest.fixture
def cli(monkeypatch, tmp_path):
    """Run the CLI on F1 from a scratch directory, not the repo root."""
    before = BASELINE.read_bytes()
    monkeypatch.chdir(tmp_path)
    yield lambda *args: main([*args, "--only", "f1_hardware_paths"])
    assert BASELINE.read_bytes() == before, "the committed baseline changed"


@pytest.mark.parametrize("mode", [["--smoke"], ["--full"],
                                  ["--smoke", "--update-baseline"]])
def test_broken_claim_fails_every_mode(mode, cli, monkeypatch, tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_bytes(BASELINE.read_bytes())
    _break_path_redundancy(monkeypatch)
    assert cli(*mode, "--baseline", str(baseline)) == 1
    assert "PAPER CLAIM FAILED" in capsys.readouterr().err
    assert baseline.read_bytes() == BASELINE.read_bytes()


def test_cli_compares_against_committed_baseline_from_any_directory(
        cli, tmp_path, capsys):
    assert cli("--smoke") == 0
    out = capsys.readouterr().out
    assert "verdict clean" in out
    assert "F1: single-module failure survey" in out, "tables are printed"
    assert (tmp_path / "out" / "BENCH_fastpath.json").exists()


def test_cli_missing_baseline_fails(cli, tmp_path, capsys):
    assert cli("--baseline", str(tmp_path / "absent.json")) == 1
    assert "no baseline" in capsys.readouterr().err


def test_cli_same_mode_counter_drift_fails(cli, tmp_path, capsys):
    report = json.loads(BASELINE.read_text())
    report["experiments"]["f1_hardware_paths"]["counters"]["components"] += 1
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(report))
    assert cli("--smoke", "--baseline", str(baseline)) == 1
    assert "COUNTER DRIFT" in capsys.readouterr().err


def test_cli_full_run_skips_counter_compare(cli, capsys):
    assert cli("--full") == 0
    assert "counters not compared" in capsys.readouterr().out


def test_update_baseline_only_replaces_just_that_experiment(cli, tmp_path):
    original = json.loads(BASELINE.read_text())
    doctored = copy.deepcopy(original)
    doctored["experiments"]["f1_hardware_paths"]["counters"]["components"] += 1
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(doctored, indent=2, sort_keys=True) + "\n")
    assert cli("--smoke", "--update-baseline", "--baseline", str(baseline)) == 0
    written = json.loads(baseline.read_text())
    assert (written["experiments"]["f1_hardware_paths"]["counters"]
            == original["experiments"]["f1_hardware_paths"]["counters"])
    # Every other experiment is byte-identical to what was there before.
    doctored["experiments"]["f1_hardware_paths"] = (
        written["experiments"]["f1_hardware_paths"])
    assert baseline.read_text() == (
        json.dumps(doctored, indent=2, sort_keys=True) + "\n")
