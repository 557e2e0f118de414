"""Command-line entry point: ``python -m repro.bench``.

Runs the pinned-seed experiment suite, prints the paper tables it
reproduces, writes the schema-versioned report, and compares it with the
committed smoke baseline (``baseline.json`` beside this file):

* exit 1 if a **paper claim** fails, in any mode;
* exit 1 on **counter drift** (the simulated history changed) or when
  the baseline is missing;
* exit 0 with ``::warning::`` lines on a wall-clock **soft fail**;
* exit 0 when clean.

Counters are compared only between runs of the same mode, so ``--full``
exits on the claim checks alone.  ``--update-baseline`` re-records the
smoke baseline in place (do this in the same change that intentionally
alters simulated behaviour, and say why in the commit message); a
failing claim leaves the file untouched.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.measure.tables import format_table

from .compare import BASELINE, COUNTER_DRIFT, COUNTER_IMPROVEMENT, compare_reports
from .experiments import EXPERIMENTS, ClaimFailed, determinism_digests, run_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the paper-claim bench suite and compare to the baseline.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true",
        help="scaled-down CI run, 1 repeat per experiment (default)",
    )
    mode.add_argument(
        "--full", action="store_true",
        help="figure-sized run, 3 repeats per experiment",
    )
    parser.add_argument(
        "--only", action="append", metavar="NAME",
        help="run only this experiment (repeatable); see --list",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--out", default="out/BENCH_fastpath.json", metavar="PATH",
        help="where to write the report (default: %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE), metavar="PATH",
        help="baseline to compare against (default: the committed one)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the smoke report to the baseline path instead of comparing",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.40, metavar="FRAC",
        help="tolerated wall-clock regression (default: %(default)s)",
    )
    parser.add_argument(
        "--digest", action="store_true",
        help="print the determinism digests (XRAY/TRACE SHA-256) and exit",
    )
    args = parser.parse_args(argv)
    if args.update_baseline and args.full:
        parser.error("the baseline records the smoke suite; "
                     "--update-baseline cannot take --full")

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.digest:
        for key, value in determinism_digests().items():
            print(f"{key}  {value}")
        return 0

    scale = "full" if args.full else "smoke"
    repeats = 3 if args.full else 1
    print(f"repro.bench: running {scale} suite "
          f"({len(args.only) if args.only else len(EXPERIMENTS)} experiments, "
          f"{repeats} repeat{'s' if repeats != 1 else ''})", flush=True)

    def progress(name, section):
        wall = section["wall_ms"]["median"]
        print(f"  {name:<24s} {wall:>9.1f} ms", flush=True)
        for title, rows in section["info"].get("tables", {}).items():
            print(format_table(rows, title=title), flush=True)

    try:
        report = run_suite(scale=scale, repeats=repeats, only=args.only,
                           progress=progress)
    except ClaimFailed as exc:
        print(f"repro.bench: PAPER CLAIM FAILED — {exc}", file=sys.stderr)
        return 1

    out_path = Path(args.baseline if args.update_baseline else args.out)
    if args.update_baseline and args.only and out_path.exists():
        # A partial re-record replaces only the experiments it ran.
        merged = json.loads(out_path.read_text())
        merged["experiments"].update(report["experiments"])
        report = merged
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"repro.bench: report written to {out_path}")
    if args.update_baseline:
        print("repro.bench: baseline updated; commit it with an explanation")
        return 0

    baseline_path = Path(args.baseline)
    if not baseline_path.exists():
        print(f"repro.bench: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("mode") != report["mode"]:
        print(f"repro.bench: counters not compared — the baseline is a "
              f"{baseline.get('mode')!r} run, this is a {report['mode']!r} "
              f"run; every paper claim passed")
        return 0
    if args.only:
        # A partial run compares only the experiments it ran.
        baseline = dict(baseline)
        baseline["experiments"] = {
            k: v for k, v in baseline.get("experiments", {}).items()
            if k in set(args.only)
        }
    comparison = compare_reports(baseline, report, threshold=args.threshold)
    for warning in comparison.warnings:
        print(f"::warning::repro.bench {warning}")
    for improvement in comparison.improvements:
        # Improvements are not drift: call them out as such.
        print(f"::notice::repro.bench improved {improvement}")
    if comparison.verdict == COUNTER_DRIFT:
        print("repro.bench: COUNTER DRIFT — simulated history changed:",
              file=sys.stderr)
        for error in comparison.errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    if comparison.verdict == COUNTER_IMPROVEMENT:
        print("repro.bench: COUNTER IMPROVEMENT — cost counters dropped; "
              "re-record the baseline to accept "
              "(python -m repro.bench --smoke --update-baseline):",
              file=sys.stderr)
        for improvement in comparison.improvements:
            print(f"  {improvement}", file=sys.stderr)
        return 1
    print(f"repro.bench: verdict {comparison.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
