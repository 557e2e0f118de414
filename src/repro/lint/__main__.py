"""CLI of the GUARDRAIL static-analysis suite.

Exit codes (CI-friendly):

* ``0`` — no finding at/above the failure severity;
* ``1`` — at least one finding at/above the failure severity;
* ``2`` — usage or I/O error (bad rule name, missing baseline file).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .base import Severity, all_rules
from .baseline import Baseline
from .engine import findings_to_json, render_findings, run_lint

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "GUARDRAIL: AST-based checks for determinism, layering, "
            "Figure-3 transitions, probe coverage, exception hygiene, "
            "and deep copies in the runtime layers."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="report format (json output is byte-deterministic)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default="",
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--severity",
        default="warning",
        help="minimum severity to report (info|warning|error)",
    )
    parser.add_argument(
        "--fail-on",
        default="error",
        help="exit non-zero when a finding reaches this severity",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON file; matching findings are not reported",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _split(arg: Optional[str]) -> Optional[List[str]]:
    if arg is None:
        return None
    return [part.strip() for part in arg.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in all_rules():
            print(f"{cls.name:20s} [{cls.default_severity}] {cls.description}")
        return 0

    try:
        report_at = Severity.parse(args.severity)
        fail_at = Severity.parse(args.fail_on)
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    baseline = None
    if args.baseline and not args.write_baseline:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(
                f"repro.lint: baseline file not found: {baseline_path}",
                file=sys.stderr,
            )
            return 2
        baseline = Baseline.load(baseline_path)

    try:
        result = run_lint(
            args.paths,
            select=_split(args.select),
            ignore=_split(args.ignore) or (),
            baseline=baseline,
        )
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        if not args.baseline:
            print("repro.lint: --write-baseline requires --baseline", file=sys.stderr)
            return 2
        Baseline.from_findings(result.findings).save(Path(args.baseline))
        print(
            f"repro.lint: wrote {len(result.findings)} finding(s) "
            f"to {args.baseline}"
        )
        return 0

    if args.format == "json":
        print(findings_to_json(result, threshold=report_at))
    else:
        print(render_findings(result, threshold=report_at))
    return 1 if result.count_at_least(fail_at) else 0


if __name__ == "__main__":
    sys.exit(main())
