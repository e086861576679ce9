"""CLI plumbing of ``repro lint``."""

from __future__ import annotations

import argparse
from pathlib import Path

from .engine import lint_paths
from .output import format_human, format_json
from .rules import ALL_RULES, select_rules

#: Default lint target when no paths are given: the repro source tree
#: this installation runs from.
DEFAULT_TARGET = Path(__file__).resolve().parent.parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule codes/names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rules and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint invocation; returns the process exit code."""
    if args.list_rules:
        width = max(len(cls.code) for cls in ALL_RULES)
        for cls in ALL_RULES:
            print(f"{cls.code:<{width}}  {cls.name:<22} {cls.description}")
        return 0
    rules = None
    if args.select:
        try:
            rules = select_rules(args.select.split(","))
        except KeyError as exc:
            raise SystemExit(f"--select: {exc.args[0]}")
    targets = args.paths or [DEFAULT_TARGET]
    try:
        findings, files_checked = lint_paths(targets, rules=rules)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc))
    formatter = format_json if args.format == "json" else format_human
    print(formatter(findings, files_checked))
    return 1 if findings else 0
