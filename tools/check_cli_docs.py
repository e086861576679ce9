#!/usr/bin/env python3
"""Doc-consistency check: every CLI flag the docs mention must exist.

Scans the user-facing documents (README.md, DESIGN.md, EXPERIMENTS.md)
for ``--flag`` tokens — in fenced code blocks on ``repro ...`` command
lines, and in inline code spans — and validates each against the real
``repro.cli.build_parser()`` option table.  Command lines are checked
against the specific subcommand they invoke (so ``repro exchange
--tenants`` passes but ``repro train --tenants`` fails); bare inline
mentions are checked against the union of every subcommand's options.

EXPERIMENTS.md keeps each PR's record as it was run, so a flag a later
PR retired (:data:`RETIRED_FLAGS`) is accepted there and nowhere else:
README.md and DESIGN.md describe the live CLI.

Run from the repo root (CI runs it as a dedicated job)::

    PYTHONPATH=src python tools/check_cli_docs.py

Exit status 0 when every mention resolves, 1 otherwise (unknown flags
are listed with file:line locations).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: Flags the CLI no longer has, with the PR that retired each; the
#: records in EXPERIMENTS.md may still name them.
RETIRED_FLAGS: Dict[str, int] = {
    "--compress": 46,
    "--jitter": 33,
    "--out": 12,
    "--quick": 12,
    "--validate": 12,
}
RECORD_DOCS = ("EXPERIMENTS.md",)

_FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z0-9-]*")
_INLINE_CODE_RE = re.compile(r"`([^`]+)`")


def _subparser_actions(
    parser: argparse.ArgumentParser,
) -> List[argparse._SubParsersAction]:
    return [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]


def walk_parsers(
    parser: argparse.ArgumentParser, path: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], argparse.ArgumentParser]]:
    """Yield ``(subcommand path, parser)`` for the parser tree."""
    yield path, parser
    for action in _subparser_actions(parser):
        seen: Set[int] = set()
        for name, sub in action.choices.items():
            if id(sub) in seen:  # alias of an already-walked parser
                continue
            seen.add(id(sub))
            yield from walk_parsers(sub, path + (name,))


def collect_options(
    parser: argparse.ArgumentParser,
) -> Dict[Tuple[str, ...], Set[str]]:
    """Map each subcommand path to the long options it accepts."""
    table: Dict[Tuple[str, ...], Set[str]] = {}
    for path, sub in walk_parsers(parser):
        table[path] = {
            opt
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--")
        }
    return table


def _resolve_command(
    tokens: Sequence[str], table: Dict[Tuple[str, ...], Set[str]]
) -> Tuple[Tuple[str, ...], Set[str]]:
    """Longest subcommand path matching ``tokens``, plus its options.

    The options of every parser along the path apply (argparse lets a
    parent's flags appear before the subcommand).
    """
    path: Tuple[str, ...] = ()
    allowed = set(table[()])
    for token in tokens:
        if token.startswith("-"):
            break
        candidate = path + (token,)
        if candidate not in table:
            break
        path = candidate
        allowed |= table[path]
    return path, allowed


def _flags_in(text: str) -> List[str]:
    return _FLAG_RE.findall(text)


def check_document(
    path: Path, table: Dict[Tuple[str, ...], Set[str]]
) -> List[str]:
    """All unknown-flag findings in one markdown document."""
    every_option: Set[str] = set()
    for options in table.values():
        every_option |= options
    retired = RETIRED_FLAGS if path.name in RECORD_DOCS else {}

    errors: List[str] = []

    def check_command_text(text: str, lineno: int) -> None:
        tokens = text.split()
        try:
            start = tokens.index("repro") + 1
        except ValueError:
            return
        cmd_path, allowed = _resolve_command(tokens[start:], table)
        label = " ".join(("repro",) + cmd_path)
        for flag in _flags_in(" ".join(tokens[start:])):
            if flag not in allowed and flag not in retired:
                hint = (
                    " (exists on another subcommand)"
                    if flag in every_option
                    else ""
                )
                errors.append(
                    f"{path.name}:{lineno}: unknown flag {flag} "
                    f"for `{label}`{hint}"
                )

    in_fence = False
    pending = ""
    pending_line = 0
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if in_fence:
            # Join "\"-continued command lines before parsing.
            stripped = line.strip().lstrip("$").strip()
            if pending:
                stripped = pending + " " + stripped
            if stripped.endswith("\\"):
                pending = stripped[:-1].strip()
                if pending_line == 0:
                    pending_line = lineno
                continue
            check_command_text(stripped, pending_line or lineno)
            pending = ""
            pending_line = 0
            continue
        for span in _INLINE_CODE_RE.findall(line):
            span = span.strip()
            if span.startswith("repro "):
                check_command_text(span, lineno)
            elif span.startswith("--"):
                for flag in _flags_in(span.split()[0]):
                    if flag not in every_option and flag not in retired:
                        errors.append(
                            f"{path.name}:{lineno}: unknown flag {flag} "
                            "(no subcommand accepts it)"
                        )
    return errors


def main(argv: Sequence[str] = ()) -> int:
    docs = list(argv) or [str(REPO_ROOT / name) for name in DEFAULT_DOCS]
    from repro.cli import build_parser

    table = collect_options(build_parser())
    errors: List[str] = []
    checked = 0
    for name in docs:
        doc = Path(name)
        if not doc.exists():
            print(f"{doc}: missing", file=sys.stderr)
            return 1
        checked += 1
        errors.extend(check_document(doc, table))
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} stale CLI reference(s)", file=sys.stderr)
        return 1
    print(f"CLI docs consistent ({checked} document(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
