"""The lint engine: files in, findings out.

The engine owns everything rule-agnostic — discovering files, parsing
them, building parent links, reading ``# repro-lint:`` suppression
comments, and dispatching AST nodes to each rule's ``visit_*`` hooks
with the collected :class:`~repro.analysis.project.ProjectFacts` at
hand.

Suppression comments
--------------------
``# repro-lint: disable=R1`` on a line suppresses that line's findings
for rule ``R1`` (codes and rule names both work, comma-separated, and
``all`` silences every rule).  ``# repro-lint: disable-next-line=R1``
suppresses the following line instead — useful above a multi-line call.
Anything after the code list is free-form rationale.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .project import ProjectFacts, collect_project_facts

if TYPE_CHECKING:
    from .rules.base import Rule

_SUPPRESS_RE = re.compile(
    r"repro-lint:\s*disable(?P<next>-next-line)?=(?P<codes>[A-Za-z0-9_,-]+)"
)

#: Pseudo-rule code attached to unparseable files.
SYNTAX_ERROR_CODE = "E1"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    name: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}[{self.name}] {self.message}"
        )


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


class FileContext:
    """Everything the engine knows about one source file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.module = module_name(path)
        self.package = package_of(self.module)
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        self._suppressions: Dict[int, Set[str]] = {}
        try:
            self.tree = ast.parse(source, filename=display_path)
        except SyntaxError as exc:
            self.syntax_error = exc
            return
        _link_parents(self.tree)
        self._suppressions = _parse_suppressions(source)

    def suppressed(self, line: int, code: str, name: str) -> bool:
        codes = self._suppressions.get(line)
        if not codes:
            return False
        return "ALL" in codes or code.upper() in codes or name.upper() in codes


def module_name(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path component.

    Files outside any ``repro`` tree (fixtures, scratch snippets) fall
    back to their stem, so rules scoped by package simply don't fire.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[anchor:]
    else:
        parts = parts[-1:]
    module = ".".join(parts)
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


def package_of(module: str) -> str:
    """First package under ``repro`` ("core" for ``repro.core.codec``)."""
    head, _, rest = module.partition(".")
    if head != "repro" or not rest:
        return ""
    return rest.split(".", 1)[0]


def _link_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


def parent_of(node: ast.AST) -> Optional[ast.AST]:
    """The AST parent of ``node`` (engine-linked; None at the root)."""
    return getattr(node, "_repro_parent", None)


def _parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of upper-cased suppressed codes/names."""
    suppressions: Dict[int, Set[str]] = {}

    def record(line: int, match: "re.Match[str]") -> None:
        target = line + 1 if match.group("next") else line
        codes = {
            c.strip().upper()
            for c in match.group("codes").split(",")
            if c.strip()
        }
        suppressions.setdefault(target, set()).update(codes)

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                match = _SUPPRESS_RE.search(tok.string)
                if match:
                    record(tok.start[0], match)
    except (tokenize.TokenError, IndentationError):
        # Fall back to a plain line scan on files tokenize rejects.
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match and "#" in text[: match.start()]:
                record(lineno, match)
    return suppressions


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[Path] = []
    for path in paths:
        if path.is_dir():
            found.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            found.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in found:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


class RuleContext:
    """Per-file view handed to rule ``visit_*`` hooks."""

    def __init__(
        self,
        file: FileContext,
        rule: Rule,
        findings: List[Finding],
        project: ProjectFacts,
    ) -> None:
        self.file = file
        self.project = project
        self._rule = rule
        self._findings = findings

    @property
    def module(self) -> str:
        return self.file.module

    @property
    def package(self) -> str:
        return self.file.package

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return parent_of(node)

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding at ``node`` unless its line suppresses it."""
        line = getattr(node, "lineno", 1)
        if self.file.suppressed(line, self._rule.code, self._rule.name):
            return
        self._findings.append(
            Finding(
                rule=self._rule.code,
                name=self._rule.name,
                path=self.file.display_path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


class LintRun:
    """One lint invocation over a set of files with a set of rules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)
        self.files_checked = 0

    def run(self, paths: Sequence[Path]) -> List[Finding]:
        files = discover_files([Path(p) for p in paths])
        contexts: List[FileContext] = []
        for path in files:
            display = _display_path(path)
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise FileNotFoundError(f"cannot read {display}: {exc}")
            contexts.append(FileContext(path, display, source))
        self.files_checked = len(contexts)

        project = collect_project_facts(
            [(c.module, c.tree) for c in contexts if c.tree]
        )

        findings: List[Finding] = []
        for ctx in contexts:
            if ctx.syntax_error is not None:
                findings.append(
                    Finding(
                        rule=SYNTAX_ERROR_CODE,
                        name="syntax-error",
                        path=ctx.display_path,
                        line=ctx.syntax_error.lineno or 1,
                        col=(ctx.syntax_error.offset or 0) + 1,
                        message=f"file does not parse: {ctx.syntax_error.msg}",
                    )
                )
                continue
            self._check_file(ctx, findings, project)

        return sorted(findings, key=_sort_key)

    def _check_file(
        self,
        ctx: FileContext,
        findings: List[Finding],
        project: ProjectFacts,
    ) -> None:
        assert ctx.tree is not None
        active: List[Tuple[Rule, RuleContext]] = []
        for rule in self.rules:
            rule_ctx = RuleContext(ctx, rule, findings, project)
            if rule.applies_to(rule_ctx):
                active.append((rule, rule_ctx))
        if not active:
            return
        for rule, rule_ctx in active:
            rule.begin_file(rule_ctx)
        for node in ast.walk(ctx.tree):
            hook_name = f"visit_{type(node).__name__}"
            for rule, rule_ctx in active:
                hook = getattr(rule, hook_name, None)
                if hook is not None:
                    hook(node, rule_ctx)


def _display_path(path: Path) -> str:
    try:
        return str(path.relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def lint_paths(
    paths: Iterable[object],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Lint ``paths``; returns ``(findings, files_checked)``."""
    run = LintRun(rules=rules)
    findings = run.run([Path(str(p)) for p in paths])
    return findings, run.files_checked
