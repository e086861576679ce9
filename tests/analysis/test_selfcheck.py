"""The repo must pass its own lint — the gate CI enforces.

If one of these fails, either fix the flagged code or (for deliberate
exceptions, e.g. double-precision measurement code) add a
``# repro-lint: disable=<rule>`` comment with a rationale.
"""

from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.rules.annotations import AnnotationsRule

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages under mypy's disallow_untyped_defs (the wire and trace
#: contracts — pyproject.toml's [tool.mypy] files list mirrors this).
STRICT_PACKAGES = (
    "core", "network", "hardware", "transport", "obs", "baselines", "dnn"
)


def test_source_tree_is_lint_clean():
    findings, files_checked = lint_paths([SRC_REPRO])
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"src/repro must lint clean:\n{rendered}"
    assert files_checked > 50  # sanity: the whole tree was scanned


def test_strict_packages_fully_annotated():
    """Local, dependency-free mirror of mypy's disallow_untyped_defs."""
    paths = [SRC_REPRO / pkg for pkg in STRICT_PACKAGES]
    findings, files_checked = lint_paths(
        paths, rules=[AnnotationsRule(strict=True)]
    )
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, (
        f"strict packages must annotate every def:\n{rendered}"
    )
    assert files_checked > 20
