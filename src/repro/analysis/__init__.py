"""Repo-aware static analysis for the INCEPTIONN reproduction.

An AST linter for the invariants nothing else in the build container
checks before a run: gradients staying float32 on the gradient path
(R1), public APIs carrying type annotations (R5, the dependency-free
mirror of the CI mypy gate), the determinism contract that ``repro
sanitize`` checks dynamically — no wall clock, seeded RNGs, sorted
iteration over sets and registries, no mutable defaults (R8-R11) — and
compressed-domain summing staying in the aggregation layer (R12).
Invariants the running program already enforces (the codec registry
raises at import on a ToS or name collision) are deliberately not
re-derived here; :data:`repro.analysis.rules.RETIRED` says what took
over each retired code.

* :mod:`repro.analysis.engine` — rule engine: file walking, suppression
  comments (``# repro-lint: disable=R1``), finding collection.
* :mod:`repro.analysis.output` — human lines and the versioned JSON
  document.
* :mod:`repro.analysis.project` — the cross-file facts two rules need,
  gathered in a pre-pass: which names are sets or registry dicts (R10),
  and which modules are the aggregation layer or a codec (R12).
* :mod:`repro.analysis.rules` — the seven rules; each is a
  :class:`Rule` subclass with ``visit_*`` hooks.

Run it as ``repro lint [paths]``.
"""

from .engine import Finding, LintRun, lint_paths
from .output import format_human, format_json
from .rules import ALL_RULES, Rule

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintRun",
    "Rule",
    "format_human",
    "format_json",
    "lint_paths",
]
