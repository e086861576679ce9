"""The rule interface: the one class the engine and every rule share.

A rule is a :class:`Rule` subclass with:

* ``code``/``name``/``description`` — identity (code for suppression
  comments and ``--select``, name for humans);
* ``applies_to(ctx)`` — per-file gate (scope rules to packages here);
* ``begin_file(ctx)`` — optional per-file setup before the node walk
  (reset per-file state, pre-scan imports);
* ``visit_<NodeType>(node, ctx)`` hooks — called for every matching AST
  node of every applicable file, with ``ctx.report(node, message)`` to
  emit findings (suppressions are applied by the engine) and
  ``ctx.project`` for the cross-file facts of
  :mod:`repro.analysis.project`.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..engine import RuleContext


class Rule:
    """Base class every lint rule derives from."""

    code: str = "R?"
    name: str = "unnamed"
    description: str = ""

    def applies_to(self, ctx: RuleContext) -> bool:
        return True

    def begin_file(self, ctx: RuleContext) -> None:
        """Per-file setup hook, called before the node walk starts."""
        return None


def call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of a call target: ``np.zeros`` -> ``zeros``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def is_numpy_attr(node: ast.AST, attr: str) -> bool:
    """True for ``np.<attr>`` / ``numpy.<attr>`` references."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )
