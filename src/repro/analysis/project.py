"""Whole-program facts gathered before per-file rules run.

Two rules check properties no single file decides.  R10 needs to know
which names are sets: module-level set globals, attribute names
annotated ``Set[...]`` anywhere in the project, and module-level dicts
mutated by subscript store (registries, whose listing order is import
order).  R12 needs to know which modules *are* the aggregation layer
(they define an aggregation entry point) or a codec implementation
(they define both ``compress`` and ``decompress``), because those are
exempt.  This pre-pass walks every parsed file once and records both.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

#: The compressed-domain aggregation entry points owned by the
#: aggregation-site layer.  Rule R12 confines inline
#: decompress→sum→recompress sequences to the modules that define these
#: (plus codec implementations, which own their own algebra).
AGGREGATION_FUNCTIONS = (
    "aggregate_compressed",
    "aggregate_endpoint",
    "combine_parts",
)


@dataclass
class ProjectFacts:
    """Cross-file facts, read by rules through ``ctx.project``."""

    #: Modules defining a compressed-domain aggregation entry point
    #: (the aggregation-site layer itself, exempt from R12).
    aggregation_definers: Set[str] = field(default_factory=set)
    #: Modules defining both ``compress`` and ``decompress`` (codec
    #: implementations, exempt from R12 — error feedback legitimately
    #: reconstructs and re-encodes inside the codec).
    codec_definers: Set[str] = field(default_factory=set)
    #: module -> module-level names bound to set values (rule R10).
    set_globals: Dict[str, Set[str]] = field(default_factory=dict)
    #: Attribute names annotated ``Set[...]``/``FrozenSet[...]`` anywhere
    #: in the project — iterating ``obj.<attr>`` is unordered (rule R10).
    set_attrs: Set[str] = field(default_factory=set)
    #: module -> module-level dict globals mutated by subscript store
    #: (registries); listing them unsorted leaks insertion order (R10).
    registry_globals: Dict[str, Set[str]] = field(default_factory=dict)


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Terminal name of a reference: ``typing.Set`` -> ``Set``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


#: Set-producing callables recognized statically.
_SET_CALLS = {"set", "frozenset"}

#: Annotation heads naming unordered collections.
_SET_ANNOTATIONS = {
    "Set",
    "set",
    "FrozenSet",
    "frozenset",
    "MutableSet",
    "AbstractSet",
}


def is_set_expr(node: ast.AST) -> bool:
    """True for expressions that statically evaluate to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = _terminal_name(node.func)
        if callee in _SET_CALLS:
            return True
        # ``a | b`` on sets is untypeable statically, but the named
        # set-algebra methods are unambiguous.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


def annotation_is_set(node: Optional[ast.expr]) -> bool:
    """True when an annotation names an unordered collection type."""
    if node is None:
        return False
    target = node.value if isinstance(node, ast.Subscript) else node
    name = _terminal_name(target)
    if name in _SET_ANNOTATIONS:
        return True
    # String annotations ("Set[str]") under ``from __future__ import
    # annotations`` arrive as constants.
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


def _collect_ordering_facts(
    facts: ProjectFacts, module: str, tree: ast.Module
) -> None:
    """Record set-valued globals/attrs and registry dicts for rule R10."""
    set_names: Set[str] = set()
    dict_names: Set[str] = set()
    for stmt in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name) and annotation_is_set(
                stmt.annotation
            ):
                set_names.add(target.id)
        if not isinstance(target, ast.Name):
            continue
        if value is not None and is_set_expr(value):
            set_names.add(target.id)
        if isinstance(value, ast.Dict) or (
            isinstance(value, ast.Call)
            and _terminal_name(value.func) == "dict"
        ):
            dict_names.add(target.id)

    mutated: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for tgt in targets:
                if isinstance(tgt, ast.Subscript) and isinstance(
                    tgt.value, ast.Name
                ):
                    mutated.add(tgt.value.id)
        # Set-typed annotations taint the *attribute name* project-wide:
        # class-body annotations (dataclass fields) carry Name targets,
        # ``self.x: Set[...]`` assignments carry Attribute targets.
        if isinstance(node, ast.AnnAssign) and annotation_is_set(
            node.annotation
        ):
            if isinstance(node.target, ast.Name):
                facts.set_attrs.add(node.target.id)
            elif isinstance(node.target, ast.Attribute):
                facts.set_attrs.add(node.target.attr)

    if set_names:
        facts.set_globals[module] = set_names
    registries = dict_names & mutated
    if registries:
        facts.registry_globals[module] = registries


def collect_project_facts(
    modules: Sequence[Tuple[str, ast.Module]],
) -> ProjectFacts:
    """Scan ``(module, tree)`` pairs into project facts."""
    facts = ProjectFacts()
    for module, tree in modules:
        _collect_ordering_facts(facts, module, tree)
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if defined.intersection(AGGREGATION_FUNCTIONS):
            facts.aggregation_definers.add(module)
        if {"compress", "decompress"} <= defined:
            facts.codec_definers.add(module)
    return facts
