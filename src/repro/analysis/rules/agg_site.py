"""R12: decompress → sum → recompress belongs to the aggregation layer.

The aggregation-site refactor gives every homomorphic codec a
compressed-domain algebra (``aggregate_compressed``) and routes both
endpoint and in-network reduction through it.  A function elsewhere
that decompresses payloads, sums the reconstructions, and re-encodes
the total silently reimplements that algebra — and drifts from it the
moment a codec changes its framing, breaking the switch/endpoint parity
pins.

This is a cross-file property: the exempt layer is discovered
during the project pre-pass — modules defining an aggregation entry
point (``aggregate_compressed``, ``aggregate_endpoint``,
``combine_parts``) and codec-implementation modules (defining both
``compress`` and ``decompress``; error feedback legitimately
reconstructs and re-encodes inside a codec).  The per-file check only
fires when the linted tree has an aggregation layer at all, so fixture
subtrees stay quiet.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..engine import RuleContext
from .base import Rule, call_name

#: Calls that realize "sum the reconstructions".
_SUM_CALLS = {"sum", "add", "reduce"}


def _word_match(name: Optional[str], word: str) -> bool:
    """``name`` is ``word`` or carries it as an underscore-delimited part.

    Catches ``decompress``, ``codec_decompress``, ``decompress_block`` —
    but not ``decompression_time`` (a cost model, not a payload op).
    """
    if name is None:
        return False
    return (
        name == word
        or name.startswith(word + "_")
        or name.endswith("_" + word)
        or f"_{word}_" in name
    )


def _is_decompress(name: Optional[str]) -> bool:
    return _word_match(name, "decompress")


def _is_compress(name: Optional[str]) -> bool:
    return _word_match(name, "compress") and not _is_decompress(name)


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class AggregationSiteRule(Rule):
    """Confine inline compressed-domain summing to the aggregation layer."""

    code = "R12"
    name = "aggregation-site-calls"
    description = (
        "functions that decompress payloads, sum them, and recompress "
        "must live in the aggregation-site layer (modules defining "
        "aggregate_compressed/aggregate_endpoint/combine_parts) or in a "
        "codec implementation; everywhere else, use "
        "StreamProfile.aggregate_compressed"
    )

    def _check_function(
        self, node: ast.AST, ctx: RuleContext
    ) -> None:
        project = ctx.project
        if not project.aggregation_definers:
            # The linted tree has no aggregation layer (fixture
            # snippets, partial subtrees) — nothing to confine.
            return
        if ctx.module in project.aggregation_definers:
            return
        if ctx.module in project.codec_definers:
            return
        decompress_seen = False
        summed = False
        recompress: Optional[ast.Call] = None
        for sub in _own_nodes(node):
            if isinstance(sub, ast.Call):
                callee = call_name(sub)
                if _is_decompress(callee):
                    decompress_seen = True
                elif _is_compress(callee):
                    recompress = recompress or sub
                elif callee in _SUM_CALLS:
                    summed = True
            elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Add):
                summed = True
            elif isinstance(sub, ast.AugAssign) and isinstance(
                sub.op, ast.Add
            ):
                summed = True
        if decompress_seen and summed and recompress is not None:
            ctx.report(
                recompress,
                "inline decompress -> sum -> recompress outside the "
                "aggregation-site layer; use "
                "StreamProfile.aggregate_compressed (or the transport "
                "aggregation API) so compressed-domain reduction stays "
                "in one place",
            )

    def visit_FunctionDef(
        self, node: ast.FunctionDef, ctx: RuleContext
    ) -> None:
        self._check_function(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: RuleContext
    ) -> None:
        self._check_function(node, ctx)
