"""The lint rule set.

Adding a rule: write a module in this package with a :class:`Rule`
subclass, give it the next free ``R<n>`` code, and append it to
``ALL_RULES``.  The engine, CLI ``--select``, suppression comments, and
the JSON output pick it up automatically.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Type

from .agg_site import AggregationSiteRule
from .annotations import AnnotationsRule
from .base import Rule
from .dtype import DtypeDisciplineRule
from .mutable_defaults import MutableDefaultsRule
from .ordering import IterationOrderRule
from .rng import SeededRngRule
from .wallclock import WallClockRule

#: Every registered rule class, in code order.
ALL_RULES: Sequence[Type[Rule]] = (
    DtypeDisciplineRule,
    AnnotationsRule,
    WallClockRule,
    SeededRngRule,
    IterationOrderRule,
    MutableDefaultsRule,
    AggregationSiteRule,
)

#: Retired codes -> what enforces the invariant now.  Docs and old
#: suppression comments cite codes, so a retired number is never reused.
RETIRED: Dict[str, str] = {
    "R2": "the interpreter rejects the removed deprecated names",
    "R3": "`register_codec` raises at import",
    "R4": "the `*_bits` functions are table look-ups and perfbench "
    "measures the codec path",
    "R6": "the interpreter rejects the removed shim names",
    "R7": "`run_strategy` is the only driver and `register_strategy` "
    "raises on a duplicate name",
}


def default_rules() -> List[Rule]:
    """Fresh instances of every rule with default configuration."""
    return [cls() for cls in ALL_RULES]


def rules_by_code() -> Dict[str, Type[Rule]]:
    """Map upper-cased codes *and* names to rule classes."""
    table: Dict[str, Type[Rule]] = {}
    for cls in ALL_RULES:
        table[cls.code.upper()] = cls
        table[cls.name.upper()] = cls
    return table


def select_rules(selection: Sequence[str]) -> List[Rule]:
    """Instantiate the rules named by codes/names in ``selection``."""
    table = rules_by_code()
    chosen: List[Rule] = []
    seen = set()
    for entry in selection:
        key = entry.strip().upper()
        if not key:
            continue
        if key in RETIRED:
            raise KeyError(f"{key} was retired: {RETIRED[key]}")
        if key not in table:
            known = ", ".join(cls.code for cls in ALL_RULES)
            raise KeyError(f"unknown rule {entry!r}; known rules: {known}")
        cls = table[key]
        if cls.code not in seen:
            seen.add(cls.code)
            chosen.append(cls())
    return chosen


__all__ = [
    "ALL_RULES",
    "AggregationSiteRule",
    "AnnotationsRule",
    "DtypeDisciplineRule",
    "IterationOrderRule",
    "MutableDefaultsRule",
    "RETIRED",
    "Rule",
    "SeededRngRule",
    "WallClockRule",
    "default_rules",
    "rules_by_code",
    "select_rules",
]
