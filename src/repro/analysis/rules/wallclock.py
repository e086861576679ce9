"""R8 — wall-clock reads are banned inside the simulated stack.

Every result in this repository is pinned sha256-exact, which requires
runs to be pure functions of their seeds.  The event kernel owns the
only clock (``Simulation.now``, *simulated* seconds); a single
``time.time()`` or ``datetime.now()`` call anywhere in the stack makes
output depend on the host machine and the moment of execution, breaking
replay in ways no test pins catch until they flake.

Flags calls to:

* ``time.time`` / ``time.time_ns`` / ``time.perf_counter`` /
  ``time.monotonic`` / ``time.process_time`` (and their ``_ns``
  variants) / ``time.clock_gettime`` — via the module attribute or a
  bare name imported with ``from time import ...``;
* ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today`` /
  ``date.today`` (including the ``datetime.datetime.now()`` spelling).

The one legitimate consumer is artifact export: a trace file may stamp
*when it was written* because that metadata never feeds back into
simulation state.  ``repro.obs.export`` is therefore exempt; everything
else must thread ``sim.now`` or go without a timestamp.  (Host-clock
benchmarking lives outside the package, in ``perfbench/``.)
"""

from __future__ import annotations

import ast
from typing import Set

from ..engine import RuleContext
from .base import Rule

#: Functions in the stdlib ``time`` module that read the host clock.
TIME_FUNCTIONS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``datetime``/``date`` constructors that capture the current moment.
DATETIME_FUNCTIONS = frozenset({"now", "utcnow", "today"})

#: Modules allowed to read the host clock: artifact export (timestamps
#: on trace files).
EXEMPT_MODULES = frozenset({"repro.obs.export"})


class WallClockRule(Rule):
    code = "R8"
    name = "wall-clock"
    description = (
        "host clock reads (time.time, perf_counter, datetime.now, ...) "
        "break seed-exact replay; use Simulation.now for simulated time"
    )

    def __init__(self) -> None:
        #: Names bound by ``from time import ...`` in the current file.
        self._imported_time_fns: Set[str] = set()

    def applies_to(self, ctx: RuleContext) -> bool:
        return ctx.module not in EXEMPT_MODULES

    def begin_file(self, ctx: RuleContext) -> None:
        self._imported_time_fns = set()
        assert ctx.file.tree is not None
        for node in ast.walk(ctx.file.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in TIME_FUNCTIONS:
                        self._imported_time_fns.add(
                            alias.asname or alias.name
                        )

    def visit_Call(self, node: ast.Call, ctx: RuleContext) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._imported_time_fns:
                ctx.report(
                    node,
                    f"{func.id}() reads the host clock; simulated "
                    "components must use Simulation.now",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        if (
            func.attr in TIME_FUNCTIONS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            ctx.report(
                node,
                f"time.{func.attr}() reads the host clock; simulated "
                "components must use Simulation.now",
            )
            return
        if func.attr in DATETIME_FUNCTIONS:
            owner = func.value
            owner_name = None
            if isinstance(owner, ast.Name):
                owner_name = owner.id
            elif isinstance(owner, ast.Attribute):
                owner_name = owner.attr
            if owner_name in ("datetime", "date"):
                ctx.report(
                    node,
                    f"{owner_name}.{func.attr}() captures wall-clock "
                    "time; results must be a pure function of seeds "
                    "(repro.obs.export is the one exempt module)",
                )
