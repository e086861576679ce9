"""Host-clock span recorder and the table of patch points.

The harness measures the layers of ``repro`` from outside.  Two kinds of
span feed one :class:`Recorder`:

* *explicit* spans — ``with rec.span(name, layer):`` around a call the
  harness itself makes into a layer (always on; two clock reads each);
* *patched* spans — wrappers installed on the public entry points in
  :data:`PATCH_POINTS` for the traced pass only, and removed after it.

A span is ``[id, parent, op, name, layer, start, end]`` on the host's
``perf_counter`` clock.  Spans of one operation share its ``op`` id, and
``parent`` is the span that was open when this one started.  A span's
self time is its duration minus the part of that interval its direct
children cover, so the self times of one operation's spans sum to the
operation's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import sys
import warnings
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

ID, PARENT, OP, NAME, LAYER, START, END = range(7)
SPAN_FIELDS = ("id", "parent", "op", "name", "layer", "start", "end")

#: Layer of the harness's own root span around each operation.
HARNESS_LAYER = "perfbench"

#: ``(span name, layer, module, attribute path)`` — public entry points
#: only, so a refactor behind them cannot break the benchmark.  A module
#: function is replaced under every name that binds it (``from x import
#: f`` aliases included); a method is replaced on its class.
PATCH_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.stream_compress", "core", "repro.core.registry", "StreamProfile.compress"),
    ("core.aggregate", "core", "repro.core.registry", "StreamProfile.aggregate_compressed"),
    ("transport.build_wire_message", "transport", "repro.transport.wire", "build_wire_message"),
    ("transport.endpoint.isend", "transport", "repro.transport.endpoint", "Endpoint.isend_message"),
    ("transport.aggregation", "transport", "repro.transport.aggregation", "combine_parts"),
    ("transport.aggregation", "transport", "repro.transport.aggregation", "aggregate_endpoint"),
    ("transport.switch_gather", "transport", "repro.transport.aggregation", "SwitchGather.__init__"),
    ("network.kernel", "network", "repro.network.events", "Simulation.run"),
    ("network.send", "network", "repro.network.simulator", "Network.send"),
    ("network.send", "network", "repro.network.simulator", "Network.send_wire"),
    ("network.send", "network", "repro.network.simulator", "Network.send_route"),
    ("perfmodel.simulate_ring_exchange", "perfmodel", "repro.perfmodel.exchange", "simulate_ring_exchange"),
    ("perfmodel.simulate_wa_exchange", "perfmodel", "repro.perfmodel.exchange", "simulate_wa_exchange"),
    ("distributed.run_strategy", "distributed", "repro.distributed.strategy", "run_strategy"),
    ("dnn.local_gradient", "dnn", "repro.dnn.training", "LocalTrainer.local_gradient"),
    ("dnn.apply_gradient", "dnn", "repro.dnn.training", "LocalTrainer.apply_gradient"),
)

#: Patched spans whose first argument (``self``) is kept for the
#: operation, so exact counters can be read from the object afterwards.
KEEP_SELF = frozenset({"transport.switch_gather"})


class _Span:
    """Context manager for one explicit span (cheaper than a generator)."""

    __slots__ = ("_rec", "_name", "_layer")

    def __init__(self, rec: "Recorder", name: str, layer: str) -> None:
        self._rec = rec
        self._name = name
        self._layer = layer

    def __enter__(self) -> None:
        self._rec.push(self._name, self._layer)

    def __exit__(self, *exc: object) -> None:
        self._rec.pop()


class Recorder:
    """In-memory span store; written out by the caller when the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[list] = []
        self._op = -1
        #: ``{span name: [self objects]}`` for :data:`KEEP_SELF` points,
        #: cleared at the start of every operation.
        self.kept: Dict[str, List[Any]] = {}

    def span(self, name: str, layer: str) -> _Span:
        return _Span(self, name, layer)

    def operation(self, op: int) -> _Span:
        """The root span of operation ``op``; children inherit its id."""
        self._op = op
        self.kept = {}
        return _Span(self, "op", HARNESS_LAYER)

    def push(self, name: str, layer: str) -> None:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), parent, self._op, name, layer, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        span[START] = perf_counter()

    def pop(self) -> None:
        end = perf_counter()
        self._stack.pop()[END] = end

    def wrap(self, name: str, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper recording one span per call of ``fn``."""
        push, pop = self.push, self.pop
        keep = name in KEEP_SELF

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if keep:
                self.kept.setdefault(name, []).append(args[0])
            push(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return traced


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[int, float]:
    """``{span id: duration minus the time its direct children cover}``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered(span[START], span[END], children.get(span[ID], ()))
        for span in spans
    }


def per_op_means(
    spans: Sequence[Sequence[Any]], key: int, scale: Dict[int, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Self seconds and calls per operation, grouped by ``key``.

    ``key`` is :data:`NAME` or :data:`LAYER`; ``scale`` maps an operation
    id to the factor its seconds are multiplied by (its calibration).
    The means run over the distinct operations the spans belong to.
    """
    own = self_times(spans)
    num_ops = max(len({span[OP] for span in spans}), 1)
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span in spans:
        group = span[key]
        seconds[group] = seconds.get(group, 0.0) + own[span[ID]] * scale[span[OP]]
        calls[group] = calls.get(group, 0) + 1
    return (
        {group: total / num_ops for group, total in seconds.items()},
        {group: count / num_ops for group, count in calls.items()},
    )


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for one patch point."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def install(rec: Recorder) -> Tuple[List[Tuple[Any, str, Any]], List[str]]:
    """Wrap every resolvable patch point; returns ``(undo, missing)``.

    A point that no longer resolves is reported in ``missing`` (its
    metrics read as absent) and warned about — never a failed run.
    """
    undo: List[Tuple[Any, str, Any]] = []
    missing: List[str] = []
    for name, layer, module_name, path in PATCH_POINTS:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError) as exc:
            missing.append(name)
            warnings.warn(f"perfbench: patch point {module_name}:{path} is gone ({exc})")
            continue
        wrapped = rec.wrap(name, layer, original)
        if "." in path:
            targets = [(owner, attr)]
        else:
            # A plain function: replace every module-level alias of it.
            targets = [
                (mod, alias)
                for mod in list(sys.modules.values())
                for alias, value in list(getattr(mod, "__dict__", {}).items())
                if value is original
            ]
        for target, alias in targets:
            undo.append((target, alias, original))
            setattr(target, alias, wrapped)
    return undo, missing


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for target, alias, original in reversed(undo):
        setattr(target, alias, original)
