"""Typed trace events keyed by simulated time.

The model follows Chrome's trace-event format closely enough that
conversion (:func:`repro.obs.export.to_chrome`) is mechanical: an event
is either a *complete span* (``ph == "X"``, with a duration) or an
*instant* (``ph == "i"``).  Timestamps are simulated seconds — the
tracer never reads a wall clock, so traces are deterministic and
replayable.

Categories partition the stack's layers:

``message``   message-level send/deliver/retransmit (network simulator)
``link``      per-train occupancy of a wire link (FIFO reservation)
``engine``    per-train occupancy of a NIC (de)compression engine
``ring``      Algorithm 1 P1/P2 steps (distributed ring)
``hier``      hierarchical exchange levels (group ring / leader ring /
              broadcast)
``async``     asynchronous parameter-server rounds and updates
``codec``     compress/decompress calls with the achieved ratio
``phase``     Table II phase attribution (forward, backward, gpu_copy,
              gradient_sum, update) — one span per non-zero add of the
              run's :class:`~repro.obs.ledger.PhaseLedger`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from .metrics import Metrics

#: Complete span (has a duration).
PH_SPAN = "X"
#: Instantaneous event.
PH_INSTANT = "i"

CAT_MESSAGE = "message"
CAT_LINK = "link"
CAT_ENGINE = "engine"
CAT_RING = "ring"
CAT_HIER = "hier"
CAT_ASYNC = "async"
CAT_CODEC = "codec"
CAT_PHASE = "phase"
#: Strategy-driver events (one ``strategy.exchange`` span per worker
#: iteration, plus strategy-specific sync/apply records).
CAT_STRATEGY = "strategy"


@dataclass
class TraceEvent:
    """One recorded occurrence, span or instant, in simulated time."""

    name: str
    cat: str
    ph: str
    ts: float
    dur: float = 0.0
    node: Optional[int] = None
    args: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the trace file's event record)."""
        out: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.ts,
        }
        if self.ph == PH_SPAN:
            out["dur"] = self.dur
        if self.node is not None:
            out["node"] = self.node
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Append-only collector of :class:`TraceEvent` records.

    Instrumented code holds an ``Optional[Tracer]`` and guards every
    record with ``if tracer is not None`` — a ``None`` tracer is the
    zero-cost disabled path.  The tracer owns a :class:`Metrics`
    registry so one nullable handle threads both facilities through the
    stack.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.events: List[TraceEvent] = []
        self.metrics = metrics if metrics is not None else Metrics()

    def __len__(self) -> int:
        return len(self.events)

    def span(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        node: Optional[int] = None,
        **args: object,
    ) -> TraceEvent:
        """Record a complete span starting at ``ts`` lasting ``dur``."""
        event = TraceEvent(
            name=name,
            cat=cat,
            ph=PH_SPAN,
            ts=ts,
            dur=dur,
            node=node,
            args=args or None,
        )
        self.events.append(event)
        return event

    def instant(
        self,
        name: str,
        cat: str,
        ts: float,
        node: Optional[int] = None,
        **args: object,
    ) -> TraceEvent:
        """Record an instantaneous event at ``ts``."""
        event = TraceEvent(
            name=name,
            cat=cat,
            ph=PH_INSTANT,
            ts=ts,
            node=node,
            args=args or None,
        )
        self.events.append(event)
        return event

    # -- queries ------------------------------------------------------------

    def events_in(self, cat: str, name: Optional[str] = None) -> Iterator[TraceEvent]:
        """Events of one category (optionally one name), in record order."""
        for event in self.events:
            if event.cat == cat and (name is None or event.name == name):
                yield event

    def count(self, cat: str, name: Optional[str] = None) -> int:
        """Number of recorded events matching ``cat`` (and ``name``)."""
        return sum(1 for _ in self.events_in(cat, name))

    def phase_totals(self, node: Optional[int] = None) -> Dict[str, float]:
        """Summed durations of ``phase``-category spans, keyed by name.

        A view of the run's :class:`~repro.obs.ledger.PhaseLedger`,
        which emitted the spans: each phase's total is the sum of its
        span durations in record order, so the floating-point
        accumulation repeats the ledger's ``+=`` exactly.
        """
        totals: Dict[str, float] = {}
        for event in self.events:
            if event.cat != CAT_PHASE or event.ph != PH_SPAN:
                continue
            if node is not None and event.node != node:
                continue
            totals[event.name] = totals.get(event.name, 0.0) + event.dur
        return totals

    def span_total(self, cat: str, name: Optional[str] = None) -> float:
        """Summed duration of every span in ``cat`` (optionally by name)."""
        return sum(
            e.dur for e in self.events_in(cat, name) if e.ph == PH_SPAN
        )
