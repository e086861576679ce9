"""Observability: stack-wide tracing and metrics for the simulated cluster.

Dependency-free.  A :class:`Tracer` collects typed span/instant events
keyed by *simulated* time (message send/deliver, per-train link and
engine occupancy, ring P1/P2 steps, codec calls with achieved ratio,
retransmits); its attached :class:`Metrics` registry collects
counters/gauges/histograms (wire bytes by ToS/codec, tag-class
histograms, queue depths, trains retransmitted); its :class:`PhaseLedger`
holds a run's Table II rows and feeds the tracer ``phase`` spans.

Every instrumentation site in the stack is guarded by
``if tracer is not None`` so the disabled path adds no allocations and
no timing-visible work — an untraced run is bit-identical to the
pre-observability code.
"""

from .diff import TraceDiff, canonical_events, diff_traces, trace_fingerprint
from .metrics import Counter, Gauge, Histogram, Metrics
from .tracer import (
    CAT_ASYNC,
    CAT_CODEC,
    CAT_ENGINE,
    CAT_HIER,
    CAT_LINK,
    CAT_MESSAGE,
    CAT_PHASE,
    CAT_RING,
    CAT_STRATEGY,
    PH_INSTANT,
    PH_SPAN,
    TraceEvent,
    Tracer,
)
from .export import (
    load_trace,
    to_chrome,
    trace_document,
    write_chrome,
    write_trace,
)
from .ledger import (
    PHASE_NAMES, ZERO_COMPUTE, ComputeProfile, PhaseLedger, PhaseTimes,
)
from .schema import TRACE_SCHEMA, TRACE_SCHEMA_NAME, TRACE_SCHEMA_VERSION, validate_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "TraceEvent",
    "Tracer",
    "CAT_ASYNC",
    "CAT_CODEC",
    "CAT_ENGINE",
    "CAT_HIER",
    "CAT_LINK",
    "CAT_MESSAGE",
    "CAT_PHASE",
    "CAT_RING",
    "CAT_STRATEGY",
    "PH_INSTANT",
    "PH_SPAN",
    "load_trace",
    "to_chrome",
    "trace_document",
    "write_chrome",
    "write_trace",
    "PHASE_NAMES",
    "ComputeProfile",
    "ZERO_COMPUTE",
    "PhaseLedger",
    "PhaseTimes",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_NAME",
    "TRACE_SCHEMA_VERSION",
    "validate_trace",
    "TraceDiff",
    "canonical_events",
    "diff_traces",
    "trace_fingerprint",
]
