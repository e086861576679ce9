"""Transport layer: endpoints, wire messages, ToS tagging over the simulator."""

from .aggregation import (
    AGG_ENDPOINT,
    AGG_SITES,
    AGG_SWITCH,
    GatherPart,
    SwitchGather,
    aggregate_endpoint,
    combine_parts,
    validate_agg_site,
)
from .endpoint import (
    ClusterComm,
    ClusterConfig,
    Endpoint,
    TransferSummary,
)
from .wire import (
    SizedPayload,
    WireMessage,
    build_wire_message,
    measure_stream_ratio,
)

__all__ = [
    "AGG_ENDPOINT",
    "AGG_SITES",
    "AGG_SWITCH",
    "GatherPart",
    "SwitchGather",
    "aggregate_endpoint",
    "combine_parts",
    "validate_agg_site",
    "ClusterComm",
    "ClusterConfig",
    "Endpoint",
    "TransferSummary",
    "SizedPayload",
    "WireMessage",
    "build_wire_message",
    "measure_stream_ratio",
]
