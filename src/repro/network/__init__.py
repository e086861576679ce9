"""Network substrate: event kernel, packets, links, topologies, simulator.

Invariants the package as a whole guarantees: simulated time is the only
time source; every random draw is seeded; flows keep FIFO delivery
end-to-end (fixed per-flow routes, FIFO links, priority queues that are
FIFO within a class, and the endpoint reorder buffer above); and
same-instant resource contention resolves by deterministic arbitration
keys, never by event-callback accidents — the properties ``repro lint``
(R5/R8-R11) and ``repro sanitize`` enforce.
"""

from .events import (
    FIFO_TIE_BREAK,
    Event,
    Process,
    SeededTieBreak,
    Simulation,
    Store,
    TieBreak,
    flow_hash,
)
from .loss import DeliveryFailure, LossModel, RetransmitPolicy
from .link import Link
from .reduction import (
    ReduceInput,
    ReduceStage,
    ReductionPlan,
    build_reduction_plan,
)
from .priority import (
    PRIORITY_CLASSES,
    PRIORITY_DEFAULT,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PriorityLink,
)
from .tenants import (
    TOS_TENANT_INFER,
    TOS_TENANT_TRAIN,
    BackgroundTraffic,
    TenantSpec,
    parse_tenants,
)
from .packet import (
    DEFAULT_MSS,
    HEADER_BYTES,
    TOS_COMPRESS,
    TOS_DEFAULT,
    Packet,
    packet_count,
    segment_bytes,
)
from .simulator import MessageReceipt, Network, NicTimingModel
from .topology import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LINK_LATENCY_S,
    DEFAULT_SWITCH_DELAY_S,
    DirectRing,
    FatTree,
    LeafSpine,
    MultiTierFabric,
    Route,
    SwitchedStar,
    Topology,
    TwoTierFabric,
    build_topology,
    parse_topology_spec,
    rack_aligned_ring_order,
    rack_interleaved_ring_order,
)

__all__ = [
    "Event",
    "FIFO_TIE_BREAK",
    "SeededTieBreak",
    "TieBreak",
    "flow_hash",
    "FatTree",
    "LeafSpine",
    "MultiTierFabric",
    "build_topology",
    "parse_topology_spec",
    "ReduceInput",
    "ReduceStage",
    "ReductionPlan",
    "build_reduction_plan",
    "PRIORITY_CLASSES",
    "PRIORITY_DEFAULT",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PriorityLink",
    "TOS_TENANT_INFER",
    "TOS_TENANT_TRAIN",
    "BackgroundTraffic",
    "TenantSpec",
    "parse_tenants",
    "TwoTierFabric",
    "rack_aligned_ring_order",
    "rack_interleaved_ring_order",
    "DeliveryFailure",
    "LossModel",
    "RetransmitPolicy",
    "Process",
    "Simulation",
    "Store",
    "Link",
    "DEFAULT_MSS",
    "HEADER_BYTES",
    "TOS_COMPRESS",
    "TOS_DEFAULT",
    "Packet",
    "packet_count",
    "segment_bytes",
    "MessageReceipt",
    "Network",
    "NicTimingModel",
    "DEFAULT_BANDWIDTH_BPS",
    "DEFAULT_LINK_LATENCY_S",
    "DEFAULT_SWITCH_DELAY_S",
    "DirectRing",
    "Route",
    "SwitchedStar",
    "Topology",
]
