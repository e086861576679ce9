"""Aggregation sites: where the gradient sum physically happens.

The worker-aggregator exchange has always summed at the *endpoint*: every
worker's stream crosses the whole fabric and the aggregator host folds
arrivals one by one.  With a homomorphic codec (one whose
``aggregate_compressed`` algebra sums payloads without decompressing —
see :mod:`repro.core.homomorphic`) the sum can instead happen at the
*switch*: payloads climb the fabric's reduction tree
(:mod:`repro.network.reduction`) and every merge vertex folds its fan-in
through an :class:`~repro.hardware.aggregation_engine.AggregationEngine`
before forwarding one partial sum upward.  Fewer bytes traverse the
upper tiers — the fan-in reduction INCEPTIONN-style in-network
co-design is after.

This module is the one place that knows both dispositions:

* :data:`AGG_ENDPOINT` / :data:`AGG_SWITCH` — the ``agg_site`` knob's
  values (``ClusterConfig.agg_site``, ``--agg-site``).
* :class:`GatherPart` — one reduction operand: its raw/wire sizes and
  fan-in, plus the functional :class:`~repro.core.CodecResult` when
  real values are moving (``None`` for size-only timing studies).
* :func:`combine_parts` — the shared fold, functional or size-only.
* :class:`SwitchGather` — the runtime: per-edge FIFO stores buffer
  fan-in, persistent reduce processes at each merge vertex charge
  engine cycles and forward partials over explicit route segments with
  plan-assigned arbitration identities (no callback-order races).

Strategies and the perfmodel never inline decompress → sum → recompress
sequences themselves; lint rule R12 holds them to this layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
)

import numpy as np

from repro.core import CodecResult, StreamProfile
from repro.hardware.aggregation_engine import AggregationEngine
from repro.network import Event, Store
from repro.network.topology import MultiTierFabric
from repro.network.reduction import (
    ReduceInput,
    ReduceStage,
    ReductionPlan,
    build_reduction_plan,
)
from repro.obs import CAT_ENGINE

from .wire import Payload, SizedPayload

if TYPE_CHECKING:
    from .endpoint import ClusterComm

#: Sum at the aggregating endpoint (the historical disposition).
AGG_ENDPOINT = "endpoint"
#: Sum in-network, at the fabric's reduction-tree merge vertices.
AGG_SWITCH = "switch"
#: Every valid ``agg_site`` value.
AGG_SITES = (AGG_ENDPOINT, AGG_SWITCH)


def validate_agg_site(site: str) -> str:
    """Check an ``agg_site`` value, returning it for chaining."""
    if site not in AGG_SITES:
        choices = ", ".join(AGG_SITES)
        raise ValueError(f"agg_site must be one of {choices}; got {site!r}")
    return site


@dataclass(frozen=True)
class GatherPart:
    """One operand of a reduction: sizes, fan-in, and (maybe) values.

    ``result`` carries the functional compressed representation; it is
    ``None`` in size-only mode, where only ``payload_nbytes`` moves and
    the codec's ``aggregate_payload_nbytes`` models the folded size.
    """

    raw_nbytes: int
    payload_nbytes: int
    fan_in: int
    result: Optional[CodecResult] = None


def combine_parts(
    stream: StreamProfile, parts: Sequence[GatherPart]
) -> GatherPart:
    """Fold reduction operands in the compressed domain.

    Functional when every part carries a :class:`~repro.core.CodecResult`
    (the codec algebra sums payloads exactly); size-only otherwise.
    """
    if not parts:
        raise ValueError("a reduction needs at least one part")
    raw_nbytes = parts[0].raw_nbytes
    if any(p.raw_nbytes != raw_nbytes for p in parts):
        raise ValueError("reduction parts disagree on raw gradient size")
    fan_in = sum(p.fan_in for p in parts)
    if all(p.result is not None for p in parts):
        results: List[CodecResult] = [p.result for p in parts if p.result is not None]
        agg = stream.aggregate_compressed(results)
        return GatherPart(
            raw_nbytes=raw_nbytes,
            payload_nbytes=agg.payload_nbytes,
            fan_in=agg.fan_in,
            result=agg,
        )
    payload = stream.aggregate_payload_nbytes(
        raw_nbytes, [p.payload_nbytes for p in parts], fan_in
    )
    return GatherPart(
        raw_nbytes=raw_nbytes,
        payload_nbytes=int(payload),
        fan_in=fan_in,
        result=None,
    )


def aggregate_endpoint(
    stream: StreamProfile, gradients: Sequence[np.ndarray]
) -> np.ndarray:
    """Endpoint-site sum of received reconstructions, via the algebra.

    Re-compressing a codec's own reconstruction recovers its exact
    compressed representation (lossless codecs reproduce the values;
    THC re-quantizes lattice points onto themselves), so folding through
    ``aggregate_compressed`` here is bit-identical to the switch site's
    in-flight reduction of the original parts.
    """
    parts = [
        stream.compress(
            np.ascontiguousarray(grad, dtype=np.float32).reshape(-1)
        )
        for grad in gradients
    ]
    if not parts:
        raise ValueError("endpoint aggregation needs at least one gradient")
    return stream.aggregate_compressed(parts).values


class SwitchGather:
    """In-network reduction of one gather tree over a multi-tier fabric.

    Construction validates the co-design pair — a
    :class:`~repro.network.topology.MultiTierFabric` to host engines and
    a homomorphic codec as the cluster's stream (``comm.config.profile``,
    whose NIC engines mark the ToS class) to fold payloads — builds the
    :class:`ReductionPlan`, and spawns one persistent reduce process per
    switch stage.  Per round:

    * each source calls :meth:`offer` (non-blocking) — its compressed
      part rides the leaf segment toward the first merge vertex;
    * every merge vertex buffers its full fan-in (per-edge FIFO
      stores), folds via :func:`combine_parts`, charges
      :class:`AggregationEngine` cycles, and forwards one partial;
    * the root calls ``yield from collect()`` for the folded part.

    FIFO stores keep successive rounds aligned; plan-assigned segment
    identities keep same-instant link arbitration deterministic.
    """

    def __init__(
        self,
        comm: "ClusterComm",
        root: int,
        sources: Sequence[int],
    ) -> None:
        fabric = comm.topology
        if not isinstance(fabric, MultiTierFabric):
            raise ValueError(
                "agg_site='switch' needs a multi-tier fabric topology "
                "(e.g. --topology fat-tree:k=4); the switched star has "
                "no reduction points"
            )
        stream = comm.config.profile
        if stream is None or not stream.homomorphic:
            codec = "raw" if stream is None else repr(stream.codec)
            raise ValueError(
                f"agg_site='switch' needs a homomorphic codec; {codec} "
                "has no compressed-domain aggregation algebra "
                "(try lossless_hc or thc)"
            )
        self.comm = comm
        self.fabric = fabric
        self.stream = stream
        self.root = root
        self.plan: ReductionPlan = build_reduction_plan(fabric, sources, root)
        self._root_vertex = fabric.host_id(root)
        #: One FIFO store per tree edge, keyed by plan segment index.
        self._stores: Dict[int, Store] = {}
        #: Non-root stage index -> its uplink edge at the parent stage.
        self._uplinks: Dict[int, ReduceInput] = {}
        #: Source host -> its leaf edge into the first merge vertex.
        self._leaves: Dict[int, ReduceInput] = {}
        for stage in self.plan.stages:
            for inp in stage.inputs:
                self._stores[inp.segment] = Store(comm.sim)
                if inp.stage is not None:
                    self._uplinks[inp.stage] = inp
                if inp.host is not None:
                    self._leaves[inp.host] = inp
        self._offer_rounds: Dict[int, int] = {}
        #: Reductions performed at switch vertices (not the root NIC).
        self.switch_reductions = 0
        for stage in self.plan.switch_stages:
            comm.sim.process(self._reduce_process(stage))

    def engine(self, vertex: str) -> AggregationEngine:
        """The (shared) aggregation engine hosted at a fabric vertex."""
        return self.fabric.aggregation_engine(vertex, AggregationEngine)

    def engine_cycles(self) -> int:
        """Total cycles across every engine this fabric hosts."""
        engines = self.fabric.aggregation_engines
        return sum(engines[v].total_cycles for v in sorted(engines))

    def offer(self, host: int, payload: Payload) -> Event:
        """Launch one source's contribution for its next round.

        A functional array runs the stream codec once, here, at the
        worker NIC; a :class:`~repro.transport.wire.SizedPayload` ships
        its size at its measured ratio, as a size-only endpoint send
        would.  Non-blocking: returns the leaf segment's delivery event.
        """
        leaf = self._leaves.get(host)
        if leaf is None:
            raise ValueError(
                f"host {host} is not a source of this reduction tree"
            )
        if isinstance(payload, SizedPayload):
            part = GatherPart(
                raw_nbytes=payload.nbytes,
                payload_nbytes=payload.compressed_nbytes,
                fan_in=1,
            )
        else:
            arr = np.ascontiguousarray(payload, dtype=np.float32).reshape(-1)
            result = self.stream.compress(arr)
            part = GatherPart(
                raw_nbytes=arr.nbytes,
                payload_nbytes=result.payload_nbytes,
                fan_in=result.fan_in,
                result=result,
            )
        round_no = self._offer_rounds.get(host, 0)
        self._offer_rounds[host] = round_no + 1
        return self._send_segment(leaf, part, round_no)

    def collect(self) -> Generator[Event, Any, GatherPart]:
        """One round's folded part, as seen by the root endpoint.

        A simulation-process generator: buffers the root stage's fan-in,
        charges the root-hosted engine when more than one edge arrives,
        and returns the fully folded :class:`GatherPart`.
        """
        stage = self.plan.root_stage
        parts: List[GatherPart] = []
        for inp in stage.inputs:
            part = yield self._stores[inp.segment].get()
            parts.append(part)
        if len(parts) == 1:
            return parts[0]
        combined, dt = self._reduce(stage, parts)
        if dt:
            yield self.comm.sim.timeout(dt)
        return combined

    # -- internals ----------------------------------------------------

    def _reduce(
        self, stage: ReduceStage, parts: Sequence[GatherPart]
    ) -> "tuple[GatherPart, float]":
        """Fold one stage's operands, charging its engine."""
        start = self.comm.sim.now
        combined = combine_parts(self.stream, parts)
        engine = self.engine(stage.vertex)
        stats = engine.reduce(
            [p.payload_nbytes for p in parts], combined.payload_nbytes
        )
        dt = stats.elapsed_s()
        tracer = self.comm.tracer
        if tracer is not None:
            tracer.span(
                "aggregation.reduce",
                cat=CAT_ENGINE,
                ts=start,
                dur=dt,
                node=self.root,
                vertex=stage.vertex,
                fan_in=stats.fan_in,
                bytes_in=stats.bytes_in,
                bytes_out=stats.bytes_out,
                cycles=stats.cycles,
            )
        return combined, dt

    def _reduce_process(
        self, stage: ReduceStage
    ) -> Generator[Event, Any, None]:
        """Persistent reduce loop at one switch vertex."""
        uplink = self._uplinks[stage.index]
        round_no = 0
        while True:
            parts: List[GatherPart] = []
            for inp in stage.inputs:
                part = yield self._stores[inp.segment].get()
                parts.append(part)
            combined, dt = self._reduce(stage, parts)
            self.switch_reductions += 1
            if dt:
                yield self.comm.sim.timeout(dt)
            self._send_segment(uplink, combined, round_no)
            round_no += 1

    def _send_segment(
        self, inp: ReduceInput, part: GatherPart, round_no: int
    ) -> Event:
        """Move one part along its tree edge; deliver into its store."""
        route = self.fabric.segment_route(inp.vertices)
        src = inp.host if inp.host is not None else self.root
        arb_base = (
            self.root,
            self.root,
            round_no * self.plan.num_segments + inp.segment,
        )
        into_root = inp.vertices[-1] == self._root_vertex
        event = self.comm.network.send_route(
            route,
            src,
            self.root,
            part.raw_nbytes,
            part.payload_nbytes,
            tos=self.stream.tos,
            payload=part,
            tx_engine_node=inp.host,
            rx_engine_node=self.root if into_root else None,
            arb_base=arb_base,
        )
        self.comm.transfers = self.comm.transfers.add(
            part.raw_nbytes, part.payload_nbytes, True, len(route.links)
        )
        store = self._stores[inp.segment]
        event.add_callback(lambda _ev: store.put(part))
        return event


__all__ = [
    "AGG_ENDPOINT",
    "AGG_SITES",
    "AGG_SWITCH",
    "GatherPart",
    "SwitchGather",
    "aggregate_endpoint",
    "combine_parts",
    "validate_agg_site",
]
