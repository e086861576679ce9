"""Paper-scale gradient-exchange simulation (timing only).

Drives the event-driven network with *size-only* WireMessages — no
multi-hundred-megabyte arrays are materialized — while compression
ratios come from the real codec run on sampled gradient vectors with
the model's empirical value distribution.  This is the machinery behind
Table II, Fig 12 and Fig 15.

Wire sizes come from the same :func:`repro.transport.wire.build_wire_message`
builder the functional ``Endpoint.isend`` path uses, so the timing and
functional domains cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import ErrorBound, StreamProfile, compression_ratio
from repro.core.bounds import DEFAULT_BOUND
from repro.distributed.node import (
    ComputeProfile,
    ZERO_COMPUTE,
    record_compute_phases,
)
from repro.distributed.ring import ring_exchange_sizes
from repro.dnn.models import ModelSpec
from repro.network import Event, RetransmitPolicy, TenantSpec
from repro.obs import CAT_PHASE, Tracer
from repro.transport.aggregation import (
    AGG_ENDPOINT,
    AGG_SWITCH,
    SwitchGather,
    validate_agg_site,
)
from repro.transport.endpoint import ClusterComm, ClusterConfig
from repro.transport.wire import measure_stream_ratio

#: Sample size for measuring a model's compression ratio; large enough
#: for the ratio to be stable to three digits.
RATIO_SAMPLE_VALUES = 1 << 18


def measure_compression_ratio(
    spec: ModelSpec, bound: ErrorBound = DEFAULT_BOUND, seed: int = 0
) -> float:
    """Compression ratio of the model's (synthetic) gradients."""
    rng = np.random.default_rng(seed)
    sample = spec.synthetic_gradients(rng, size=RATIO_SAMPLE_VALUES)
    return compression_ratio(sample, bound)


@dataclass
class ExchangeResult:
    """Timing of a simulated multi-iteration exchange."""

    algorithm: str
    num_workers: int
    nbytes: int
    iterations: int
    total_s: float
    gradient_sum_s: float
    update_s: float
    #: Application bytes sent and their on-wire payload (from the
    #: cluster's transfer log — the WireMessage pipeline's accounting).
    sent_nbytes: int = 0
    wire_payload_nbytes: int = 0
    #: Trains resent due to simulated loss (0 on a lossless fabric).
    trains_retransmitted: int = 0
    #: Background-tenant messages and payload bytes that shared the
    #: fabric during the exchange (0 = dedicated network).
    background_messages: int = 0
    background_nbytes: int = 0
    #: Wire payload weighted by hop count — the link-level load the
    #: fabric carried (the aggregation-site study's comparison figure).
    link_payload_nbytes: int = 0
    #: In-network aggregation accounting (0 under the endpoint site).
    agg_engine_cycles: int = 0
    switch_reductions: int = 0

    @property
    def per_iteration_s(self) -> float:
        return self.total_s / self.iterations

    @property
    def communicate_s(self) -> float:
        """Total time minus the attributed non-communication phases."""
        return max(0.0, self.total_s - self.gradient_sum_s - self.update_s)

    @property
    def wire_ratio(self) -> float:
        """Achieved wire-level compression across the whole exchange."""
        if self.wire_payload_nbytes == 0:
            return 1.0 if self.sent_nbytes == 0 else float("inf")
        return self.sent_nbytes / self.wire_payload_nbytes


def _check_flow_supported(
    tracer: Optional[Tracer],
    loss_rate: float,
    retransmit: Optional[RetransmitPolicy],
    topology: Optional[str] = None,
    tenants: Sequence[TenantSpec] = (),
    prioritize: bool = False,
    agg_site: str = AGG_ENDPOINT,
) -> None:
    """Flow fidelity models dedicated, lossless, untraced stars only."""
    if (
        tracer is not None
        or loss_rate != 0.0
        or retransmit is not None
        or (topology is not None and topology != "star")
        or tenants
        or prioritize
        or agg_site != AGG_ENDPOINT
    ):
        raise ValueError(
            "fidelity='flow' does not model tracing, loss, retransmission, "
            "multi-tier topologies, background tenants or in-network "
            "aggregation; use fidelity='packet' for those studies"
        )


def _make_comm(
    num_nodes: int,
    bandwidth_bps: float,
    bound: ErrorBound,
    train_packets: int,
    stream: Optional[StreamProfile] = None,
    tracer: Optional[Tracer] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    retransmit: Optional[RetransmitPolicy] = None,
    topology: Optional[str] = None,
    tenants: Sequence[TenantSpec] = (),
    prioritize: bool = False,
    tenant_seed: int = 0,
    agg_site: str = AGG_ENDPOINT,
) -> ClusterComm:
    return ClusterComm(
        ClusterConfig(
            num_nodes=num_nodes,
            bandwidth_bps=bandwidth_bps,
            bound=bound,
            train_packets=train_packets,
            profile=stream,
            loss_rate=loss_rate,
            loss_seed=loss_seed,
            retransmit=retransmit,
            topology=topology,
            tenants=tuple(tenants),
            prioritize=prioritize,
            tenant_seed=tenant_seed,
            agg_site=agg_site,
        ),
        tracer=tracer,
    )


def _run_with_background(comm: ClusterComm, procs: List[Event]) -> float:
    """Run the cluster to completion, timing the foreground processes.

    On a dedicated network the makespan *is* the exchange time.  With
    background tenants the fabric never goes idle, so the measured
    quantity is when the last foreground process finishes; tenant flows
    are stopped at that point and the queue drains (their in-flight
    trains complete but no longer matter for timing).
    """
    background = comm.start_background()
    if background is None:
        return comm.run()
    finish: Dict[str, float] = {}

    def _foreground_done(_: Event) -> None:
        finish["t"] = comm.sim.now
        background.stop()

    comm.sim.all_of(procs).add_callback(_foreground_done)
    comm.run()
    return finish["t"]


def simulate_wa_exchange(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
    tracer: Optional[Tracer] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    retransmit: Optional[RetransmitPolicy] = None,
    fidelity: str = "packet",
    topology: Optional[str] = None,
    tenants: Sequence[TenantSpec] = (),
    prioritize: bool = False,
    tenant_seed: int = 0,
    agg_site: str = AGG_ENDPOINT,
) -> ExchangeResult:
    """Worker-aggregator iterations: gather g up, sum, update, scatter w.

    Only the gradient leg may compress (``stream``); the weight leg is
    always raw.  With a compressing stream and no ``gradient_ratio``,
    the codec's ratio is measured on a sampled gradient.
    ``include_local_compute``
    prepends each iteration's forward/backward/copy time (for
    full-iteration studies like Table II); exchange-only studies
    (Fig 15) leave it off.  ``fidelity="flow"`` switches to the
    vectorized flow-level model (:mod:`repro.perfmodel.flowsim`) for
    large sweeps; it rejects tracing/loss/retransmission.

    ``topology`` selects the fabric (default: the historical switched
    star); ``tenants`` adds background traffic competing for it, and
    ``prioritize`` enables strict per-ToS priority queueing protecting
    the exchange.  With tenants present the reported ``total_s`` is the
    foreground completion time (the fabric itself never idles).

    ``agg_site="switch"`` moves the gradient sum in-network: sized
    payloads ride the fabric's reduction tree and every merge vertex
    folds its fan-in through an aggregation engine (needs a multi-tier
    ``topology``, a homomorphic ``stream``, and packet fidelity).
    """
    validate_agg_site(agg_site)
    if num_workers < 2:
        raise ValueError("need at least two workers")
    aggregator = num_workers
    if stream is not None and gradient_ratio is None:
        gradient_ratio = measure_stream_ratio(stream)
    if fidelity == "flow":
        _check_flow_supported(
            tracer,
            loss_rate,
            retransmit,
            topology,
            tenants,
            prioritize,
            agg_site,
        )
        from .flowsim import simulate_wa_exchange_flow

        return simulate_wa_exchange_flow(
            num_workers,
            nbytes,
            iterations=iterations,
            bandwidth_bps=bandwidth_bps,
            profile=profile,
            stream=stream,
            gradient_ratio=gradient_ratio,
            bound=bound,
            include_local_compute=include_local_compute,
            train_packets=train_packets,
        )
    if fidelity != "packet":
        raise ValueError(
            f"fidelity must be 'packet' or 'flow', got {fidelity!r}"
        )
    comm = _make_comm(
        num_workers + 1,
        bandwidth_bps,
        bound,
        train_packets,
        stream,
        tracer,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        retransmit=retransmit,
        topology=topology,
        tenants=tenants,
        prioritize=prioritize,
        tenant_seed=tenant_seed,
        agg_site=agg_site,
    )
    gather: Optional[SwitchGather] = None
    if agg_site == AGG_SWITCH:
        gather = SwitchGather(
            comm,
            root=aggregator,
            sources=range(num_workers),
            stream=stream,
        )
    sums = {"sum_s": 0.0, "update_s": 0.0}

    def worker(i: int):
        ep = comm.endpoints[i]
        for _ in range(iterations):
            if include_local_compute and profile.local_compute_s:
                compute_start = comm.sim.now
                yield comm.sim.timeout(profile.local_compute_s)
                if tracer is not None and i == 0:
                    record_compute_phases(tracer, profile, compute_start, i)
            if gather is not None:
                gather.offer(i, nbytes=nbytes, ratio=gradient_ratio)
            else:
                ep.isend_message(
                    ep.build_message(
                        aggregator,
                        nbytes=nbytes,
                        profile=stream,
                        ratio=gradient_ratio,
                    )
                )
            yield ep.recv(aggregator)

    def agg():
        ep = comm.endpoints[aggregator]
        for _ in range(iterations):
            if gather is not None:
                # The sum rides the reduction tree; its engine time is
                # inside collect()'s critical path.
                yield from gather.collect()
            else:
                for count, src in enumerate(range(num_workers)):
                    yield ep.recv(src)
                    if count > 0:
                        dt = profile.sum_time(nbytes)
                        sums["sum_s"] += dt
                        if dt:
                            sum_start = comm.sim.now
                            yield comm.sim.timeout(dt)
                            if tracer is not None:
                                tracer.span(
                                    "gradient_sum",
                                    cat=CAT_PHASE,
                                    ts=sum_start,
                                    dur=dt,
                                    node=aggregator,
                                )
            if profile.update_s:
                sums["update_s"] += profile.update_s
                update_start = comm.sim.now
                yield comm.sim.timeout(profile.update_s)
                if tracer is not None:
                    tracer.span(
                        "update",
                        cat=CAT_PHASE,
                        ts=update_start,
                        dur=profile.update_s,
                        node=aggregator,
                    )
            events = [
                ep.isend_message(ep.build_message(dst, nbytes=nbytes))
                for dst in range(num_workers)
            ]
            yield comm.sim.all_of(events)

    procs: List[Event] = [comm.sim.process(worker(i)) for i in range(num_workers)]
    procs.append(comm.sim.process(agg()))
    total = _run_with_background(comm, procs)
    background = comm.start_background()
    summary = comm.transfer_summary()
    return ExchangeResult(
        algorithm="wa",
        num_workers=num_workers,
        nbytes=nbytes,
        iterations=iterations,
        total_s=total,
        gradient_sum_s=sums["sum_s"],
        update_s=sums["update_s"],
        sent_nbytes=summary.nbytes,
        wire_payload_nbytes=summary.wire_payload_nbytes,
        trains_retransmitted=comm.network.trains_retransmitted,
        background_messages=background.total_messages if background else 0,
        background_nbytes=background.total_bytes if background else 0,
        link_payload_nbytes=summary.link_payload_nbytes,
        agg_engine_cycles=gather.engine_cycles() if gather else 0,
        switch_reductions=gather.switch_reductions if gather else 0,
    )


def simulate_ring_exchange(
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    bandwidth_bps: float = 10e9,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    bound: ErrorBound = DEFAULT_BOUND,
    include_local_compute: bool = False,
    train_packets: int = 4400,
    tracer: Optional[Tracer] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    retransmit: Optional[RetransmitPolicy] = None,
    fidelity: str = "packet",
    topology: Optional[str] = None,
    tenants: Sequence[TenantSpec] = (),
    prioritize: bool = False,
    tenant_seed: int = 0,
    agg_site: str = AGG_ENDPOINT,
) -> ExchangeResult:
    """Ring iterations at paper scale (every hop on the gradient stream).

    ``stream`` selects the codec profile (any registered codec); with no
    ``gradient_ratio`` its ratio is measured on a sampled gradient.
    ``fidelity="flow"`` switches to the vectorized flow-level model
    (:mod:`repro.perfmodel.flowsim`), which on the ring's
    contention-free star fabric reproduces packet timing to
    floating-point noise while reaching 1024-4096 workers in seconds.

    ``topology``, ``tenants``, ``prioritize`` and ``tenant_seed`` model
    a shared multi-tier fabric exactly as in
    :func:`simulate_wa_exchange`; with tenants present ``total_s`` is
    the foreground completion time.
    """
    validate_agg_site(agg_site)
    if agg_site != AGG_ENDPOINT:
        raise ValueError(
            "the ring has no single reduction root; agg_site='switch' "
            "only applies to the worker-aggregator exchange"
        )
    if num_workers < 2:
        raise ValueError("need at least two workers")
    if stream is not None and gradient_ratio is None:
        gradient_ratio = measure_stream_ratio(stream)
    if fidelity == "flow":
        _check_flow_supported(
            tracer, loss_rate, retransmit, topology, tenants, prioritize
        )
        from .flowsim import simulate_ring_exchange_flow

        return simulate_ring_exchange_flow(
            num_workers,
            nbytes,
            iterations=iterations,
            bandwidth_bps=bandwidth_bps,
            profile=profile,
            stream=stream,
            gradient_ratio=gradient_ratio,
            bound=bound,
            include_local_compute=include_local_compute,
            train_packets=train_packets,
        )
    if fidelity != "packet":
        raise ValueError(
            f"fidelity must be 'packet' or 'flow', got {fidelity!r}"
        )
    comm = _make_comm(
        num_workers,
        bandwidth_bps,
        bound,
        train_packets,
        stream,
        tracer,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        retransmit=retransmit,
        topology=topology,
        tenants=tenants,
        prioritize=prioritize,
        tenant_seed=tenant_seed,
    )
    block_bytes = [s * 4 for s in ring_exchange_sizes(num_workers, nbytes // 4)]
    sums = {"sum_s": 0.0, "update_s": 0.0}

    def worker(i: int):
        ep = comm.endpoints[i]
        n = num_workers
        successor, predecessor = (i + 1) % n, (i - 1) % n
        for _ in range(iterations):
            if include_local_compute and profile.local_compute_s:
                compute_start = comm.sim.now
                yield comm.sim.timeout(profile.local_compute_s)
                if tracer is not None and i == 0:
                    record_compute_phases(tracer, profile, compute_start, i)
            for step in range(1, 2 * n - 1):
                send_idx = (i - step + 1) % n
                recv_idx = (i - step) % n
                ep.isend_message(
                    ep.build_message(
                        successor,
                        nbytes=block_bytes[send_idx],
                        profile=stream,
                        ratio=gradient_ratio,
                    )
                )
                yield ep.recv(predecessor)
                if step < n:
                    dt = profile.sum_time(block_bytes[recv_idx])
                    if i == 0:
                        sums["sum_s"] += dt
                    if dt:
                        sum_start = comm.sim.now
                        yield comm.sim.timeout(dt)
                        if tracer is not None and i == 0:
                            tracer.span(
                                "gradient_sum",
                                cat=CAT_PHASE,
                                ts=sum_start,
                                dur=dt,
                                node=i,
                            )
            if profile.update_s:
                if i == 0:
                    sums["update_s"] += profile.update_s
                update_start = comm.sim.now
                yield comm.sim.timeout(profile.update_s)
                if tracer is not None and i == 0:
                    tracer.span(
                        "update",
                        cat=CAT_PHASE,
                        ts=update_start,
                        dur=profile.update_s,
                        node=i,
                    )

    procs: List[Event] = [comm.sim.process(worker(i)) for i in range(num_workers)]
    total = _run_with_background(comm, procs)
    background = comm.start_background()
    summary = comm.transfer_summary()
    return ExchangeResult(
        algorithm="ring",
        num_workers=num_workers,
        nbytes=nbytes,
        iterations=iterations,
        total_s=total,
        gradient_sum_s=sums["sum_s"],
        update_s=sums["update_s"],
        sent_nbytes=summary.nbytes,
        wire_payload_nbytes=summary.wire_payload_nbytes,
        trains_retransmitted=comm.network.trains_retransmitted,
        background_messages=background.total_messages if background else 0,
        background_nbytes=background.total_bytes if background else 0,
        link_payload_nbytes=summary.link_payload_nbytes,
    )
