"""Paper-scale gradient-exchange simulation (timing only).

Times the exchanges on *size-only* gradients — no multi-hundred-megabyte
arrays are materialized — while compression ratios come from the real
codec run on sampled gradient vectors with the model's empirical value
distribution.  This is the machinery behind Table II, Fig 12 and Fig 15.

One exchange description, two evaluators: :func:`simulate_ring_exchange`
and :func:`simulate_wa_exchange` share one front (validation, ratio
measurement, the :class:`ClusterConfig`) and hand it either to the event
kernel or to the closed-form evaluator in :mod:`repro.perfmodel.flowsim`
(``fidelity="flow"``).  On the event kernel (``fidelity="packet"``) the
strategies' own primitives — :func:`~repro.distributed.ring.ring_exchange`,
:func:`~repro.distributed.worker_aggregator.worker_exchange` and
:func:`~repro.distributed.worker_aggregator.aggregator_exchange` — run on
a :class:`~repro.transport.wire.SizedPayload`, so a training run and its
timing study share every message, sum and span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import numpy as np

from repro.core import ErrorBound, StreamProfile, compression_ratio
from repro.core.bounds import DEFAULT_BOUND
from repro.distributed.node import ComputeProfile, ZERO_COMPUTE
from repro.distributed.ring import ring_exchange
from repro.distributed.strategy import STRATEGIES
from repro.distributed.worker_aggregator import aggregator_exchange, worker_exchange
from repro.dnn.models import ModelSpec
from repro.network import Event
from repro.network.packet import payload_ratio
from repro.obs import PhaseLedger, PhaseTimes, Tracer
from repro.transport.aggregation import AGG_ENDPOINT, AGG_SWITCH, SwitchGather
from repro.transport.endpoint import ClusterComm, ClusterConfig, TransferSummary
from repro.transport.wire import SizedPayload, measure_stream_ratio

from .flowsim import flow_ring_exchange, flow_wa_exchange

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
    #: Table II attribution of ``total_s`` at either fidelity: what node
    #: 0 waited on (its own spends; under WA also the aggregator's).
    phases: PhaseTimes
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
    def wire_ratio(self) -> float:
        """Achieved wire-level compression across the whole exchange."""
        return payload_ratio(self.sent_nbytes, self.wire_payload_nbytes)


@dataclass(frozen=True)
class Exchange:
    """One exchange description; either evaluator consumes it.

    An evaluator returns :data:`Measured` — ``(total_s, ledger,
    transfers)``.
    """

    algorithm: str
    num_workers: int
    nbytes: int
    iterations: int
    profile: ComputeProfile
    #: Measured compression ratio of the cluster's gradient stream
    #: (``config.profile``; ``None`` when raw).
    ratio: Optional[float]
    include_local_compute: bool
    #: The cluster both evaluators model; worker-aggregator runs host
    #: the aggregator as its last node (``num_workers``).
    config: ClusterConfig


Measured = Tuple[float, PhaseLedger, TransferSummary]
Process = Generator[Event, Any, Any]


def _check_flow_supported(tracer: Optional[Tracer], config: ClusterConfig) -> None:
    """Flow fidelity models dedicated, lossless, untraced stars only."""
    rejected = {
        "tracing (tracer)": tracer is not None,
        "loss (loss_rate)": config.loss_rate != 0.0,
        "topology": config.topology not in (None, "star"),
        "tenants": bool(config.tenants),
        "prioritize": config.prioritize,
        "agg_site": config.agg_site != AGG_ENDPOINT,
    }
    if any(rejected.values()):
        names = ", ".join(name for name, hit in rejected.items() if hit)
        raise ValueError(
            f"fidelity='flow' does not model: {names}; "
            "use fidelity='packet' for those studies"
        )


def _worker(
    job: Exchange,
    comm: ClusterComm,
    node: int,
    exchange: Callable[[int], Process],
) -> Process:
    """One worker's iterations: the training loop without the trainer."""
    updates = STRATEGIES[job.algorithm].worker_applies_update
    for _ in range(job.iterations):
        if job.include_local_compute:
            yield from comm.spend_local(job.profile, node, node == 0)
        yield from exchange(node)
        if updates:
            yield from comm.spend("update", job.profile.update_s, node, node == 0)


def _aggregator(
    job: Exchange, comm: ClusterComm, gather: Optional[SwitchGather]
) -> Process:
    """The aggregator's iterations; its update rule is the identity."""
    ep = comm.endpoints[job.num_workers]
    workers = list(range(job.num_workers))
    for _ in range(job.iterations):
        yield from aggregator_exchange(
            ep, workers, lambda total: total, profile=job.profile, gather=gather
        )


def _packet_exchange(
    job: Exchange, tracer: Optional[Tracer]
) -> Tuple[Measured, Dict[str, int]]:
    """Evaluate on the event kernel; also returns the packet-only counters."""
    comm = ClusterComm(job.config, tracer=tracer)
    n = job.num_workers
    gradient = SizedPayload(job.nbytes, job.ratio)
    gather: Optional[SwitchGather] = None
    if job.algorithm == "ring":

        def exchange(i: int) -> Process:
            return ring_exchange(comm.endpoints[i], gradient, n, profile=job.profile)

    else:
        if job.config.agg_site == AGG_SWITCH:
            gather = SwitchGather(comm, root=n, sources=range(n))

        def exchange(i: int) -> Process:
            return worker_exchange(comm.endpoints[i], n, gradient, gather)

    processes = [comm.sim.process(_worker(job, comm, i, exchange)) for i in range(n)]
    if job.algorithm == "wa":
        processes.append(comm.sim.process(_aggregator(job, comm, gather)))
    total_s = comm.run(processes)
    background = comm.background
    counters = {
        "trains_retransmitted": comm.network.trains_retransmitted,
        "background_messages": background.total_messages if background else 0,
        "background_nbytes": background.total_bytes if background else 0,
        "agg_engine_cycles": gather.engine_cycles() if gather else 0,
        "switch_reductions": gather.switch_reductions if gather else 0,
    }
    return (total_s, comm.ledger, comm.transfer_summary()), counters


_FLOW = {"ring": flow_ring_exchange, "wa": flow_wa_exchange}

#: Packets per train on the exchange simulators' cluster — the one
#: default they do not share with :class:`ClusterConfig`: paper-scale
#: messages (hundreds of MB) ride ~6.4 MB trains.
EXCHANGE_TRAIN_PACKETS = 4400


def _simulate_exchange(
    algorithm: str,
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    include_local_compute: bool = False,
    tracer: Optional[Tracer] = None,
    fidelity: str = "packet",
    **cluster: Any,
) -> ExchangeResult:
    """The one exchange front: every option of both public simulators.

    ``cluster`` is any :class:`ClusterConfig` field (``bandwidth_bps``,
    ``topology``, ``tenants``, ``loss_rate``, ``agg_site`` ...), with
    ``train_packets`` defaulting to :data:`EXCHANGE_TRAIN_PACKETS`.
    ``profile`` is the :class:`ComputeProfile`; the cluster's stream
    profile is ``stream``, the codec of the gradient stream (any
    registered codec, ``None`` for raw).  With a stream and no
    ``gradient_ratio``, the codec's ratio is measured on a sampled
    gradient.  ``include_local_compute`` prepends each iteration's
    forward/backward/copy time (for full-iteration studies like
    Table II); exchange-only studies (Fig 15) leave it off.

    ``fidelity="flow"`` evaluates the same description in closed form
    (:mod:`repro.perfmodel.flowsim`) for 1024-65536-worker sweeps; it
    models dedicated, lossless, untraced stars only and rejects
    everything else, naming what it rejected.

    With background ``tenants`` the reported ``total_s`` is the
    foreground completion time (the fabric itself never idles).
    ``agg_site="switch"`` applies to the worker-aggregator exchange
    only, at packet fidelity.
    """
    config = ClusterConfig(
        num_nodes=num_workers + (algorithm == "wa"),
        profile=stream,
        **{"train_packets": EXCHANGE_TRAIN_PACKETS, **cluster},
    )
    if algorithm == "ring" and config.agg_site != AGG_ENDPOINT:
        raise ValueError(
            "the ring has no single reduction root; agg_site='switch' "
            "only applies to the worker-aggregator exchange"
        )
    if num_workers < 2:
        raise ValueError("need at least two workers")
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    if algorithm == "ring" and nbytes % 4:
        raise ValueError(
            f"the ring exchanges blocks of float32 values; nbytes={nbytes} "
            "is not a whole number of them"
        )
    if fidelity == "flow":
        _check_flow_supported(tracer, config)
    elif fidelity != "packet":
        raise ValueError(
            f"fidelity must be 'packet' or 'flow', got {fidelity!r}"
        )
    if stream is not None and gradient_ratio is None:
        gradient_ratio = measure_stream_ratio(stream)
    job = Exchange(
        algorithm=algorithm,
        num_workers=num_workers,
        nbytes=nbytes,
        iterations=iterations,
        profile=profile,
        ratio=gradient_ratio,
        include_local_compute=include_local_compute,
        config=config,
    )
    counters: Dict[str, int] = {}
    if fidelity == "flow":
        measured = _FLOW[algorithm](job)
    else:
        measured, counters = _packet_exchange(job, tracer)
    total_s, ledger, transfers = measured
    return ExchangeResult(
        algorithm=algorithm,
        num_workers=num_workers,
        nbytes=nbytes,
        iterations=iterations,
        total_s=total_s,
        phases=ledger.close(total_s),
        sent_nbytes=transfers.nbytes,
        wire_payload_nbytes=transfers.wire_payload_nbytes,
        link_payload_nbytes=transfers.link_payload_nbytes,
        **counters,
    )


def simulate_wa_exchange(
    num_workers: int, nbytes: int, **options: Any
) -> ExchangeResult:
    """Worker-aggregator iterations: gather g up, sum, update, scatter w.

    Only the gradient leg may compress (``stream``); the weight leg is
    always raw.  Keyword options and their defaults are
    :func:`_simulate_exchange`'s.
    """
    return _simulate_exchange("wa", num_workers, nbytes, **options)


def simulate_ring_exchange(
    num_workers: int, nbytes: int, **options: Any
) -> ExchangeResult:
    """Ring iterations at paper scale (every hop on the gradient stream).

    On the ring's contention-free star fabric ``fidelity="flow"``
    reproduces packet timing to floating-point noise.  Keyword options
    and their defaults are :func:`_simulate_exchange`'s.
    """
    return _simulate_exchange("ring", num_workers, nbytes, **options)
