"""Paper-scale gradient-exchange simulation (timing only).

Times the exchanges on *size-only* gradients — no multi-hundred-megabyte
arrays are materialized — while compression ratios come from the real
codec run on sampled gradient vectors with the model's empirical value
distribution.  This is the machinery behind Table II, Fig 12 and Fig 15.

One exchange description, two evaluators: :func:`simulate_exchange`
hands it to the event kernel (``fidelity="packet"``), where the training
driver runs any registered strategy over a model that holds only its
size, or for the ring and WA to the closed-form evaluator in
:mod:`repro.perfmodel.flowsim` (``fidelity="flow"``).  A training run
and its timing study share every message, sum and span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core import StreamProfile
from repro.distributed.strategy import (
    GradientStrategy,
    StrategyRun,
    _check_run,
    _drive,
    get_strategy,
)
from repro.obs import (
    ZERO_COMPUTE, ComputeProfile, PhaseLedger, PhaseTimes, Tracer,
)
from repro.transport.aggregation import AGG_ENDPOINT
from repro.transport.endpoint import ClusterComm, ClusterConfig, TransferSummary
from repro.transport.wire import SizedPayload, measure_stream_ratio

from .flowsim import flow_ring_exchange, flow_wa_exchange


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
    #: Bytes sent, on the wire and hop-weighted (the link-level load): the
    #: cluster's transfer ledger, which both fidelities add to.
    transfers: TransferSummary
    #: Trains resent due to simulated loss (0 on a lossless fabric).
    trains_retransmitted: int = 0
    #: Background-tenant messages and payload bytes that shared the
    #: fabric during the exchange (0 = dedicated network).
    background_messages: int = 0
    background_nbytes: int = 0
    #: In-network aggregation accounting (0 under the endpoint site).
    agg_engine_cycles: int = 0
    switch_reductions: int = 0
    #: The strategy's extras, as a training run's; empty at flow fidelity.
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def per_iteration_s(self) -> float:
        return self.total_s / self.iterations

    @property
    def sent_nbytes(self) -> int:
        return self.transfers.nbytes

    @property
    def wire_payload_nbytes(self) -> int:
        return self.transfers.wire_payload_nbytes

    @property
    def link_payload_nbytes(self) -> int:
        return self.transfers.link_payload_nbytes

    @property
    def wire_ratio(self) -> float:
        """Achieved wire-level compression across the whole exchange."""
        return self.transfers.wire_ratio


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
    #: What each node computes per iteration (the cluster's
    #: ``ClusterComm.compute``).
    compute: ComputeProfile
    #: Measured compression ratio of the cluster's gradient stream
    #: (``config.profile``; ``None`` when raw).
    ratio: Optional[float]
    #: The cluster both evaluators model; a strategy's service nodes
    #: (WA's aggregator, a parameter server) follow the workers.
    config: ClusterConfig


Measured = Tuple[float, PhaseLedger, TransferSummary]


#: The closed-form evaluators, by strategy.
_FLOW = {"ring": flow_ring_exchange, "wa": flow_wa_exchange}


def _check_flow_supported(
    algorithm: str,
    tracer: Optional[Tracer],
    config: ClusterConfig,
    options: Mapping[str, Any],
) -> None:
    """Flow fidelity models the ring and WA on dedicated, lossless,
    untraced stars without compute jitter only."""
    rejected = {
        f"strategy {algorithm!r}": algorithm not in _FLOW,
        "compute jitter (compute_jitter)": bool(options.get("compute_jitter")),
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


class _SizedModel:
    """``nbytes`` of float32 parameters without their values.

    The trainers, template network and optimizer of a size-only
    :class:`~repro.distributed.strategy.StrategyRun`: its gradient is a
    :class:`SizedPayload` at the stream's ratio, its weights a raw one,
    and every update a no-op.
    """

    def __init__(self, nbytes: int, ratio: Optional[float]) -> None:
        self.net = self
        self._gradient = SizedPayload(nbytes, ratio)
        self._weights = SizedPayload(nbytes)

    def local_gradient(self) -> Tuple[float, SizedPayload]:
        return math.nan, self._gradient

    def parameter_vector(self) -> SizedPayload:
        return self._weights

    def _no_op(self, *args: object) -> None:
        """An update changes nothing on sizes."""

    apply_gradient = set_parameter_vector = step_with_vector = _no_op


def _packet_exchange(
    job: Exchange,
    strategy: GradientStrategy,
    options: Mapping[str, Any],
    tracer: Optional[Tracer],
) -> Tuple[Measured, Dict[str, Any]]:
    """Drive the strategy over a size-only model on the event kernel;
    also returns the packet-only counters and the strategy's extras."""
    comm = ClusterComm(job.config, tracer=tracer, compute=job.compute)
    model = _SizedModel(job.nbytes, job.ratio)
    run = StrategyRun(
        comm=comm, num_workers=job.num_workers, iterations=job.iterations,
        trainers=[model] * job.num_workers, template=model,
        make_optimizer=lambda: model, seed=0, options=options,
    )
    total_s = _drive(run, strategy)
    background = comm.background
    gather = strategy.gather
    counters = {
        "trains_retransmitted": comm.network.trains_retransmitted,
        "background_messages": background.total_messages if background else 0,
        "background_nbytes": background.total_bytes if background else 0,
        "agg_engine_cycles": gather.engine_cycles() if gather else 0,
        "switch_reductions": gather.switch_reductions if gather else 0,
        "extras": dict(run.extras),
    }
    return (total_s, comm.ledger, comm.transfers), counters


#: Packets per train on the exchange simulators' cluster — the one
#: default they do not share with :class:`ClusterConfig`: paper-scale
#: messages (hundreds of MB) ride ~6.4 MB trains.
EXCHANGE_TRAIN_PACKETS = 4400


def simulate_exchange(
    algorithm: str,
    num_workers: int,
    nbytes: int,
    iterations: int = 1,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    gradient_ratio: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    fidelity: str = "packet",
    options: Optional[Mapping[str, Any]] = None,
    **cluster: Any,
) -> ExchangeResult:
    """Time any registered strategy's iterations on ``nbytes`` gradients.

    ``cluster`` is any :class:`ClusterConfig` field (``bandwidth_bps``,
    ``topology``, ``tenants``, ``loss_rate``, ``agg_site`` ...), with
    ``train_packets`` defaulting to :data:`EXCHANGE_TRAIN_PACKETS`.
    ``profile`` is the :class:`ComputeProfile` each node spends, as in
    ``run_strategy``: a full-iteration study (Table II) passes one with
    forward/backward/copy time, an exchange-only study (Fig 15) one
    without.  The cluster's stream profile is ``stream``, the codec of
    the gradient stream (any registered codec, ``None`` for raw).  With
    a stream and no ``gradient_ratio``, the codec's ratio is measured on
    a sampled gradient.
    ``options`` is ``run_strategy``'s (``group_size``,
    ``staleness_bound``, ``compute_jitter`` ...).  ``local_sgd``, whose
    weight deltas a size-only model does not have, refuses.

    ``fidelity="flow"`` evaluates the ring and WA in closed form
    (:mod:`repro.perfmodel.flowsim`) for 1024-65536-worker sweeps; it
    models dedicated, lossless, untraced stars only and rejects
    everything else, naming what it rejected.

    With background ``tenants`` the reported ``total_s`` is the
    foreground completion time (the fabric itself never idles).
    """
    strategy = get_strategy(algorithm)
    opts: Mapping[str, Any] = dict(options or {})
    config = ClusterConfig(
        num_nodes=num_workers + strategy.extra_nodes,
        profile=stream,
        **{"train_packets": EXCHANGE_TRAIN_PACKETS, **cluster},
    )
    _check_run(strategy, iterations, config, opts)
    if strategy.splits_blocks and nbytes % 4:
        raise ValueError(
            f"{algorithm} exchanges blocks of float32 values; nbytes={nbytes} "
            "is not a whole number of them"
        )
    if fidelity == "flow":
        _check_flow_supported(algorithm, tracer, config, opts)
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
        compute=profile,
        ratio=gradient_ratio,
        config=config,
    )
    if fidelity == "flow":
        measured, counters = _FLOW[algorithm](job), {}
    else:
        measured, counters = _packet_exchange(job, strategy, opts, tracer)
    total_s, ledger, transfers = measured
    return ExchangeResult(
        algorithm=algorithm,
        num_workers=num_workers,
        nbytes=nbytes,
        iterations=iterations,
        total_s=total_s,
        phases=ledger.close(total_s),
        transfers=transfers,
        **counters,
    )


def simulate_wa_exchange(
    num_workers: int, nbytes: int, **options: Any
) -> ExchangeResult:
    """Worker-aggregator iterations: gather g up, sum, update, scatter w.

    Only the gradient leg may compress (``stream``); the weight leg is
    always raw.  Keyword options and their defaults are
    :func:`simulate_exchange`'s.
    """
    return simulate_exchange("wa", num_workers, nbytes, **options)


def simulate_ring_exchange(
    num_workers: int, nbytes: int, **options: Any
) -> ExchangeResult:
    """Ring iterations at paper scale (every hop on the gradient stream).

    On the ring's contention-free star fabric ``fidelity="flow"``
    reproduces packet timing to floating-point noise.  Keyword options
    and their defaults are :func:`simulate_exchange`'s.
    """
    return simulate_exchange("ring", num_workers, nbytes, **options)
