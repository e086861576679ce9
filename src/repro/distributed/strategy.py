"""Pluggable gradient-exchange strategies over one shared training driver.

Every distributed algorithm in this repo — the INCEPTIONN ring, the
worker-aggregator baseline, the asynchronous parameter server, the
hierarchical rings, and the communication-avoiding variants — is the
same outer loop with a different answer to one question: *what happens
to the local gradient between backward and update?*  This module owns
the outer loop exactly once:

* :class:`GradientStrategy` — the plugin protocol.  A strategy declares
  how many service nodes it needs (:attr:`~GradientStrategy.extra_nodes`),
  spawns them in :meth:`~GradientStrategy.setup`, and implements the
  per-iteration :meth:`~GradientStrategy.exchange` generator that turns
  a local gradient into a :class:`StrategyUpdate`.
* :data:`STRATEGIES` — a registry mirroring the codec registry in
  :mod:`repro.core.registry`; plugins self-register at import time with
  :func:`register_strategy`.
* :func:`_drive` — the one driver that owns process spawning and
  tracing spans: :func:`run_strategy` hands it real replicas,
  :func:`repro.perfmodel.exchange.simulate_exchange` a size-only model.
  Compute time passes only through ``ClusterComm.spend``, which records
  it where it is spent in the cluster's :class:`~repro.obs.PhaseLedger`.
"""

from __future__ import annotations

import abc
import copy
import numbers
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.core import StreamProfile, profile_for
from repro.dnn import (
    SGD,
    Dataset,
    LocalTrainer,
    LRSchedule,
    Optimizer,
    Sequential,
    build_hdc,
    hdc_dataset,
    top1_accuracy,
    top5_accuracy,
)
from repro.network import Event, TieBreak
from repro.obs import (
    CAT_STRATEGY, ZERO_COMPUTE, ComputeProfile, PhaseTimes, Tracer,
)
from repro.transport.aggregation import AGG_SWITCH, SwitchGather
from repro.transport.endpoint import (
    ClusterComm,
    ClusterConfig,
    Endpoint,
    TransferSummary,
)

from .node import JITTER_STREAM, spawn_key


@dataclass(frozen=True)
class StrategyUpdate:
    """What one exchange tells the driver to do to the local replica.

    ``gradient`` goes through the worker's own optimizer
    (``apply_gradient``); ``weights`` overwrite the replica's parameter
    vector.  Fields compose (gradient first, then weights).
    """

    gradient: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None


@dataclass
class DistributedRunResult:
    """Outcome of one simulated distributed training run."""

    algorithm: str
    num_workers: int
    iterations: int
    losses: List[float]
    final_top1: float
    final_top5: float
    virtual_time_s: float
    #: Table II attribution: what node 0 waited on, recorded where it
    #: was spent (Communicate is the residual of ``virtual_time_s``).
    phases: PhaseTimes
    eval_top1: List[float] = field(default_factory=list)
    #: The cluster's transfer ledger: every message of the run, each
    #: added where it was sent (one WireMessage build per message).
    transfers: Optional[TransferSummary] = None
    #: Node 0's final parameter vector — the replicated model state the
    #: strategy-parity and replay checks compare.
    final_weights: Optional[np.ndarray] = None
    #: Strategy-specific results (staleness samples, sync rounds, ...)
    #: accumulated in :attr:`StrategyRun.extras` during the run.
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Every worker's per-iteration losses flattened in completion
    #: order — meaningful for asynchronous strategies where ``losses``'
    #: per-iteration means average across drifting workers.
    loss_order: List[float] = field(default_factory=list)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """``phases`` keyed by phase name."""
        return self.phases.as_dict()

    @property
    def communication_fraction(self) -> float:
        """Fraction of total virtual time spent communicating (Fig 3b)."""
        if self.virtual_time_s <= 0:
            return 0.0
        return self.phases.communicate / self.virtual_time_s


@dataclass
class StrategyRun:
    """Shared state of one driven run, handed to every strategy hook.

    The cluster is the run's one copy of its communication plane:
    ``comm.config.profile`` is the gradient stream (``None`` is raw),
    ``comm.compute`` what each node computes and ``comm.tracer`` the
    tracer, read there by every exchange.

    A size-only study (:func:`repro.perfmodel.exchange.simulate_exchange`)
    fills ``trainers``, ``template`` and ``make_optimizer`` with one
    duck-typed model instead.  It answers only what the driver and the
    strategies call: ``net``, ``local_gradient``, ``parameter_vector``,
    ``apply_gradient``, ``set_parameter_vector`` and ``step_with_vector``.
    """

    comm: ClusterComm
    num_workers: int
    iterations: int
    trainers: List[LocalTrainer]
    #: The run's one ``build_net(seed)``, never trained: every model of
    #: the run (workers, aggregator, servers) is a :meth:`replica` of it.
    template: Sequential
    make_optimizer: Callable[[], Optimizer]
    seed: int
    options: Mapping[str, Any]
    eval_every: Optional[int] = None
    #: Per-iteration loss lists (one entry per worker per iteration).
    losses: List[List[float]] = field(init=False)
    #: Flat losses in completion order — what asynchronous strategies
    #: report, where "iteration i" means different times per worker.
    loss_order: List[float] = field(default_factory=list)
    eval_top1: List[float] = field(default_factory=list)
    #: Scratch space for strategy results, returned as the result's extras.
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Iterations each worker has finished.
    finished: List[int] = field(init=False)

    def __post_init__(self) -> None:
        self.losses = [[] for _ in range(self.iterations)]
        self.finished = [0] * self.num_workers

    def replica(self) -> Sequential:
        """A fresh model in the run's initial state."""
        return copy.deepcopy(self.template)

    def node(self, node_id: int) -> "NodeContext":
        return NodeContext(
            node_id=node_id,
            endpoint=self.comm.endpoints[node_id],
            trainer=self.trainers[node_id],
            run=self,
        )

    def record_loss(self, iteration: int, loss: float) -> None:
        self.losses[iteration].append(loss)
        self.loss_order.append(loss)


@dataclass
class NodeContext:
    """One worker's view of the run, handed to ``exchange``."""

    node_id: int
    endpoint: Endpoint
    trainer: LocalTrainer
    run: StrategyRun


class GradientStrategy(abc.ABC):
    """One gradient-synchronization discipline, pluggable into the driver.

    Subclasses set ``name``/``description`` class attributes, implement
    :meth:`exchange`, and optionally override the service hooks.  One
    instance serves one run — strategies may keep per-run state on
    ``self`` after :meth:`setup`.
    """

    #: Registry key (``repro train --strategy <name>``).
    name: str = ""
    #: One-line summary for ``repro strategies``.
    description: str = ""
    #: Whether workers pay ``comm.compute.update_s`` locally each iteration.
    #: Server-centric strategies (the service node owns the optimizer)
    #: set this False and account the update at the server instead.
    worker_applies_update: bool = True
    #: Whether the strategy can host its gradient sum in-network
    #: (``ClusterConfig.agg_site = "switch"``).  Only strategies with a
    #: single reduction root can; the driver rejects the combination
    #: for everything else.
    supports_switch_aggregation: bool = False
    #: Service nodes beyond the workers (aggregator, server, ...).
    extra_nodes: int = 0
    #: Whether :meth:`exchange` cuts the gradient into Algorithm 1's
    #: float32 blocks, so a size-only gradient must be whole values.
    splits_blocks: bool = False
    #: The switch reduction tree :meth:`setup` builds under ``agg_site = "switch"``.
    gather: Optional[SwitchGather] = None

    def setup(self, run: StrategyRun) -> None:
        """Validate options and spawn service processes via ``run.comm``."""

    def iteration_gate(
        self, node: NodeContext, iteration: int
    ) -> Optional[Event]:
        """Event the worker must wait on before computing, or ``None``."""
        return None

    @abc.abstractmethod
    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        """Turn one local gradient into the replica's next update.

        A simulation-process generator: every yielded event advances the
        virtual clock.  All workers run it concurrently.
        """

    def after_apply(self, node: NodeContext, iteration: int) -> None:
        """Hook after the driver installed the update (progress marks)."""

    def final_model(self, run: StrategyRun) -> Sequential:
        """The network evaluated and pinned as the run's outcome."""
        return run.trainers[0].net


#: Registered strategies, keyed by name (the codec-registry pattern).
STRATEGIES: Dict[str, Type[GradientStrategy]] = {}


def register_strategy(cls: Type[GradientStrategy]) -> Type[GradientStrategy]:
    """Class decorator: add a :class:`GradientStrategy` to the registry.

    Idempotent re-registration of the same class is allowed (module
    reloads); a *different* class under an existing name is an error.
    """
    name = cls.name
    if not name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = STRATEGIES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"strategy {name!r} is already registered")
    STRATEGIES[name] = cls
    return cls


def available_strategies() -> Tuple[str, ...]:
    """Registered strategy names, sorted."""
    return tuple(sorted(STRATEGIES))


def get_strategy(name: str) -> GradientStrategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        known = ", ".join(available_strategies()) or "none"
        raise ValueError(
            f"unknown strategy {name!r} (available: {known})"
        ) from None
    return cls()


def _worker_process(
    run: StrategyRun, strategy: GradientStrategy, node_id: int
) -> Generator[Event, Any, None]:
    """The one training loop every strategy's workers execute."""
    node = run.node(node_id)
    trainer = node.trainer
    comm = run.comm
    compute = comm.compute
    tracer = comm.tracer
    jitter = float(run.options.get("compute_jitter") or 0.0)
    jitter_rng = (
        np.random.default_rng(spawn_key(run.seed, node_id, JITTER_STREAM))
        if jitter
        else None
    )

    for iteration in range(run.iterations):
        gate = strategy.iteration_gate(node, iteration)
        if gate is not None:
            yield gate
        scale = 1.0
        if compute.local_compute_s and jitter_rng is not None:
            scale += jitter * (2 * jitter_rng.random() - 1)
        yield from comm.spend_local(node_id, node_id == 0, scale)
        loss, grad = trainer.local_gradient()
        run.record_loss(iteration, loss)

        exchange_start = comm.sim.now
        update = yield from strategy.exchange(node, iteration, grad)
        if tracer is not None:
            tracer.span(
                "strategy.exchange",
                cat=CAT_STRATEGY,
                ts=exchange_start,
                dur=comm.sim.now - exchange_start,
                node=node_id,
                strategy=strategy.name,
                iteration=iteration,
            )

        if strategy.worker_applies_update:
            yield from comm.spend("update", compute.update_s, node_id, node_id == 0)
        if update.gradient is not None:
            trainer.apply_gradient(update.gradient)
        if update.weights is not None:
            trainer.net.set_parameter_vector(update.weights)
        strategy.after_apply(node, iteration)
        if (
            node_id == 0
            and run.eval_every
            and (iteration + 1) % run.eval_every == 0
        ):
            run.eval_top1.append(trainer.evaluate()[0])
        run.finished[node_id] = iteration + 1


def _check_run(
    strategy: GradientStrategy,
    iterations: int,
    config: ClusterConfig,
    options: Mapping[str, Any],
) -> None:
    """Refuse a run the strategy cannot drive, before any model exists.

    A switch site needs a single reduction root; a compute block scales
    by ``1 + j * u``, ``u`` in ``[-1, 1)``, so a ``compute_jitter`` ``j``
    outside ``[0, 1]`` can draw a negative delay.
    """
    if config.num_nodes - strategy.extra_nodes < 2:
        raise ValueError("distributed training needs at least two workers")
    if iterations < 1:
        raise ValueError(f"need at least one iteration, got {iterations}")
    if config.agg_site == AGG_SWITCH and not strategy.supports_switch_aggregation:
        raise ValueError(
            f"strategy {strategy.name!r} has no single reduction root; "
            "agg_site='switch' only applies to the worker-aggregator "
            "family"
        )
    value = options.get("compute_jitter")
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not 0 <= value <= 1
    ):
        raise ValueError(
            f"compute_jitter must be a real number in [0, 1], got {value!r}"
        )


def _drive(run: StrategyRun, strategy: GradientStrategy) -> float:
    """Drive ``strategy`` over ``run``; returns the virtual time.

    The strategy's service processes, one :func:`_worker_process` per
    worker, then the cluster until every worker is done.
    """
    strategy.setup(run)
    workers = [
        run.comm.sim.process(_worker_process(run, strategy, i))
        for i in range(run.num_workers)
    ]
    total_time = run.comm.run(workers)
    for node_id, done in enumerate(run.finished):
        if done < run.iterations:
            raise RuntimeError(
                f"{strategy.name}: worker {node_id} stopped at iteration "
                f"{done} of {run.iterations}; nothing was left to wake it"
            )
    return total_time


def run_strategy(
    strategy: "Union[str, GradientStrategy]",
    build_net: Callable[[int], Sequential],
    make_optimizer: Callable[[], Optimizer],
    dataset: Dataset,
    num_workers: int,
    iterations: int,
    batch_size: int,
    cluster: Optional[ClusterConfig] = None,
    profile: ComputeProfile = ZERO_COMPUTE,
    stream: Optional[StreamProfile] = None,
    eval_every: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    seed: int = 0,
    options: Optional[Mapping[str, Any]] = None,
) -> DistributedRunResult:
    """Train replicas of ``build_net(seed)`` under any registered strategy.

    The single training entry point: builds the cluster and the model
    (once — every replica is a deepcopy), seeds the trainers
    (collision-free spawn keys), hands them to :func:`_drive`, and
    assembles the result — phase breakdown, wire accounting, final
    weights — exactly once.

    The gradient stream is the cluster's ``profile`` (``None`` is raw);
    ``profile`` is what each node computes, held by the run's
    ``ClusterComm.compute``.  ``stream`` only builds the default cluster
    when ``cluster`` is ``None``; beside a ``cluster`` it must be omitted
    or equal ``cluster.profile``.  In the WA family only the gradient
    (up) leg can compress — weights are loss-intolerant (paper Fig 4) —
    while the ring compresses every hop.  ``options`` is the strategy's keyword
    namespace (``sync_period``, ``staleness_bound``, ``layout``,
    ``max_staleness``, ``compute_jitter``, ...); ``compute_jitter`` is
    a real number in ``[0, 1]``.  Under background ``tenants`` the
    virtual time is when the last worker finished
    (:meth:`~repro.transport.endpoint.ClusterComm.run`).
    """
    strat = get_strategy(strategy) if isinstance(strategy, str) else strategy
    opts: Mapping[str, Any] = dict(options or {})
    num_nodes = num_workers + strat.extra_nodes
    if cluster is not None and stream not in (None, cluster.profile):
        raise ValueError(
            f"stream {stream!r} is not the cluster's profile "
            f"{cluster.profile!r}, which is the run's stream; pass "
            "cluster=ClusterConfig(..., profile=stream) and omit stream"
        )
    config = cluster or ClusterConfig(num_nodes=num_nodes, profile=stream)
    if config.num_nodes != num_nodes:
        raise ValueError(
            f"cluster config has {config.num_nodes} nodes, run needs {num_nodes}"
        )
    _check_run(strat, iterations, config, opts)
    comm = ClusterComm(config, tracer=tracer, compute=profile)

    # Identical replicas: deepcopies of one build; data streams derive
    # from collision-free spawn keys.
    template = build_net(seed)
    trainers = [
        LocalTrainer(
            net=copy.deepcopy(template),
            optimizer=make_optimizer(),
            dataset=dataset.shard(i, num_workers),
            batch_size=batch_size,
            seed=spawn_key(seed, i),
        )
        for i in range(num_workers)
    ]

    run = StrategyRun(
        comm=comm,
        num_workers=num_workers,
        iterations=iterations,
        trainers=trainers,
        template=template,
        make_optimizer=make_optimizer,
        seed=seed,
        options=opts,
        eval_every=eval_every,
    )
    total_time = _drive(run, strat)

    net = strat.final_model(run)
    logits = net.predict(dataset.test_x)
    top1 = top1_accuracy(logits, dataset.test_y)
    top5 = top5_accuracy(logits, dataset.test_y)

    return DistributedRunResult(
        algorithm=strat.name,
        num_workers=num_workers,
        iterations=iterations,
        losses=[float(np.mean(l)) for l in run.losses],
        final_top1=top1,
        final_top5=top5,
        virtual_time_s=total_time,
        phases=comm.ledger.close(total_time),
        eval_top1=run.eval_top1,
        transfers=comm.transfers,
        final_weights=net.parameter_vector(),
        extras=dict(run.extras),
        loss_order=list(run.loss_order),
    )


@dataclass(frozen=True)
class Scenario:
    """One HDC proxy run: replicas of ``build_hdc`` trained under a strategy.

    The run the paper's accuracy and time claims rest on, as data: SGD
    with momentum 0.9 at rate ``lr``, on an ``hdc_dataset`` of
    ``train_size``/``test_size`` samples, over a cluster of ``workers``
    plus the strategy's service nodes.  ``cluster`` holds the
    :class:`~repro.transport.ClusterConfig` fields (``loss_rate``,
    ``topology``, ``agg_site`` ...) beyond node count, stream and
    tie-break, which the scenario sets itself; ``options`` is
    :func:`run_strategy`'s.
    """

    strategy: str = "ring"
    workers: int = 4
    iterations: int = 2
    seed: int = 0
    codec: Optional[str] = None
    train_size: int = 120
    test_size: int = 40
    batch_size: int = 10
    cluster: Mapping[str, Any] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    lr: float = 0.02
    compute: ComputeProfile = ZERO_COMPUTE

    def run(
        self,
        tracer: Optional[Tracer] = None,
        tie_break: Optional[TieBreak] = None,
    ) -> DistributedRunResult:
        """Build a fresh simulation from the seeds and train on it."""
        strategy = get_strategy(self.strategy)
        return run_strategy(
            strategy,
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(self.lr), momentum=0.9),
            dataset=hdc_dataset(
                train_size=self.train_size,
                test_size=self.test_size,
                seed=self.seed,
            ),
            num_workers=self.workers,
            iterations=self.iterations,
            batch_size=self.batch_size,
            cluster=ClusterConfig(
                num_nodes=self.workers + strategy.extra_nodes,
                profile=profile_for(self.codec) if self.codec else None,
                tie_break=tie_break,
                **self.cluster,
            ),
            profile=self.compute,
            tracer=tracer,
            seed=self.seed,
            options=self.options,
        )
