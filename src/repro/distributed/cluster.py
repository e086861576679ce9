"""The paper's two exchange algorithms as strategy plugins.

The worker-aggregator baseline and the INCEPTIONN ring train *real*
model replicas over the simulated cluster fabric.  Gradient values move
through the real codec when compression is on, and every phase of the
iteration advances the virtual clock, so one run yields both the
learning curve (accuracy claims) and the Table II-style time breakdown
(performance claims).

Both are :class:`~repro.distributed.strategy.GradientStrategy` plugins
driven by :func:`~repro.distributed.strategy.run_strategy`.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.network import Event
from repro.transport.aggregation import AGG_SWITCH, SwitchGather

from .ring import ring_exchange
from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)
from .worker_aggregator import aggregator_exchange, worker_exchange

__all__ = ["RingStrategy", "WorkerAggregatorStrategy"]


@register_strategy
class RingStrategy(GradientStrategy):
    """INCEPTIONN's aggregator-free ring (Algorithm 1, paper Fig 1b)."""

    name = "ring"
    description = (
        "Gradient-centric ring reduce-scatter + all-gather; every hop "
        "carries gradients, so every hop compresses."
    )
    splits_blocks = True

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        aggregate = yield from ring_exchange(
            node.endpoint, gradient, range(node.run.num_workers)
        )
        return StrategyUpdate(gradient=aggregate)


@register_strategy
class WorkerAggregatorStrategy(GradientStrategy):
    """The conventional worker-aggregator baseline (paper Fig 1a/2)."""

    name = "wa"
    description = (
        "Workers push gradients to one aggregator that owns the "
        "canonical optimizer and broadcasts weights back."
    )
    #: The aggregator pays the update; workers just install weights.
    worker_applies_update = False
    #: The one strategy with a reduction root the fabric can host.
    supports_switch_aggregation = True
    extra_nodes = 1  # the aggregator node

    def setup(self, run: StrategyRun) -> None:
        self._aggregator_id = run.num_workers
        self.gather = None
        if run.comm.config.agg_site == AGG_SWITCH:
            self.gather = SwitchGather(
                run.comm,
                root=self._aggregator_id,
                sources=range(run.num_workers),
            )
        run.comm.sim.process(self._aggregator(run))

    def _aggregator(
        self, run: StrategyRun
    ) -> Generator[Event, Any, None]:
        ep = run.comm.endpoints[self._aggregator_id]
        agg_net = run.replica()
        agg_opt = run.make_optimizer()
        workers = list(range(run.num_workers))

        def apply_update(total_grad: np.ndarray) -> np.ndarray:
            agg_opt.step_with_vector(agg_net, total_grad)
            return agg_net.parameter_vector()

        for _ in range(run.iterations):
            yield from aggregator_exchange(
                ep, workers, apply_update, gather=self.gather
            )

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        weights = yield from worker_exchange(
            node.endpoint,
            self._aggregator_id,
            gradient,
            gather=self.gather,
        )
        return StrategyUpdate(weights=weights)

