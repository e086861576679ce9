"""Communication-avoiding LocalSGD / DiLoCo-style periodic sync.

Each worker runs plain local SGD and only every ``sync_period`` (H)
iterations the group synchronizes: worker ``i`` forms its parameter
delta against the last synchronized *anchor* weights,
``Δ_i = w_i - w_anchor``, the group ring-allreduces ``ΣΔ`` over the
same INCEPTIONN ring the ``"ring"`` strategy uses (every hop is a
gradient-like delta, so every hop compresses), and everyone installs
``w_anchor + ΣΔ`` as the new anchor.

Summing deltas (rather than averaging weights) makes ``H == 1``
*mathematically identical* to the synchronous ring with momentum SGD:
each worker's velocity tracks its own gradient stream, and by linearity
``Σ_i v_i`` equals the ring's velocity for the summed gradient — so the
convergence suite can pin ``local_sgd(H=1)`` against ``ring`` to
floating-point reordering noise.  (Exactness requires zero weight
decay, which breaks the linearity.)  With ``H > 1`` the ring runs
``1/H`` as often — the communication-avoiding trade the strategy
exists to measure.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

import numpy as np

from repro.network import Event
from repro.obs import CAT_STRATEGY
from repro.transport.wire import SizedPayload

from .ring import ring_exchange
from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)


@register_strategy
class LocalSGDStrategy(GradientStrategy):
    """Local steps with periodic delta-sum synchronization."""

    name = "local_sgd"
    description = (
        "Workers take H local SGD steps, then ring-allreduce parameter "
        "deltas against the last sync anchor (DiLoCo-style)."
    )

    def setup(self, run: StrategyRun) -> None:
        period = int(run.options.get("sync_period", 4))
        if period < 1:
            raise ValueError("sync_period must be at least 1")
        self._period = period
        self._anchors: Dict[int, np.ndarray] = {}
        run.extras["sync_period"] = period
        run.extras["sync_rounds"] = 0

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        if isinstance(gradient, SizedPayload):
            raise ValueError(
                "local_sgd syncs weight deltas, which a size-only model lacks"
            )
        trainer = node.trainer
        if node.node_id not in self._anchors:
            # The anchor is the replica state before any local step —
            # identical across workers (same seed) at iteration 0.
            self._anchors[node.node_id] = trainer.net.parameter_vector()

        # The local step always happens: LocalSGD workers own their
        # optimizer (momentum keeps tracking the local gradient stream).
        trainer.apply_gradient(gradient)
        if (iteration + 1) % self._period:
            return StrategyUpdate()  # no communication this iteration

        anchor = self._anchors[node.node_id]
        comm = node.run.comm
        sync_start = comm.sim.now
        delta = (trainer.net.parameter_vector() - anchor).astype(np.float32)
        total_delta = yield from ring_exchange(
            node.endpoint, delta, range(node.run.num_workers)
        )
        new_weights = (anchor + total_delta).astype(np.float32)
        self._anchors[node.node_id] = new_weights
        if node.node_id == 0:
            node.run.extras["sync_rounds"] += 1
            if comm.tracer is not None:
                comm.tracer.span(
                    "local_sgd.sync",
                    cat=CAT_STRATEGY,
                    ts=sync_start,
                    dur=comm.sim.now - sync_start,
                    node=node.node_id,
                    sync_period=self._period,
                    iteration=iteration,
                )
        return StrategyUpdate(weights=new_weights)
