"""Asynchronous parameter server (HogWild!/SSP-style related work).

The paper's Sec. IX discusses asynchronous worker-aggregator systems
(HogWild! [80], DistBelief [1], SSP [81]) that trade gradient staleness
for reduced synchronization.  This module implements that family over
the same simulated cluster so the benches can compare it against the
synchronous WA baseline and the INCEPTIONN ring:

* the server applies each arriving gradient immediately and replies
  with the freshest weights (no global barrier);
* an optional SSP-style ``max_staleness`` bound blocks a worker whose
  iteration count runs more than ``s`` ahead of the slowest worker.

The schedule is the ``"async_ps"`` :class:`GradientStrategy` plugin.
For the *server-side* bounded-staleness variant with per-worker version
tracking, see :mod:`repro.distributed.stale_async`.
"""

from __future__ import annotations

from typing import Any, Generator, List, Mapping, Optional

import numpy as np

from repro.dnn.network import Sequential
from repro.network import Event
from repro.obs import CAT_ASYNC

from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)


@register_strategy
class AsyncPSStrategy(GradientStrategy):
    """Fully asynchronous parameter server with an optional SSP bound.

    Options: ``max_staleness`` enables the SSP bound (``None`` is fully
    asynchronous — HogWild-style, but with the server serializing
    updates, since the simulated cluster has no shared memory to race
    on); the driver's ``compute_jitter`` perturbs each worker's compute
    time so workers actually drift.  Per-gradient staleness samples land
    in ``result.report.extras["staleness"]`` and the completion-ordered
    losses in ``result.loss_order``.
    """

    name = "async_ps"
    description = (
        "Server applies each gradient on arrival and replies with fresh "
        "weights; optional SSP max_staleness gates runaway workers."
    )
    #: The server owns the canonical optimizer and pays the update.
    worker_applies_update = False

    def extra_nodes(
        self, num_workers: int, options: Mapping[str, Any]
    ) -> int:
        return 1  # the parameter-server node

    def setup(self, run: StrategyRun) -> None:
        self._server_id = run.num_workers
        self._max_staleness: Optional[int] = run.options.get("max_staleness")
        run.comm.endpoints[self._server_id].promiscuous = True
        self._server_net = run.replica()
        self._server_opt = run.make_optimizer()
        self._server_version = 0  # updates applied so far
        self._worker_pull_version = [0] * run.num_workers
        self._worker_progress = [0] * run.num_workers
        self._staleness_waiters: List = []  # (worker, needed, event)
        run.extras["staleness"] = []
        run.comm.spawn(self._server(run))

    def _min_progress(self) -> int:
        return min(self._worker_progress)

    def _wake_waiters(self) -> None:
        still = []
        for worker, needed, event in self._staleness_waiters:
            if self._min_progress() >= needed:
                event.succeed()
            else:
                still.append((worker, needed, event))
        self._staleness_waiters[:] = still

    def iteration_gate(
        self, node: NodeContext, iteration: int
    ) -> Optional[Event]:
        if self._max_staleness is None:
            return None
        needed = iteration - self._max_staleness
        if needed <= self._min_progress():
            return None
        gate = node.comm.event()
        self._staleness_waiters.append((node.node_id, needed, gate))
        return gate

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        ep = node.endpoint
        round_start = node.comm.now
        ep.isend(self._server_id, gradient, profile=node.stream)
        weights = yield ep.recv(self._server_id)
        if node.tracer is not None:
            node.tracer.span(
                "async.round",
                cat=CAT_ASYNC,
                ts=round_start,
                dur=node.comm.now - round_start,
                node=node.node_id,
                iteration=iteration,
            )
        return StrategyUpdate(weights=weights)

    def after_apply(self, node: NodeContext, iteration: int) -> None:
        self._worker_progress[node.node_id] = iteration + 1
        self._wake_waiters()

    def final_model(self, run: StrategyRun) -> Sequential:
        return self._server_net

    def _server(self, run: StrategyRun) -> Generator[Event, Any, None]:
        comm = run.comm
        server = self._server_id
        ep = comm.endpoints[server]
        profile = run.profile
        tracer = run.tracer
        staleness_log: List[int] = run.extras["staleness"]
        total_updates = run.num_workers * run.iterations
        for _ in range(total_updates):
            src, grad = yield ep.recv_any()
            # The server's work on node 0's gradient is what node 0 waits on.
            dt = profile.sum_time(grad.nbytes)
            yield from comm.spend("gradient_sum", dt, server, src == 0)
            staleness = self._server_version - self._worker_pull_version[src]
            staleness_log.append(staleness)
            if tracer is not None:
                tracer.instant(
                    "async.apply",
                    cat=CAT_ASYNC,
                    ts=comm.now,
                    node=server,
                    src=src,
                    staleness=staleness,
                )
                tracer.metrics.histogram(
                    "staleness", buckets=(0, 1, 2, 4, 8, 16)
                ).observe(staleness)
            self._server_opt.step_with_vector(self._server_net, grad)
            self._server_version += 1
            yield from comm.spend("update", profile.update_s, server, src == 0)
            self._worker_pull_version[src] = self._server_version
            ep.isend(src, self._server_net.parameter_vector())

