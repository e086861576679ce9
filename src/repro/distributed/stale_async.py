"""Bounded-staleness parameter server with per-worker version tracking.

Where :mod:`repro.distributed.async_ps` bounds staleness on the *worker*
side (an SSP gate on iteration progress), this strategy enforces the
bound at the *server*: the server tracks, per worker, how many of that
worker's gradient rounds it has applied, and

* a gradient for worker ``w``'s round ``t`` is **applied** only once
  every other worker has at least ``t - bound`` rounds applied
  (arrivals that run ahead queue at the server);
* the **reply** to ``w`` (carrying fresh weights for round ``t + 1``)
  is withheld until every other worker has at least
  ``applied[w] - bound`` rounds applied.

So no worker's weights can ever lag the round frontier by more than
``bound`` rounds, regardless of compute jitter.  ``bound == 0``
degenerates to a round barrier: each round's gradients apply in arrival
order and all workers receive identical post-round weights — a fully
synchronous sequential-apply parameter server, which the convergence
suite pins against a pure-NumPy reference.  ``bound → ∞`` recovers the
fully asynchronous server.
"""

from __future__ import annotations

from typing import Any, Generator, List, Mapping, Optional, Set

import numpy as np

from repro.dnn.network import Sequential
from repro.network import Event
from repro.obs import CAT_STRATEGY

from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)


@register_strategy
class StaleAsyncStrategy(GradientStrategy):
    """Server-side bounded-staleness asynchronous parameter server."""

    name = "stale_async"
    description = (
        "Async PS whose server queues gradients and withholds replies "
        "to keep every worker within `staleness_bound` rounds."
    )
    #: The server owns the canonical optimizer and pays the update.
    worker_applies_update = False

    def extra_nodes(
        self, num_workers: int, options: Mapping[str, Any]
    ) -> int:
        return 1  # the parameter-server node

    def setup(self, run: StrategyRun) -> None:
        bound = run.options.get("staleness_bound", 0)
        bound = 0 if bound is None else int(bound)
        if bound < 0:
            raise ValueError("staleness_bound cannot be negative")
        self._bound = bound
        self._server_id = run.num_workers
        run.comm.endpoints[self._server_id].promiscuous = True
        self._net = run.replica()
        self._opt = run.make_optimizer()
        self._version = 0  # optimizer steps applied so far
        self._applied = [0] * run.num_workers  # rounds applied per worker
        self._pull_version = [0] * run.num_workers
        self._pending: "dict[int, np.ndarray]" = {}  # queued gradients
        self._unreplied: Set[int] = set()  # applied, awaiting reply gate
        run.extras["staleness_bound"] = bound
        run.extras["staleness"] = []  # server updates between pull & apply
        run.extras["round_lead"] = []  # rounds ahead of slowest at apply
        run.extras["queued"] = 0  # arrivals that had to wait
        run.comm.spawn(self._server(run))

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        ep = node.endpoint
        round_start = node.comm.now
        ep.isend(self._server_id, gradient, profile=node.stream)
        weights = yield ep.recv(self._server_id)
        if node.tracer is not None:
            node.tracer.span(
                "stale_async.round",
                cat=CAT_STRATEGY,
                ts=round_start,
                dur=node.comm.now - round_start,
                node=node.node_id,
                iteration=iteration,
            )
        return StrategyUpdate(weights=weights)

    def final_model(self, run: StrategyRun) -> Sequential:
        return self._net

    def _min_other_applied(self, worker: int) -> int:
        return min(
            count
            for w, count in enumerate(self._applied)
            if w != worker
        )

    def _applicable(self, worker: int) -> bool:
        return (
            self._min_other_applied(worker)
            >= self._applied[worker] - self._bound
        )

    def _next_applicable(self) -> Optional[int]:
        """Queued worker whose gradient may apply now, lowest round first."""
        ready = [w for w in self._pending if self._applicable(w)]
        if not ready:
            return None
        return min(ready, key=lambda w: (self._applied[w], w))

    def _server(self, run: StrategyRun) -> Generator[Event, Any, None]:
        comm = run.comm
        server = self._server_id
        ep = comm.endpoints[server]
        profile = run.profile
        tracer = run.tracer
        staleness_log: List[int] = run.extras["staleness"]
        lead_log: List[int] = run.extras["round_lead"]
        total_updates = run.num_workers * run.iterations
        applied_updates = 0

        while applied_updates < total_updates:
            src, grad = yield ep.recv_any()
            self._pending[src] = grad
            if not self._applicable(src):
                run.extras["queued"] += 1

            # Apply every queued gradient the bound now admits, in
            # (round, worker) order, then release the replies the
            # frontier allows.  Applying can admit further applies but
            # never the reverse, so one apply-drain then one reply
            # sweep settles the server state.
            while True:
                worker = self._next_applicable()
                if worker is None:
                    break
                pending = self._pending.pop(worker)
                # Node 0 waits on the server's work on its own gradient.
                dt = profile.sum_time(pending.nbytes)
                yield from comm.spend("gradient_sum", dt, server, worker == 0)
                staleness = self._version - self._pull_version[worker]
                lead = max(
                    0,
                    self._applied[worker] - self._min_other_applied(worker),
                )
                staleness_log.append(staleness)
                lead_log.append(lead)
                if tracer is not None:
                    tracer.instant(
                        "stale_async.apply",
                        cat=CAT_STRATEGY,
                        ts=comm.now,
                        node=server,
                        src=worker,
                        staleness=staleness,
                        round_lead=lead,
                    )
                self._opt.step_with_vector(self._net, pending)
                self._version += 1
                yield from comm.spend("update", profile.update_s, server, worker == 0)
                self._applied[worker] += 1
                self._unreplied.add(worker)
                applied_updates += 1

            for worker in sorted(self._unreplied):
                if (
                    self._min_other_applied(worker)
                    >= self._applied[worker] - self._bound
                ):
                    self._pull_version[worker] = self._version
                    ep.isend(worker, self._net.parameter_vector())
                    self._unreplied.discard(worker)
