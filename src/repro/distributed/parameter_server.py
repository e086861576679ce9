"""Asynchronous parameter servers (HogWild!/DistBelief/SSP related work).

The paper's Sec. IX discusses asynchronous worker-aggregator systems
(HogWild! [80], DistBelief [1], SSP [81]) that trade gradient staleness
for reduced synchronization.  This module implements that family over
the same simulated cluster so the benches can compare it against the
synchronous WA baseline and the INCEPTIONN ring.

Both plugins run one :class:`ParameterServer`: each worker sends its
gradient to the server node and installs the weights it gets back.  The
server applies every gradient on arrival and counts, per worker, the
rounds it has applied.  Under a *round bound* ``b`` the **reply** to
worker ``w`` (fresh weights for its next round) is withheld until every
other worker has at least ``applied[w] - b`` rounds applied, so no
worker's weights lag the round frontier by more than ``b`` rounds.  A
worker sends its next gradient only after that reply, and the others'
counts only grow meanwhile, so every arrival is already within the
bound: the server never has to hold a gradient back.  ``b = None`` is
unbounded: every gradient is answered at once.

* ``"async_ps"`` runs the server unbounded; an optional SSP-style
  ``max_staleness`` gate on the *worker* side blocks a worker whose
  iteration count runs more than ``s`` ahead of the slowest worker.
* ``"stale_async"`` enforces ``staleness_bound`` (default 0) at the
  server.  Bound 0 is a round barrier: each round's gradients apply in
  arrival order and all workers receive identical post-round weights —
  a synchronous sequential-apply server, which the convergence suite
  pins against a pure-NumPy reference.
"""

from __future__ import annotations

import numbers
from typing import Any, Generator, List, Mapping, Optional, Set

import numpy as np

from repro.dnn.network import Sequential
from repro.network import Event
from repro.obs import CAT_ASYNC, CAT_STRATEGY

from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)


def _bound_option(options: Mapping[str, Any], key: str) -> Optional[int]:
    """``options[key]`` as a round count ``>= 0``, or ``None`` if unset."""
    value = options.get(key)
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 0
    ):
        raise ValueError(f"{key} must be an integer >= 0, got {value!r}")
    return int(value)


class ParameterServer(GradientStrategy):
    """One server node owning the canonical model, under a round bound.

    Subclasses set :attr:`round_span` and :attr:`trace_cat` (the
    worker's round span), may set ``_bound`` before :meth:`setup`, and
    write their per-apply record in :meth:`_record_apply`.
    """

    #: The server owns the canonical optimizer and pays the update.
    worker_applies_update = False
    extra_nodes = 1  # the parameter-server node
    #: Name and category of each worker's send-to-reply span.
    round_span = ""
    trace_cat = ""
    #: Rounds a worker's applied count may lead any other's (None: no bound).
    _bound: Optional[int] = None

    def setup(self, run: StrategyRun) -> None:
        self._server_id = run.num_workers
        run.comm.endpoints[self._server_id].promiscuous = True
        self._net = run.replica()
        self._opt = run.make_optimizer()
        self._version = 0  # optimizer steps applied so far
        self._applied = [0] * run.num_workers  # rounds applied per worker
        self._pull_version = [0] * run.num_workers
        self._unreplied: Set[int] = set()  # applied, awaiting reply gate
        run.extras["staleness"] = []  # server updates between pull & apply
        run.comm.sim.process(self._server(run))

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        ep = node.endpoint
        comm = node.run.comm
        round_start = comm.sim.now
        ep.isend(self._server_id, gradient, profile=comm.config.profile)
        weights = yield ep.recv(self._server_id)
        if comm.tracer is not None:
            comm.tracer.span(
                self.round_span,
                cat=self.trace_cat,
                ts=round_start,
                dur=comm.sim.now - round_start,
                node=node.node_id,
                iteration=iteration,
            )
        return StrategyUpdate(weights=weights)

    def final_model(self, run: StrategyRun) -> Sequential:
        return self._net

    def _record_apply(
        self, run: StrategyRun, worker: int, staleness: int
    ) -> None:
        """Log one apply (before its step) in ``run.extras``/the tracer."""

    def _round_lead(self, worker: int) -> int:
        """Rounds ``worker`` has applied beyond the slowest other worker."""
        return self._applied[worker] - min(
            count for w, count in enumerate(self._applied) if w != worker
        )

    def _within_bound(self, worker: int) -> bool:
        return self._bound is None or self._round_lead(worker) <= self._bound

    def _server(self, run: StrategyRun) -> Generator[Event, Any, None]:
        comm = run.comm
        server = self._server_id
        ep = comm.endpoints[server]
        compute = comm.compute
        staleness_log: List[int] = run.extras["staleness"]
        for _ in range(run.num_workers * run.iterations):
            src, grad = yield ep.recv_any()
            # Node 0 waits on the server's work on its own gradient.
            dt = compute.sum_time(grad.nbytes)
            yield from comm.spend("gradient_sum", dt, server, src == 0)
            staleness = self._version - self._pull_version[src]
            staleness_log.append(staleness)
            self._record_apply(run, src, staleness)
            self._opt.step_with_vector(self._net, grad)
            self._version += 1
            yield from comm.spend("update", compute.update_s, server, src == 0)
            self._applied[src] += 1
            self._unreplied.add(src)
            # Release every reply the new frontier allows.
            for worker in sorted(self._unreplied):
                if self._within_bound(worker):
                    self._pull_version[worker] = self._version
                    ep.isend(worker, self._net.parameter_vector())
                    self._unreplied.discard(worker)


@register_strategy
class AsyncPSStrategy(ParameterServer):
    """Fully asynchronous parameter server with an optional SSP gate.

    Options: ``max_staleness`` enables the SSP gate (``None`` is fully
    asynchronous — HogWild-style, but with the server serializing
    updates, since the simulated cluster has no shared memory to race
    on); the driver's ``compute_jitter`` perturbs each worker's compute
    time so workers actually drift.  Per-gradient staleness samples land
    in ``result.extras["staleness"]`` and the completion-ordered losses
    in ``result.loss_order``.
    """

    name = "async_ps"
    description = (
        "Server applies each gradient on arrival and replies with fresh "
        "weights; optional SSP max_staleness gates runaway workers."
    )
    round_span = "async.round"
    trace_cat = CAT_ASYNC

    def setup(self, run: StrategyRun) -> None:
        self._max_staleness = _bound_option(run.options, "max_staleness")
        self._worker_progress = [0] * run.num_workers
        self._staleness_waiters: List = []  # (needed, event)
        super().setup(run)

    def iteration_gate(
        self, node: NodeContext, iteration: int
    ) -> Optional[Event]:
        if self._max_staleness is None:
            return None
        needed = iteration - self._max_staleness
        if needed <= min(self._worker_progress):
            return None
        gate = node.run.comm.sim.event()
        self._staleness_waiters.append((needed, gate))
        return gate

    def after_apply(self, node: NodeContext, iteration: int) -> None:
        self._worker_progress[node.node_id] = iteration + 1
        slowest = min(self._worker_progress)
        still = []
        for needed, gate in self._staleness_waiters:
            if slowest >= needed:
                gate.succeed()
            else:
                still.append((needed, gate))
        self._staleness_waiters[:] = still

    def _record_apply(
        self, run: StrategyRun, worker: int, staleness: int
    ) -> None:
        tracer = run.comm.tracer
        if tracer is not None:
            tracer.instant(
                "async.apply",
                cat=CAT_ASYNC,
                ts=run.comm.sim.now,
                node=self._server_id,
                src=worker,
                staleness=staleness,
            )
            tracer.metrics.histogram(
                "staleness", buckets=(0, 1, 2, 4, 8, 16)
            ).observe(staleness)


@register_strategy
class StaleAsyncStrategy(ParameterServer):
    """Server-side bounded-staleness asynchronous parameter server."""

    name = "stale_async"
    description = (
        "Async PS whose server withholds replies to keep every "
        "worker within `staleness_bound` rounds."
    )
    round_span = "stale_async.round"
    trace_cat = CAT_STRATEGY

    def setup(self, run: StrategyRun) -> None:
        self._bound = _bound_option(run.options, "staleness_bound") or 0
        run.extras["staleness_bound"] = self._bound
        super().setup(run)
        run.extras["round_lead"] = []  # rounds ahead of slowest at apply

    def _record_apply(
        self, run: StrategyRun, worker: int, staleness: int
    ) -> None:
        lead = max(0, self._round_lead(worker))
        run.extras["round_lead"].append(lead)
        if run.comm.tracer is not None:
            run.comm.tracer.instant(
                "stale_async.apply",
                cat=CAT_STRATEGY,
                ts=run.comm.sim.now,
                node=self._server_id,
                src=worker,
                staleness=staleness,
                round_lead=lead,
            )
