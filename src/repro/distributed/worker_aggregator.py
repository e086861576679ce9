"""The conventional worker-aggregator exchange (paper Fig 2, baseline).

Workers push local gradients up to a designated aggregator, which sums
them, applies the weight update, and broadcasts the new weights down.
Only the gradient (up) leg is compressible — weights do not tolerate
loss (paper Fig 4), which is exactly the asymmetry INCEPTIONN's
algorithm removes.

Where the sum happens is the cluster's ``agg_site`` knob.  At the
endpoint (default) arrivals fold at the aggregator host — through the
codec algebra when the stream is homomorphic, element-wise otherwise.
At the switch, a :class:`~repro.transport.aggregation.SwitchGather`
reduces payloads in-flight and the aggregator only collects the folded
result; both exchange legs here just pick the site, the mechanics live
in :mod:`repro.transport.aggregation`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

import numpy as np

from repro.network import Event
from repro.transport.aggregation import SwitchGather, aggregate_endpoint
from repro.transport.endpoint import Endpoint

from .node import ZERO_COMPUTE, ComputeProfile


def worker_exchange(
    ep: Endpoint,
    aggregator: int,
    gradient: np.ndarray,
    gather: Optional[SwitchGather] = None,
) -> Generator[Event, Any, np.ndarray]:
    """One worker's iteration legs: send g up, receive w down.

    The gradient leg rides the cluster's stream (the weight leg down is
    always raw).  With a ``gather`` (the switch aggregation site) the
    gradient rides the reduction tree instead of a host-to-host message.
    Returns the updated weight vector from the aggregator.
    """
    if gather is not None:
        gather.offer(ep.node_id, gradient)
    else:
        ep.isend(aggregator, gradient, profile=ep.comm.config.profile)
    weights = yield ep.recv(aggregator)
    return weights


def aggregator_exchange(
    ep: Endpoint,
    workers: List[int],
    apply_update: Callable[[np.ndarray], np.ndarray],
    profile: ComputeProfile = ZERO_COMPUTE,
    gather: Optional[SwitchGather] = None,
) -> Generator[Event, Any, np.ndarray]:
    """One aggregator iteration: gather, sum, update, broadcast.

    ``apply_update(total_gradient) -> weight_vector`` is the update rule
    (the aggregator owns the canonical weights and optimizer state).
    Three gather dispositions share the update/broadcast tail: the
    switch site collects the in-network folded part; a homomorphic
    endpoint stream folds arrivals through the codec algebra (bit-equal
    to the switch tree); everything else keeps the historical
    element-wise float32 accumulation verbatim.  The aggregator is a
    barrier, so it records every sum and update it spends.  Returns the
    broadcast weight vector.
    """
    stream = ep.comm.config.profile
    total: Optional[np.ndarray] = None
    if gather is not None:
        part = yield from gather.collect()
        if part.result is None:
            raise RuntimeError(
                "switch gather returned a size-only part; functional "
                "exchanges must offer real gradient arrays"
            )
        total = part.result.values
    elif stream is not None and stream.homomorphic:
        arrivals: List[np.ndarray] = []
        for count, src in enumerate(workers):
            grad = yield ep.recv(src)
            if count > 0:
                dt = profile.sum_time(grad.nbytes)
                yield from ep.comm.spend("gradient_sum", dt, ep.node_id)
            arrivals.append(grad)
        if not arrivals:
            raise ValueError("aggregator needs at least one worker")
        total = aggregate_endpoint(stream, arrivals)
    else:
        for src in workers:
            grad = yield ep.recv(src)
            if total is None:
                total = np.array(grad, dtype=np.float32, copy=True)
            else:
                dt = profile.sum_time(grad.nbytes)
                yield from ep.comm.spend("gradient_sum", dt, ep.node_id)
                total = (total + grad).astype(np.float32)
        if total is None:
            raise ValueError("aggregator needs at least one worker")
    yield from ep.comm.spend("update", profile.update_s, ep.node_id)
    weights = apply_update(total)
    events = [ep.isend(dst, weights) for dst in workers]
    yield ep.comm.sim.all_of(events)
    return weights
