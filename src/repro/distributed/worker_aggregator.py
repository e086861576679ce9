"""The conventional worker-aggregator exchange (paper Fig 2, baseline).

Workers push local gradients up to a designated aggregator, which sums
them, applies the weight update, and broadcasts the new weights down.
Only the gradient (up) leg is compressible — weights do not tolerate
loss (paper Fig 4), which is exactly the asymmetry INCEPTIONN's
algorithm removes.

Where the sum happens is the cluster's ``agg_site`` knob.  At the
endpoint (default) arrivals fold at the aggregator host — through the
codec algebra when the stream is homomorphic, element-wise otherwise.
A size-only gradient (paper-scale timing) runs the same legs on sizes.
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
from repro.transport.wire import Payload, SizedPayload, WireMessage


def worker_exchange(
    ep: Endpoint,
    aggregator: int,
    gradient: Payload,
    gather: Optional[SwitchGather] = None,
) -> Generator[Event, Any, Any]:
    """One worker's iteration legs: send g up, receive w down.

    The gradient leg rides the cluster's stream (the weight leg down is
    always raw).  With a ``gather`` (the switch aggregation site) the
    gradient rides the reduction tree instead of a host-to-host message.
    Returns what the aggregator broadcast: the updated weight vector
    (its size for a size-only gradient).
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
    apply_update: Callable[[Payload], Payload],
    gather: Optional[SwitchGather] = None,
) -> Generator[Event, Any, Payload]:
    """One aggregator iteration: gather, sum, update, broadcast.

    ``apply_update(total_gradient) -> weight_vector`` is the update rule
    (the aggregator owns the canonical weights and optimizer state).
    The switch site collects the in-network folded part.  At the
    endpoint, every arrival after the first costs a sum; the fold then
    runs through the codec algebra for a homomorphic stream (bit-equal
    to the switch tree) and as the element-wise float32 accumulation in
    arrival order otherwise.  Size-only gradients fold to their size.
    The aggregator is a barrier, so it records every sum and update it
    spends, at the cluster's ``compute`` rates.  Returns the broadcast
    weight vector.
    """
    compute = ep.comm.compute
    if gather is not None:
        part = yield from gather.collect()
        sized = part.result is None
        total = SizedPayload(part.raw_nbytes) if sized else part.result.values
    else:
        if not workers:
            raise ValueError("aggregator needs at least one worker")
        arrivals: List[WireMessage] = []
        for src in workers:
            msg = yield ep.recv_message(src)
            if arrivals:
                dt = compute.sum_time(msg.nbytes)
                yield from ep.comm.spend("gradient_sum", dt, ep.node_id)
            arrivals.append(msg)
        stream = ep.comm.config.profile
        if arrivals[0].size_only:
            total = SizedPayload(arrivals[0].nbytes)
        elif stream is not None and stream.homomorphic:
            total = aggregate_endpoint(stream, [msg.values for msg in arrivals])
        else:
            total = np.array(arrivals[0].values, dtype=np.float32, copy=True)
            for msg in arrivals[1:]:
                total = (total + msg.values).astype(np.float32)
    yield from ep.comm.spend("update", compute.update_s, ep.node_id)
    weights = apply_update(total)
    events = [ep.isend(dst, weights) for dst in workers]
    yield ep.comm.sim.all_of(events)
    return weights
