"""The per-node ring flow evaluator, kept verbatim as the test-side oracle.

This is ``repro.perfmodel.flowsim.flow_ring_exchange`` as it stood
before the ring was stepped on runs of equal blocks: one array entry
per node, the step's send blocks gathered through ``ring_step_blocks``
and every node's delivery handed to its successor.  Host time grows
with workers squared and it is obviously the ring of Algorithm 1 —
which is what makes it a reference: ``test_flow_runs`` evaluates the
same :class:`~repro.perfmodel.exchange.Exchange` through both and
requires the same floats, bit for bit.

It shares ``deliver``, ``Star`` and ``_summarize`` with the production
evaluator on purpose: the ring's stepping is what the oracle checks.
Those are checked elsewhere: ``test_flow_runs`` holds ``deliver`` to
its float chain, ``test_flow_pins`` pins flow values bit for bit, and
the parity suite holds the flow evaluator to the packet kernel.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.node import block_sizes
from repro.distributed.ring import ring_step_blocks
from repro.obs import PhaseLedger
from repro.perfmodel.exchange import Exchange, Measured
from repro.perfmodel.flowsim import Star, _summarize, deliver


def flow_ring_exchange(job: Exchange) -> Measured:
    """Ring iterations on the job's star, every node stepped at once."""
    n, profile = job.num_workers, job.compute
    block_bytes = [s * 4 for s in block_sizes(job.nbytes // 4, n)]
    sizes, size_of_block = np.unique(block_bytes, return_inverse=True)
    star = Star(job.config)
    leg = star.leg(sizes.tolist(), job.config.profile, job.ratio)
    block_trains = leg.trains.rows(size_of_block)
    block_sum_s = np.array([profile.sum_time(b) for b in block_bytes])

    workers = np.arange(n)
    successor, predecessor = (workers + 1) % n, (workers - 1) % n
    stages = star.stages(leg, workers, successor)
    t_ready = np.zeros(n)
    sum_s = 0.0
    update_s = 0.0

    for _ in range(job.iterations):
        if profile.local_compute_s:
            t_ready = t_ready + profile.local_compute_s
        for step in range(1, 2 * n - 1):
            send_idx, recv_idx = ring_step_blocks(workers, step, n)
            delivered = deliver(t_ready, block_trains.rows(send_idx), stages)
            t_ready = delivered[predecessor]
            if step < n:
                dt = block_sum_s[recv_idx]
                t_ready = t_ready + dt
                sum_s += float(dt[0])
        if profile.update_s:
            update_s += profile.update_s
            t_ready = t_ready + profile.update_s

    # Every block is sent by exactly one node per step.
    sends = np.bincount(size_of_block) * (2 * n - 2) * job.iterations
    # The evaluator contract carries a ledger; the sums stay this file's own.
    ledger = PhaseLedger()
    ledger.add("gradient_sum", sum_s)
    ledger.add("update", update_s)
    return float(t_ready.max()), ledger, _summarize([(leg, sends.tolist())])
