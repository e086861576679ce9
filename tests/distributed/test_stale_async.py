"""Bounded-staleness PS semantics: bound 0 is a synchronous
sequential-apply server; positive bounds cap how far any worker's
applied rounds can lead the slowest."""

import numpy as np
import pytest

from repro.distributed import run_strategy, spawn_key
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.dnn.training import LocalTrainer
from repro.transport import ClusterConfig

WORKERS = 3
BATCH = 16
SEED = 0


def _dataset():
    return hdc_dataset(train_size=300, test_size=60, seed=0)


def _make_optimizer():
    return SGD(LRSchedule(0.02), momentum=0.9)


def _run(iterations, bound, jitter=0.0):
    return run_strategy(
        "stale_async",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=_make_optimizer,
        dataset=_dataset(),
        num_workers=WORKERS,
        iterations=iterations,
        batch_size=BATCH,
        cluster=ClusterConfig(num_nodes=WORKERS + 1),
        seed=SEED,
        options={
            "staleness_bound": bound,
            "compute_jitter": jitter,
        },
    )


def _reference_sync_ps(iterations):
    """Pure-host reference for bound=0: per round, every worker grads
    against the same weights, the server applies the gradients
    sequentially in worker order, and everyone re-pulls."""
    dataset = _dataset()
    server_net = build_hdc(seed=SEED)
    server_opt = _make_optimizer()
    trainers = [
        LocalTrainer(
            net=build_hdc(seed=SEED),
            optimizer=_make_optimizer(),
            dataset=dataset.shard(i, WORKERS),
            batch_size=BATCH,
            seed=spawn_key(SEED, i),
        )
        for i in range(WORKERS)
    ]
    for _ in range(iterations):
        grads = [t.local_gradient()[1] for t in trainers]
        for grad in grads:  # arrival order without jitter: worker order
            server_opt.step_with_vector(server_net, grad)
        weights = server_net.parameter_vector()
        for t in trainers:
            t.net.set_parameter_vector(weights)
    return server_net.parameter_vector()


def test_bound_zero_is_a_synchronous_sequential_apply_server():
    iterations = 6
    result = _run(iterations, bound=0)
    expected = _reference_sync_ps(iterations)
    np.testing.assert_array_equal(result.final_weights, expected)
    # A round barrier admits no lead at all.
    extras = result.extras
    assert extras["round_lead"] and max(extras["round_lead"]) == 0
    assert len(extras["staleness"]) == WORKERS * iterations


def test_bound_caps_round_lead_under_jitter():
    bound = 1
    result = _run(iterations=8, bound=bound, jitter=0.5)
    extras = result.extras
    assert len(extras["round_lead"]) == WORKERS * 8
    assert max(extras["round_lead"]) <= bound
    assert extras["staleness_bound"] == bound


def test_larger_bound_admits_more_staleness():
    tight = _run(iterations=8, bound=0, jitter=0.5)
    loose = _run(iterations=8, bound=3, jitter=0.5)
    assert max(loose.extras["round_lead"]) <= 3
    # The loose server replies earlier, so it finishes sooner.
    assert loose.virtual_time_s <= tight.virtual_time_s
    # And its workers see weights more updates behind the frontier.
    assert max(loose.extras["staleness"]) >= max(
        tight.extras["staleness"]
    )


def test_bound_zero_still_learns():
    result = _run(iterations=20, bound=0)
    assert result.loss_order[-1] < result.loss_order[0]


def test_negative_bound_rejected():
    with pytest.raises(ValueError, match="staleness_bound"):
        _run(iterations=2, bound=-1)
