"""LocalSGD convergence: H=1 degenerates to the sync ring, H>1 trades
communication for drift but still learns."""

import numpy as np

from repro.distributed import (
    ComputeProfile,
    run_strategy,
)
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig

WORKERS = 4
BATCH = 16


def _dataset():
    return hdc_dataset(train_size=400, test_size=100, seed=0)


def _common():
    return dict(
        build_net=lambda s: build_hdc(seed=s),
        # Zero weight decay: decay breaks the momentum linearity that
        # makes H=1 exactly the ring (see the module docstring of
        # repro.distributed.local_sgd).
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=_dataset(),
        num_workers=WORKERS,
        batch_size=BATCH,
        seed=0,
    )


def _local_sgd(iterations, sync_period, **extra):
    common = _common()
    common.update(extra)
    return run_strategy(
        "local_sgd",
        iterations=iterations,
        cluster=ClusterConfig(num_nodes=WORKERS),
        options={"sync_period": sync_period},
        **common,
    )


def test_h1_is_the_synchronous_ring():
    # Summing parameter deltas every iteration == summing gradients:
    # by momentum linearity the trajectories coincide, so the final
    # weights agree to float reordering noise.
    iterations = 10
    ring = run_strategy(
        "ring",
        iterations=iterations,
        cluster=ClusterConfig(num_nodes=WORKERS),
        **_common(),
    )
    local = _local_sgd(iterations, sync_period=1)
    np.testing.assert_allclose(
        local.final_weights, ring.final_weights, atol=1e-6
    )
    np.testing.assert_allclose(
        local.losses, ring.losses, rtol=1e-6
    )
    assert local.extras["sync_rounds"] == iterations


def test_h4_learns_and_syncs_every_fourth_iteration():
    # Summed deltas scale the effective step by the worker count, and
    # with H local steps between syncs that compounds — scale the local
    # rate down by 1/N to keep the H>1 regime stable (the usual
    # LocalSGD outer/inner rate split).
    iterations = 40
    local = _local_sgd(
        iterations,
        sync_period=4,
        make_optimizer=lambda: SGD(LRSchedule(0.005), momentum=0.9),
    )
    assert local.extras["sync_rounds"] == iterations // 4
    # Still converging: the periodic delta-sum keeps replicas anchored.
    assert local.losses[-1] < local.losses[0]
    assert local.final_top1 > 0.5


def test_h4_moves_a_quarter_of_the_ring_wire_bytes():
    iterations = 8
    ring = run_strategy(
        "ring",
        iterations=iterations,
        cluster=ClusterConfig(num_nodes=WORKERS),
        **_common(),
    )
    local = _local_sgd(iterations, sync_period=4)
    assert local.transfers is not None and ring.transfers is not None
    # One ring round every H iterations: exactly 1/H the messages/bytes.
    assert local.transfers.messages * 4 == ring.transfers.messages
    assert local.transfers.nbytes * 4 == ring.transfers.nbytes


def test_fewer_syncs_cut_communication_time():
    profile = ComputeProfile(
        forward_s=1e-4,
        backward_s=3e-4,
        gpu_copy_s=5e-5,
        update_s=2e-4,
        sum_bandwidth_bps=10.4e9,
    )
    iterations = 8
    h1 = _local_sgd(iterations, sync_period=1, profile=profile)
    h4 = _local_sgd(iterations, sync_period=4, profile=profile)
    assert h4.virtual_time_s < h1.virtual_time_s


def test_sync_period_must_be_positive():
    import pytest

    with pytest.raises(ValueError, match="sync_period"):
        _local_sgd(4, sync_period=0)
