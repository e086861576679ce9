"""Asynchronous parameter-server tests."""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import ComputeProfile, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig


def _run_async(iterations=15, num_workers=4, max_staleness=None,
               compute_jitter=0.3, profile=None, compression=False,
               lr=0.02):
    stream = inceptionn_profile() if compression else None
    return run_strategy(
        "async_ps",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(lr), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        num_workers=num_workers,
        iterations=iterations,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=num_workers + 1, profile=stream
        ),
        profile=profile or ComputeProfile(forward_s=1e-4, backward_s=3e-4),
        options={
            "max_staleness": max_staleness,
            "compute_jitter": compute_jitter,
        },
    )


def _staleness(result):
    return result.extras["staleness"]


def test_async_training_learns():
    result = _run_async(iterations=30)
    assert result.final_top1 > 0.5
    assert len(result.loss_order) == 4 * 30


def test_staleness_observed_with_jitter():
    result = _run_async(iterations=20, compute_jitter=0.5)
    assert len(_staleness(result)) == 4 * 20
    # Asynchrony means some updates see stale weights.
    assert max(_staleness(result)) >= 1


def test_ssp_bound_limits_progress_spread():
    bounded = _run_async(iterations=20, max_staleness=1, compute_jitter=0.5)
    free = _run_async(iterations=20, max_staleness=None, compute_jitter=0.5)
    assert np.mean(_staleness(bounded)) <= np.mean(_staleness(free)) + 1.0


def test_compression_works_in_async_mode():
    # Staleness + momentum + compression noise needs a gentler LR than
    # the synchronous runs — the classic async-SGD stability trade-off.
    result = _run_async(iterations=20, compression=True, lr=0.01)
    assert result.final_top1 > 0.4


def test_async_completes_all_updates():
    result = _run_async(iterations=10)
    assert len(_staleness(result)) == 40  # every gradient reached the server


def test_async_faster_than_sync_with_stragglers():
    """With heavy compute jitter, async avoids waiting for stragglers."""
    profile = ComputeProfile(forward_s=2e-3, backward_s=6e-3)
    async_result = _run_async(
        iterations=10, compute_jitter=0.9, profile=profile
    )
    sync_result = run_strategy(
        "wa",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        num_workers=4,
        iterations=10,
        batch_size=16,
        cluster=ClusterConfig(num_nodes=5),
        profile=profile,
    )
    # Equal per-worker iteration counts; async should not be slower.
    assert async_result.virtual_time_s <= sync_result.virtual_time_s * 1.3


def test_validation():
    with pytest.raises(ValueError):
        _run_async(num_workers=1)
    with pytest.raises(ValueError):
        _run_async(iterations=0)


def test_cluster_size_checked():
    with pytest.raises(ValueError):
        run_strategy(
            "async_ps",
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02)),
            dataset=hdc_dataset(train_size=100, test_size=20, seed=0),
            num_workers=4,
            iterations=2,
            batch_size=8,
            cluster=ClusterConfig(num_nodes=3),
        )
