"""Two-level hierarchical training runs (Fig 1c end to end)."""

import pytest

from repro.core import inceptionn_profile
from repro.distributed import GroupLayout, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig


def _run_hier(num_nodes=4, group_size=2, iterations=15, compression=False):
    stream = inceptionn_profile() if compression else None
    return run_strategy(
        "hierarchy",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        num_workers=num_nodes,
        iterations=iterations,
        batch_size=16,
        cluster=ClusterConfig(num_nodes=num_nodes, profile=stream),
        options={"layout": GroupLayout.even(num_nodes, group_size)},
    )


def test_hierarchical_training_learns():
    result = _run_hier(iterations=30)
    assert result.algorithm == "hierarchy"
    assert result.losses[-1] < result.losses[0]
    assert result.final_top1 > 0.5


def test_matches_flat_ring_learning_curve():
    hier = _run_hier(num_nodes=4, group_size=2, iterations=20)
    flat = run_strategy(
        "ring",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        num_workers=4,
        iterations=20,
        batch_size=16,
        cluster=ClusterConfig(num_nodes=4),
    )
    # Same mathematics (global gradient sum): same trajectory.
    assert hier.losses[-1] == pytest.approx(flat.losses[-1], rel=0.05)


def test_compressed_hierarchy_learns():
    result = _run_hier(iterations=25, compression=True)
    assert result.final_top1 > 0.4


def test_eight_nodes_two_groups():
    result = _run_hier(num_nodes=8, group_size=4, iterations=8)
    assert result.num_workers == 8
    assert result.virtual_time_s > 0
    assert result.phase_seconds["communicate"] > 0


def test_layout_mismatch_rejected():
    with pytest.raises(ValueError):
        run_strategy(
            "hierarchy",
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02)),
            dataset=hdc_dataset(train_size=100, test_size=20, seed=0),
            num_workers=4,
            iterations=2,
            batch_size=8,
            cluster=ClusterConfig(num_nodes=6),
            options={"layout": GroupLayout.even(4, 2)},
        )
