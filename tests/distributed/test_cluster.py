"""End-to-end distributed training runs (functional + timing)."""

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.distributed import ComputeProfile, RingStrategy, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.network import parse_tenants
from repro.transport import ClusterConfig


def _run(algorithm, iterations=12, compression=False, num_workers=4,
         profile=None, seed=0, bandwidth=10e9, **kwargs):
    num_nodes = num_workers + 1 if algorithm == "wa" else num_workers
    return run_strategy(
        algorithm,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=400, test_size=100, seed=0),
        num_workers=num_workers,
        iterations=iterations,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=num_nodes,
            bandwidth_bps=bandwidth,
            profile=inceptionn_profile() if compression else None,
        ),
        profile=profile or ComputeProfile(),
        seed=seed,
        **kwargs,
    )


def test_ring_and_wa_learn_equally_without_compression():
    ring = _run("ring", iterations=40)
    wa = _run("wa", iterations=40)
    # Same seeds, same math (sum of local gradients): trajectories match
    # closely; final losses and accuracies agree.
    assert ring.losses[-1] < ring.losses[0]
    assert wa.losses[-1] < wa.losses[0]
    assert ring.final_top1 == pytest.approx(wa.final_top1, abs=0.06)
    np.testing.assert_allclose(ring.losses, wa.losses, rtol=0.05)


def test_ring_faster_than_wa_same_iterations():
    # Communication-bound regime: the ring removes the aggregator
    # bottleneck (paper Fig 12: 31-52% shorter training time).
    ring = _run("ring", iterations=6, bandwidth=1e9)
    wa = _run("wa", iterations=6, bandwidth=1e9)
    assert ring.virtual_time_s < wa.virtual_time_s
    speedup = wa.virtual_time_s / ring.virtual_time_s
    assert 1.2 < speedup < 4.0


def test_compression_reduces_ring_time():
    plain = _run("ring", iterations=6, bandwidth=1e9)
    # No stream= here: the cluster's profile is the gradient stream.
    comp = _run("ring", iterations=6, bandwidth=1e9, compression=True)
    assert comp.virtual_time_s < plain.virtual_time_s
    assert comp.transfers.wire_ratio > 1.5


def test_a_stream_the_cluster_does_not_carry_is_refused():
    # The cluster's profile is the run's stream; a second spelling that
    # disagrees with it names the fix instead of training on either.
    # No NIC engines (a raw cluster):
    with pytest.raises(ValueError, match=r"ClusterConfig\(.*profile=stream\)"):
        _run("ring", iterations=1, stream=inceptionn_profile())
    # Another bound than the cluster's 2^-10:
    with pytest.raises(ValueError, match=r"ClusterConfig\(.*profile=stream\)"):
        _run(
            "ring",
            iterations=1,
            compression=True,
            stream=inceptionn_profile(ErrorBound(6)),
        )
    # The cluster's own profile, spelled again, is accepted.
    again = _run("ring", iterations=1, compression=True, stream=inceptionn_profile())
    assert again.transfers.wire_ratio > 1


def test_an_omitted_stream_rides_the_clusters_codec():
    result = _run("ring", iterations=1, compression=True)
    assert result.transfers.compressed_messages == result.transfers.messages
    assert result.transfers.wire_ratio > 1


@pytest.mark.parametrize("algorithm", ["ring", "wa", "hierarchy"])
def test_background_tenants_move_time_never_values(algorithm):
    # Tenants share the fabric with the run (the exchange simulators
    # time them through the same cluster runner): they may delay it,
    # but what it computes cannot depend on when messages land.
    def train(tenants):
        return run_strategy(
            algorithm,
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02)),
            dataset=hdc_dataset(train_size=40, test_size=10, seed=0),
            num_workers=4,
            iterations=2,
            batch_size=16,
            cluster=ClusterConfig(
                num_nodes=4 + (algorithm == "wa"),
                topology="fat-tree:k=4",
                tenants=tenants,
            ),
        )

    alone = train(())
    shared = train(parse_tenants("train:4,infer:4"))
    assert np.array_equal(
        shared.final_weights.view(np.uint32), alone.final_weights.view(np.uint32)
    )
    assert shared.losses == alone.losses
    assert shared.virtual_time_s >= alone.virtual_time_s
    if algorithm == "wa":
        # On this placement tenant flows delay the aggregator's gather
        # (the rings happen to run unslowed): the tenants did run.
        assert shared.virtual_time_s > alone.virtual_time_s


def _jittered_run(jitter, build_net=lambda s: build_hdc(seed=s)):
    return run_strategy(
        "ring",
        build_net=build_net,
        make_optimizer=lambda: SGD(LRSchedule(0.02)),
        dataset=hdc_dataset(train_size=40, test_size=10, seed=0),
        num_workers=2,
        iterations=2,
        batch_size=8,
        profile=ComputeProfile(forward_s=1e-3, backward_s=3e-3),
        options={"compute_jitter": jitter},
    )


@pytest.mark.parametrize("jitter", [1.5, -0.25, float("nan"), True, "0.5"])
def test_run_strategy_refuses_a_compute_jitter_outside_zero_to_one(jitter):
    # A jitter above 1 can draw a negative compute delay, which kills the
    # run partway and only on some seeds; refuse it before any model exists.
    def never_built(seed):
        raise AssertionError("the run started")

    with pytest.raises(ValueError, match="compute_jitter"):
        _jittered_run(jitter, build_net=never_built)


@pytest.mark.parametrize("jitter", [None, 0, 1, np.float64(0.5)])
def test_a_compute_jitter_in_zero_to_one_is_accepted(jitter):
    assert _jittered_run(jitter).virtual_time_s > 0


class _GateNeverOpens(RingStrategy):
    """A ring whose workers wait at iteration 2 for an event nobody fires."""

    def iteration_gate(self, node, iteration):
        return node.run.comm.sim.event() if iteration == 2 else None


def test_run_strategy_refuses_a_worker_that_never_finished():
    # The run used to end when the event queue drained and report the
    # iterations that did finish as a successful run.
    with pytest.raises(RuntimeError, match="worker 0 stopped at iteration 2 of 4"):
        run_strategy(
            _GateNeverOpens(),
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02)),
            dataset=hdc_dataset(train_size=40, test_size=10, seed=0),
            num_workers=2,
            iterations=4,
            batch_size=8,
        )


def test_compressed_training_still_learns():
    result = _run("ring", iterations=40, compression=True)
    baseline = _run("ring", iterations=40)
    assert result.losses[-1] < result.losses[0]
    assert result.final_top1 > baseline.final_top1 - 0.1


def test_wa_compression_only_helps_gradient_leg():
    plain = _run("wa", iterations=6, bandwidth=1e9)
    comp = _run("wa", iterations=6, bandwidth=1e9, compression=True)
    # Some gain (the up leg shrinks) but bounded: the weight leg is
    # incompressible, so less than half the traffic can shrink.
    assert comp.virtual_time_s < plain.virtual_time_s
    assert comp.virtual_time_s > plain.virtual_time_s * 0.4


def test_phase_accounting_sums_to_total():
    profile = ComputeProfile(
        forward_s=1e-4, backward_s=5e-4, gpu_copy_s=1e-4, update_s=2e-4
    )
    result = _run("ring", iterations=5, profile=profile)
    assert sum(result.phase_seconds.values()) == pytest.approx(
        result.virtual_time_s, rel=1e-6
    )
    assert result.phase_seconds["forward"] == pytest.approx(5e-4)
    assert result.phase_seconds["communicate"] > 0


def test_communication_fraction_grows_with_slow_network():
    profile = ComputeProfile(forward_s=1e-5, backward_s=1e-5, update_s=1e-5)
    fast = _run("wa", iterations=4, profile=profile, bandwidth=10e9)
    slow = _run("wa", iterations=4, profile=profile, bandwidth=0.5e9)
    assert slow.communication_fraction > fast.communication_fraction


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        _run("butterfly")


def test_too_few_workers_rejected():
    with pytest.raises(ValueError):
        _run("ring", num_workers=1)


def test_eval_checkpoints_recorded():
    result = run_strategy(
        "ring",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=2,
        iterations=10,
        batch_size=16,
        eval_every=5,
    )
    assert len(result.eval_top1) == 2


def test_losses_recorded_per_iteration():
    result = _run("ring", iterations=7)
    assert len(result.losses) == 7
    assert all(np.isfinite(l) for l in result.losses)
