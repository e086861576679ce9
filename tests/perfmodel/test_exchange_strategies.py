"""Every strategy's timing study is its training run on sizes.

``simulate_exchange`` drives the training loop over a size-only model.
On a raw star the functional ``run_strategy`` run and the size-only one
send the same messages at the same instants, so the virtual time, every
Table II row, the ``TransferSummary`` and the strategy's extras agree
bit for bit — for the hierarchy and both parameter servers too, gates
and withheld replies included.
"""

import pytest

from repro.distributed import get_strategy, run_strategy
from repro.distributed import ComputeProfile
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.perfmodel import simulate_exchange
from repro.transport import ClusterConfig

WORKERS = 4
ITERATIONS = 3
TRAIN_PACKETS = 44
#: Compute-heavy, so jittered workers drift far enough for the SSP gate
#: and the round bound to hold workers back.
PROFILE = ComputeProfile(
    forward_s=2e-2, backward_s=6e-2, gpu_copy_s=1e-3, update_s=2e-3
)

CASES = {
    "hierarchy": ("hierarchy", {"group_size": 2}),
    "async_ps": ("async_ps", {}),
    "async_ps_jitter_ssp": (
        "async_ps",
        {"compute_jitter": 0.9, "max_staleness": 0},
    ),
    "stale_async_jitter": (
        "stale_async",
        {"compute_jitter": 0.9, "staleness_bound": 0},
    ),
}


def _hex_phases(phases):
    return {name: seconds.hex() for name, seconds in phases.as_dict().items()}


def _train(algorithm, options):
    return run_strategy(
        algorithm,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=WORKERS + get_strategy(algorithm).extra_nodes,
            train_packets=TRAIN_PACKETS,
        ),
        profile=PROFILE,
        options=options,
    )


def _simulate(algorithm, options, **kwargs):
    return simulate_exchange(
        algorithm,
        WORKERS,
        build_hdc(seed=0).nbytes,
        iterations=ITERATIONS,
        profile=PROFILE,
        train_packets=TRAIN_PACKETS,
        options=options,
        **kwargs,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_sized_exchange_is_the_training_run(case):
    algorithm, options = CASES[case]
    trained = _train(algorithm, options)
    simulated = _simulate(algorithm, options)
    assert simulated.algorithm == algorithm
    assert trained.virtual_time_s.hex() == simulated.total_s.hex()
    assert _hex_phases(trained.phases) == _hex_phases(simulated.phases)
    assert trained.transfers == simulated.transfers
    assert trained.extras == simulated.extras


@pytest.mark.parametrize("case", ["async_ps_jitter_ssp", "stale_async_jitter"])
def test_the_bound_holds_jittered_workers_back(case):
    # The gated cases exercise gates and withheld replies: without
    # the bound the same jittered run finishes sooner.
    algorithm, options = CASES[case]
    unbounded = _simulate("async_ps", {"compute_jitter": 0.9})
    assert _simulate(algorithm, options).total_s > unbounded.total_s


def test_local_sgd_refuses_sizes_and_says_why():
    with pytest.raises(ValueError, match="local_sgd.*weight deltas"):
        _simulate("local_sgd", {"sync_period": 1})


def test_flow_fidelity_names_a_strategy_it_cannot_evaluate():
    with pytest.raises(ValueError, match="strategy 'hierarchy'"):
        simulate_exchange("hierarchy", WORKERS, 1 << 20, fidelity="flow")


def test_flow_fidelity_rejects_compute_jitter():
    with pytest.raises(ValueError, match="compute_jitter"):
        simulate_exchange(
            "ring", WORKERS, 1 << 20, fidelity="flow",
            options={"compute_jitter": 0.5},
        )


def test_unknown_strategy_is_named():
    with pytest.raises(ValueError, match="unknown strategy 'mesh'"):
        simulate_exchange("mesh", WORKERS, 1 << 20)
