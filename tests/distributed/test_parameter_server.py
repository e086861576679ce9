"""The two parameter-server plugins share one server loop.

``async_ps`` with no SSP gate and ``stale_async`` with a bound no run
can reach schedule the same messages at the same simulated times, so
every simulated value must agree bit for bit.
"""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import ComputeProfile, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig

WORKERS = 3
ITERATIONS = 5
PROFILE = ComputeProfile(
    forward_s=2e-3, backward_s=6e-3, update_s=2e-4, sum_bandwidth_bps=10.4e9
)


def _run(strategy, options, stream=None):
    return run_strategy(
        strategy,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=40, seed=0),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=16,
        cluster=ClusterConfig(num_nodes=WORKERS + 1, profile=stream),
        profile=PROFILE,
        options={"compute_jitter": 0.5, **options},
    )


@pytest.mark.parametrize("compressed", [False, True], ids=["raw", "inceptionn"])
def test_ungated_async_ps_is_stale_async_with_an_unreachable_bound(compressed):
    stream = inceptionn_profile() if compressed else None
    free = _run("async_ps", {"max_staleness": None}, stream)
    bounded = _run("stale_async", {"staleness_bound": ITERATIONS}, stream)
    assert free.virtual_time_s.hex() == bounded.virtual_time_s.hex()
    assert free.final_weights.tobytes() == bounded.final_weights.tobytes()
    assert [x.hex() for x in free.loss_order] == [
        x.hex() for x in bounded.loss_order
    ]
    assert free.extras["staleness"] == bounded.extras["staleness"]
    assert free.phase_seconds == bounded.phase_seconds
    # The jitter made the workers drift: the server saw stale gradients.
    assert max(free.extras["staleness"]) >= 1


@pytest.mark.parametrize("strategy,option", [
    ("async_ps", "max_staleness"), ("stale_async", "staleness_bound"),
])
@pytest.mark.parametrize("value", [-1, True, 1.5, "1"])
def test_a_bound_is_an_integer_at_least_zero(strategy, option, value):
    with pytest.raises(ValueError, match=option):
        _run(strategy, {option: value})


def test_numpy_integer_bounds_are_accepted():
    result = _run("stale_async", {"staleness_bound": np.int64(1)})
    assert result.extras["staleness_bound"] == 1
    assert max(result.extras["round_lead"]) <= 1
