"""``Scenario.run`` against the two hand-written HDC recipes it replaced.

``repro train`` and the sanitizer's strategy scenario each spelled the
HDC proxy run as an explicit ``run_strategy`` call.  Both calls are kept
here verbatim as references: a :class:`~repro.distributed.Scenario` with
the same fields must give the same final weights, losses, simulated time
and wire accounting, bit for bit.  Run is compared with run, so the
check holds under any BLAS.
"""

from typing import Optional

import pytest

from repro.core import profile_for
from repro.distributed import (
    DistributedRunResult,
    Scenario,
    available_strategies,
    get_strategy,
    run_strategy,
)
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import ClusterConfig

ITERATIONS = 2
WORKERS = 4

#: The cluster fields and options ``repro train``'s default flags set.
TRAIN_CLUSTER = {"agg_site": "endpoint", "loss_rate": 0.0}
TRAIN_OPTIONS = {
    "sync_period": 4,
    "max_staleness": None,
    "staleness_bound": None,
    "group_size": 2,
}


def _train_recipe(name: str, codec: Optional[str]) -> DistributedRunResult:
    """``repro train``'s call, with its default flags filled in."""
    strategy = get_strategy(name)
    stream = profile_for(codec) if codec else None
    num_nodes = WORKERS + strategy.extra_nodes
    return run_strategy(
        strategy,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=600, test_size=150, seed=0),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=25,
        cluster=ClusterConfig(
            num_nodes=num_nodes, profile=stream, **TRAIN_CLUSTER
        ),
        tracer=None,
        seed=0,
        options=TRAIN_OPTIONS,
    )


def _sanitize_recipe(name: str, codec: Optional[str]) -> DistributedRunResult:
    """The sanitizer's strategy-scenario call at its default fields."""
    strategy = get_strategy(name)
    stream = profile_for(codec) if codec else None
    num_nodes = WORKERS + strategy.extra_nodes
    return run_strategy(
        strategy,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=120, test_size=40, seed=0),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=10,
        cluster=ClusterConfig(
            num_nodes=num_nodes,
            profile=stream,
            tie_break=None,
        ),
        tracer=None,
        seed=0,
        options={},
    )


def _assert_same_run(got: DistributedRunResult, want: DistributedRunResult) -> None:
    assert got.final_weights.tobytes() == want.final_weights.tobytes()
    assert got.losses == want.losses
    assert got.virtual_time_s.hex() == want.virtual_time_s.hex()
    assert got.transfers == want.transfers


@pytest.mark.parametrize("codec", [None, "inceptionn"])
@pytest.mark.parametrize("strategy", available_strategies())
def test_scenario_is_the_train_recipe(strategy, codec):
    scenario = Scenario(
        strategy=strategy,
        workers=WORKERS,
        iterations=ITERATIONS,
        codec=codec,
        train_size=600,
        test_size=150,
        batch_size=25,
        lr=0.02,
        cluster=TRAIN_CLUSTER,
        options=TRAIN_OPTIONS,
    )
    _assert_same_run(scenario.run(), _train_recipe(strategy, codec))


@pytest.mark.parametrize("codec", [None, "inceptionn"])
@pytest.mark.parametrize("strategy", available_strategies())
def test_scenario_is_the_sanitize_recipe(strategy, codec):
    scenario = Scenario(
        strategy=strategy, workers=WORKERS, iterations=ITERATIONS, codec=codec
    )
    _assert_same_run(scenario.run(), _sanitize_recipe(strategy, codec))


def test_scenario_fields():
    # The sanitizer's ten fields, then the learning rate and the compute
    # profile that other callers set differently.
    assert list(Scenario.__dataclass_fields__) == [
        "strategy", "workers", "iterations", "seed", "codec", "train_size",
        "test_size", "batch_size", "cluster", "options", "lr", "compute",
    ]
