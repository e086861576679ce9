"""Every strategy books what it spends, where and when it spends it.

Traced runs under the HDC compute profile with +/-30 % compute jitter.
The ledger's ``phase`` spans are what node 0 waited on, so they form one
timeline: no two overlap and none outlives the run.  The local-compute
rows are the jittered timeouts, and every strategy that sums or updates
has those rows.
"""

import numpy as np
import pytest

from repro.core import profile_for
from repro.distributed import available_strategies, get_strategy, run_strategy
from repro.distributed.node import JITTER_STREAM, spawn_key
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.obs import CAT_PHASE, Tracer
from repro.perfmodel.calibration import compute_profile_for
from repro.transport import ClusterConfig

PROFILE = compute_profile_for("HDC")
JITTER = 0.3
WORKERS = 4
ITERATIONS = 3
SEED = 0
#: A block's three spans end at ``ts + f*s + b*s + c*s``, its timeout at
#: ``ts + (f + b + c)*s``: the two may differ in the last bits.
ROUNDING_S = 1e-12


def _run(strategy, stream=None, **cluster):
    options = {"compute_jitter": JITTER}
    if strategy == "local_sgd":
        options["sync_period"] = 1
    service_nodes = get_strategy(strategy).extra_nodes
    tracer = Tracer()
    result = run_strategy(
        strategy,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=SEED),
        num_workers=WORKERS,
        iterations=ITERATIONS,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=WORKERS + service_nodes, profile=stream, **cluster
        ),
        profile=PROFILE,
        tracer=tracer,
        seed=SEED,
        options=options,
    )
    return result, tracer


def _assert_one_timeline(result, tracer):
    spans = sorted(tracer.events_in(CAT_PHASE), key=lambda e: e.ts)
    assert spans
    for before, after in zip(spans, spans[1:]):
        assert before.ts + before.dur <= after.ts + ROUNDING_S, (before, after)
    assert spans[-1].ts + spans[-1].dur <= result.virtual_time_s + ROUNDING_S


def _jittered_rows():
    """Node 0's forward/backward/copy timeouts, summed in iteration order."""
    rng = np.random.default_rng(spawn_key(SEED, 0, JITTER_STREAM))
    rows = {"forward": 0.0, "backward": 0.0, "gpu_copy": 0.0}
    for _ in range(ITERATIONS):
        scale = 1.0 + JITTER * (2 * rng.random() - 1)
        rows["forward"] += PROFILE.forward_s * scale
        rows["backward"] += PROFILE.backward_s * scale
        rows["gpu_copy"] += PROFILE.gpu_copy_s * scale
    return rows


@pytest.mark.parametrize("strategy", available_strategies())
def test_strategy_books_what_it_spends(strategy):
    result, tracer = _run(strategy)
    _assert_one_timeline(result, tracer)
    rows = result.phase_seconds
    jittered = _jittered_rows()
    assert {name: rows[name] for name in jittered} == jittered
    # Every built-in strategy sums gradients and updates weights somewhere
    # on node 0's critical path.
    assert rows["gradient_sum"] > 0.0
    assert rows["update"] > 0.0


def test_switch_site_aggregator_books_no_host_sum():
    # The sum runs in the switches' engines, inside the gather's time.
    result, tracer = _run(
        "wa",
        stream=profile_for("lossless_hc"),
        topology="fat-tree:k=4",
        agg_site="switch",
    )
    _assert_one_timeline(result, tracer)
    assert result.phases.gradient_sum == 0.0
    assert result.phases.update > 0.0
