"""Tracing through the distributed algorithms: parity + coverage.

The acceptance bar for the observability layer is twofold: the phase
ledger feeds the tracer its spans, so a traced run's breakdown and span
sums equal the untraced run's exactly, and attaching the tracer must
not change any simulated time.
"""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import (
    ComputeProfile,
    GroupLayout,
    available_strategies,
    run_strategy,
)
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.obs import CAT_ASYNC, CAT_HIER, CAT_MESSAGE, CAT_RING, Tracer

PROFILE = ComputeProfile(
    forward_s=1e-4,
    backward_s=3e-4,
    gpu_copy_s=5e-5,
    update_s=2e-4,
    sum_bandwidth_bps=10.4e9,
)


def _run(algorithm, tracer=None, iterations=6, compression=False, workers=4):
    stream = inceptionn_profile() if compression else None
    return run_strategy(
        algorithm,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=workers,
        iterations=iterations,
        batch_size=16,
        profile=PROFILE,
        stream=stream,
        tracer=tracer,
        seed=0,
    )


@pytest.mark.parametrize("algorithm", available_strategies())
def test_traced_run_matches_untraced_breakdown(algorithm):
    untraced = _run(algorithm)
    tracer = Tracer()
    traced = _run(algorithm, tracer=tracer)
    assert traced.virtual_time_s == untraced.virtual_time_s
    np.testing.assert_allclose(traced.losses, untraced.losses)
    assert traced.phase_seconds == untraced.phase_seconds
    # The spans are the ledger's own adds: same floats, same order.
    attributed = traced.phases.as_dict()
    del attributed["communicate"]
    spans = tracer.phase_totals()
    assert {name: spans.get(name, 0.0) for name in attributed} == attributed


def test_ring_records_p1_and_p2_steps():
    tracer = Tracer()
    iterations, workers = 3, 4
    _run("ring", tracer=tracer, iterations=iterations, workers=workers)
    steps = list(tracer.events_in(CAT_RING, "ring.step"))
    # Algorithm 1: 2(N-1) steps per worker per iteration.
    assert len(steps) == iterations * workers * 2 * (workers - 1)
    phases = {e.args["ring_phase"] for e in steps}
    assert phases == {"P1", "P2"}
    p1 = [e for e in steps if e.args["ring_phase"] == "P1"]
    p2 = [e for e in steps if e.args["ring_phase"] == "P2"]
    assert len(p1) == len(p2)
    for event in steps:
        assert event.dur >= 0.0
        assert 0 <= event.args["send_block"] < workers


def test_compressed_run_traces_compressed_messages():
    tracer = Tracer()
    _run("ring", tracer=tracer, iterations=2, compression=True)
    sends = list(tracer.events_in(CAT_MESSAGE, "msg.send"))
    assert sends and all(e.args["compressed"] for e in sends)
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["wire_bytes{tos=0x28}"] > 0


def test_hierarchical_run_records_levels():
    tracer = Tracer()
    result = run_strategy(
        "hierarchy",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=4,
        iterations=2,
        batch_size=16,
        profile=PROFILE,
        tracer=tracer,
        seed=0,
        options={"layout": GroupLayout.even(4, 2)},
    )
    assert result.virtual_time_s > 0
    assert tracer.count(CAT_HIER, "hier.group_ring") > 0
    assert tracer.count(CAT_HIER, "hier.leader_ring") > 0
    assert tracer.count(CAT_HIER, "hier.broadcast") > 0


def test_async_run_records_rounds_and_staleness():
    tracer = Tracer()
    workers, iterations = 3, 4
    result = run_strategy(
        "async_ps",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=workers,
        iterations=iterations,
        batch_size=16,
        profile=PROFILE,
        tracer=tracer,
        seed=0,
        options={"compute_jitter": 0.3},
    )
    staleness = result.extras["staleness"]
    assert tracer.count(CAT_ASYNC, "async.round") == workers * iterations
    applies = list(tracer.events_in(CAT_ASYNC, "async.apply"))
    assert len(applies) == workers * iterations
    assert [e.args["staleness"] for e in applies] == staleness
    hist = tracer.metrics.snapshot()["histograms"]["staleness"]
    assert hist["count"] == len(staleness)
