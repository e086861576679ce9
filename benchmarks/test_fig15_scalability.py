"""Fig 15: gradient-exchange time vs cluster size (WA vs INC).

The WA exchange grows almost linearly with worker count (all traffic
and summation converge on the aggregator); the INCEPTIONN ring stays
nearly flat because the per-node share (p-1)/p saturates.  Normalized
to the four-node WA case, exactly as the paper plots it.  The exchange
spends each model's calibrated sums and update, not its forward,
backward or copy time.
"""

from dataclasses import replace

import pytest

from conftest import print_header, print_row, run_once
from repro.dnn import PAPER_MODELS
from repro.perfmodel import (
    CostParameters,
    compute_profile_for,
    ring_exchange_time,
    simulate_ring_exchange,
    simulate_wa_exchange,
    wa_exchange_time,
)

MODELS = ("AlexNet", "HDC", "ResNet-50", "VGG-16")
NODE_COUNTS = (4, 6, 8)


def exchange_profile(model):
    """The model's calibrated profile without its pre-exchange compute."""
    return replace(
        compute_profile_for(model), forward_s=0.0, backward_s=0.0, gpu_copy_s=0.0
    )


@pytest.fixture(scope="module")
def exchange_times():
    out = {}
    for model in MODELS:
        spec = PAPER_MODELS[model]
        profile = exchange_profile(model)
        out[model] = {
            (alg, p): (
                simulate_wa_exchange if alg == "WA" else simulate_ring_exchange
            )(p, spec.nbytes, profile=profile).total_s
            for alg in ("WA", "INC")
            for p in NODE_COUNTS
        }
    return out


def test_fig15_scalability(benchmark, exchange_times):
    results = run_once(benchmark, lambda: exchange_times)
    for model in MODELS:
        times = results[model]
        base = times[("WA", 4)]
        print_header(f"Fig 15 ({model}): gradient exchange time (norm. to 4-node WA)")
        print_row("nodes", *[str(p) for p in NODE_COUNTS])
        for alg in ("WA", "INC"):
            print_row(alg, *[f"{times[(alg, p)] / base:.2f}" for p in NODE_COUNTS])


@pytest.mark.parametrize("model", MODELS)
def test_fig15_wa_grows_nearly_linearly(exchange_times, model):
    times = exchange_times[model]
    growth = times[("WA", 8)] / times[("WA", 4)]
    assert growth > 1.5  # paper: "almost linearly"


@pytest.mark.parametrize("model", ["AlexNet", "ResNet-50", "VGG-16"])
def test_fig15_ring_stays_nearly_constant(exchange_times, model):
    times = exchange_times[model]
    growth = times[("INC", 8)] / times[("INC", 4)]
    assert growth < 1.3  # paper: "remains almost constant" for big models


@pytest.mark.parametrize("model", MODELS)
def test_fig15_ring_beats_wa_at_every_size(exchange_times, model):
    times = exchange_times[model]
    for p in NODE_COUNTS:
        assert times[("INC", p)] < times[("WA", p)]


def test_fig15_simulation_tracks_analytical_model(benchmark):
    """The event simulation and the paper's closed form agree on shape."""

    def run():
        spec = PAPER_MODELS["AlexNet"]
        profile = exchange_profile("AlexNet")
        params = CostParameters.from_rates(2e-6, 10e9, profile.sum_bandwidth_bps)
        rows = {}
        for p in NODE_COUNTS:
            rows[p] = (
                simulate_wa_exchange(p, spec.nbytes, profile=profile).total_s,
                wa_exchange_time(p, spec.nbytes, params),
                simulate_ring_exchange(p, spec.nbytes, profile=profile).total_s,
                ring_exchange_time(p, spec.nbytes, params),
            )
        return rows

    rows = run_once(benchmark, run)
    print_header("Fig 15 (support): simulation vs analytical model, AlexNet")
    print_row("nodes", "WA sim", "WA model", "INC sim", "INC model")
    for p, (wa_s, wa_m, inc_s, inc_m) in rows.items():
        print_row(str(p), f"{wa_s:.2f}", f"{wa_m:.2f}", f"{inc_s:.2f}", f"{inc_m:.2f}")
    # The simulation runs above the closed form (headers, FIFO queueing,
    # store-and-forward hops the formula idealizes away) but tracks its
    # shape; the WA gap grows with p because the formula assumes a
    # tree-structured broadcast the testbed star does not have.
    for p, (wa_s, wa_m, inc_s, inc_m) in rows.items():
        assert wa_s == pytest.approx(wa_m, rel=0.6)
        assert inc_s == pytest.approx(inc_m, rel=0.6)
