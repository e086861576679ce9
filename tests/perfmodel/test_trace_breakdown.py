"""Table II breakdown: the phase ledger, its spans, and both fidelities agree."""

import pytest

from repro.distributed import ComputeProfile
from repro.dnn.models import PAPER_MODELS
from repro.obs import CAT_PHASE, Tracer
from repro.perfmodel import (
    compute_profile_for,
    simulate_ring_exchange,
    simulate_wa_exchange,
    simulated_breakdown,
)

MB = 2**20

PROFILE = ComputeProfile(
    forward_s=0.01,
    backward_s=0.05,
    gpu_copy_s=0.002,
    update_s=0.02,
    sum_bandwidth_bps=10.4e9,
)


@pytest.mark.parametrize("simulate", [simulate_wa_exchange, simulate_ring_exchange])
def test_tracer_does_not_change_timing(simulate):
    kwargs = dict(
        num_workers=4,
        nbytes=8 * MB,
        iterations=2,
        profile=PROFILE,
    )
    untraced = simulate(**kwargs)
    tracer = Tracer()
    traced = simulate(tracer=tracer, **kwargs)
    assert traced.total_s == untraced.total_s
    assert traced.phases.gradient_sum == untraced.phases.gradient_sum
    assert traced.phases.update == untraced.phases.update
    assert len(tracer) > 0


@pytest.mark.parametrize("simulate", [simulate_wa_exchange, simulate_ring_exchange])
def test_phase_spans_reproduce_inline_sums(simulate):
    kwargs = dict(
        num_workers=4,
        nbytes=8 * MB,
        iterations=3,
        profile=PROFILE,
    )
    tracer = Tracer()
    phases = simulate(tracer=tracer, **kwargs).phases
    # The spans are the ledger's own adds — the same floats in the same
    # order — so every attributed row equals its span sum exactly.
    attributed = phases.as_dict()
    del attributed["communicate"]
    assert tracer.phase_totals() == attributed
    for name in ("forward", "backward", "gpu_copy"):
        assert attributed[name] == pytest.approx(3 * getattr(PROFILE, name + "_s"))
    # Flow fidelity keeps the same ledger: the compute rows are equal,
    # and the sum too where both evaluators attribute it per hop.
    flow = simulate(fidelity="flow", **kwargs).phases
    rows = ["forward", "backward", "gpu_copy", "update"]
    if simulate is simulate_ring_exchange:
        rows.append("gradient_sum")
    for name in rows:
        assert getattr(flow, name) == getattr(phases, name), name


def test_breakdown_from_trace_matches_legacy_arithmetic():
    # simulated_breakdown is the packet exchange's closed ledger; the
    # hand arithmetic it must equal is per-iteration repeated adds
    # (never ``iterations * x``) and Communicate as the residual.
    model, iterations = "AlexNet", 2
    profile = compute_profile_for(model)
    breakdown = simulated_breakdown(model, iterations=iterations)
    exchange = simulate_wa_exchange(
        num_workers=4,
        nbytes=PAPER_MODELS[model].nbytes,
        iterations=iterations,
        profile=profile,
    )
    assert breakdown == exchange.phases
    assert breakdown.forward == profile.forward_s + profile.forward_s
    assert breakdown.backward == profile.backward_s + profile.backward_s
    assert breakdown.gpu_copy == profile.gpu_copy_s + profile.gpu_copy_s
    assert breakdown.communicate == exchange.total_s - sum(
        (
            breakdown.forward,
            breakdown.backward,
            breakdown.gpu_copy,
            breakdown.gradient_sum,
            breakdown.update,
        )
    )


def test_breakdown_accepts_external_tracer():
    tracer = Tracer()
    breakdown = simulated_breakdown("HDC", iterations=1, tracer=tracer)
    assert tracer.count(CAT_PHASE) > 0
    totals = tracer.phase_totals()
    assert totals.get("forward", 0.0) == breakdown.forward


def test_breakdown_builds_no_private_tracer(monkeypatch):
    def no_tracer(self, metrics=None):
        raise AssertionError("simulated_breakdown constructed a Tracer")

    monkeypatch.setattr(Tracer, "__init__", no_tracer)
    assert simulated_breakdown("HDC", iterations=1).total > 0
