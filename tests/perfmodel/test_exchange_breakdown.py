"""Paper-scale exchange simulation, Table II breakdown, estimator tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.perfmodel import (
    CONFIGURATIONS,
    CostParameters,
    TABLE2,
    TABLE2_ITERATIONS,
    compute_profile_for,
    equal_accuracy_speedup,
    estimate_iteration_time,
    fig12_estimates,
    paper_breakdown,
    ring_exchange_time,
    simulate_ring_exchange,
    simulate_wa_exchange,
    simulated_breakdown,
    wa_exchange_time,
)
from repro.dnn.models import PAPER_MODELS
from repro.perfmodel.estimator import MODEL_RATIO_SAMPLE
from repro.transport.wire import measure_stream_ratio

MB = 2**20


def _exchange_profile(model):
    """The model's calibrated profile without its pre-exchange compute."""
    return replace(
        compute_profile_for(model), forward_s=0.0, backward_s=0.0, gpu_copy_s=0.0
    )


class TestCalibration:
    def test_profiles_match_table2_rows(self):
        profile = compute_profile_for("AlexNet")
        assert profile.forward_s == pytest.approx(0.0313)
        assert profile.backward_s == pytest.approx(0.1622)
        assert profile.update_s == pytest.approx(0.1367)

    def test_sum_bandwidth_is_memory_scale(self):
        profile = compute_profile_for("AlexNet")
        # Summing three 233 MB vectors in 89.4 ms/iteration -> ~8 GB/s.
        assert 2e9 < profile.sum_bandwidth_bps < 5e10

    def test_hdc_zero_copy(self):
        assert compute_profile_for("HDC").gpu_copy_s == 0.0

    def test_table2_totals(self):
        assert TABLE2["AlexNet"].total == pytest.approx(196.35)
        assert TABLE2["VGG-16"].communication_fraction == pytest.approx(
            0.709, abs=0.01
        )


class TestExchangeSimulation:
    def test_wa_matches_analytical_shape(self):
        n = 98 * MB
        profile = _exchange_profile("ResNet-50")
        sim = simulate_wa_exchange(4, n, profile=profile).total_s
        params = CostParameters.from_rates(2e-6, 10e9, profile.sum_bandwidth_bps)
        analytic = wa_exchange_time(4, n, params)
        assert sim == pytest.approx(analytic, rel=0.4)

    def test_ring_matches_analytical_shape(self):
        n = 98 * MB
        profile = _exchange_profile("ResNet-50")
        sim = simulate_ring_exchange(4, n, profile=profile).total_s
        params = CostParameters.from_rates(2e-6, 10e9, profile.sum_bandwidth_bps)
        analytic = ring_exchange_time(4, n, params)
        assert sim == pytest.approx(analytic, rel=0.4)

    def test_ring_beats_wa(self):
        n = 233 * MB
        profile = _exchange_profile("AlexNet")
        wa = simulate_wa_exchange(4, n, profile=profile).total_s
        ring = simulate_ring_exchange(4, n, profile=profile).total_s
        assert ring < wa

    def test_wa_scales_linearly_ring_saturates(self):
        n = 233 * MB
        wa4 = simulate_wa_exchange(4, n).total_s
        wa8 = simulate_wa_exchange(8, n).total_s
        ring4 = simulate_ring_exchange(4, n).total_s
        ring8 = simulate_ring_exchange(8, n).total_s
        assert wa8 / wa4 > 1.6
        assert ring8 / ring4 < 1.25

    def test_compression_helps_ring_more_than_wa(self):
        n = 98 * MB
        ratio = 10.0
        stream = inceptionn_profile()
        wa_plain = simulate_wa_exchange(4, n).total_s
        wa_comp = simulate_wa_exchange(
            4, n, stream=stream, gradient_ratio=ratio
        ).total_s
        ring_plain = simulate_ring_exchange(4, n).total_s
        ring_comp = simulate_ring_exchange(
            4, n, stream=stream, gradient_ratio=ratio
        ).total_s
        wa_gain = wa_plain / wa_comp
        ring_gain = ring_plain / ring_comp
        assert ring_gain > wa_gain  # both legs compress in the ring

    def test_minimum_workers(self):
        with pytest.raises(ValueError):
            simulate_wa_exchange(1, 100)
        with pytest.raises(ValueError):
            simulate_ring_exchange(1, 100)

    def test_per_iteration_scaling(self):
        result = simulate_ring_exchange(4, 10 * MB, iterations=4)
        single = simulate_ring_exchange(4, 10 * MB, iterations=1)
        assert result.per_iteration_s == pytest.approx(
            single.total_s, rel=0.25
        )


class TestBreakdown:
    @pytest.mark.parametrize("model", ["HDC", "ResNet-50", "AlexNet"])
    def test_communication_dominates(self, model):
        bd = simulated_breakdown(model, iterations=5)
        assert bd.communicate / bd.total > 0.5

    def test_matches_paper_within_factor_two(self):
        bd = simulated_breakdown("AlexNet", iterations=5)
        paper = paper_breakdown("AlexNet")
        sim_frac = bd.communicate / bd.total
        assert sim_frac == pytest.approx(
            paper.communicate / paper.total, abs=0.15
        )

    def test_compute_rows_are_calibrated_exactly(self):
        bd = simulated_breakdown("ResNet-50", iterations=5)
        paper = paper_breakdown("ResNet-50")
        scale = 5 / TABLE2_ITERATIONS
        assert bd.forward == pytest.approx(paper.forward * scale)
        assert bd.backward == pytest.approx(paper.backward * scale)


class TestEstimator:
    def test_fig12_configuration_ordering(self):
        est = fig12_estimates("AlexNet")
        assert set(est) == set(CONFIGURATIONS)
        # WA slowest, INC+C fastest; compression helps both algorithms.
        assert est["WA"].iteration_s > est["WA+C"].iteration_s
        assert est["INC"].iteration_s > est["INC+C"].iteration_s
        assert est["WA"].iteration_s > est["INC"].iteration_s

    def test_fig12_headline_speedup_band(self):
        est = fig12_estimates("AlexNet")
        speedup = est["WA"].iteration_s / est["INC+C"].iteration_s
        # Paper: 2.2x (VGG-16) to 3.1x (AlexNet).
        assert 2.0 < speedup < 4.5

    def test_fig13_speedups_in_paper_band(self):
        sp = equal_accuracy_speedup("AlexNet")
        assert 2.2 < sp.speedup < 4.0
        sp_vgg = equal_accuracy_speedup("VGG-16")
        assert 1.5 < sp_vgg.speedup < 3.5

    def test_extra_epochs_reduce_speedup(self):
        base = equal_accuracy_speedup("HDC", epochs=(17, 17)).speedup
        extra = equal_accuracy_speedup("HDC", epochs=(17, 19)).speedup
        assert extra < base

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            estimate_iteration_time("AlexNet", "WA+turbo")

    def test_measured_ratio_band(self):
        for model in ("AlexNet", "VGG-16"):
            spec = PAPER_MODELS[model]
            sample = spec.synthetic_gradients(
                np.random.default_rng(0), size=MODEL_RATIO_SAMPLE
            )
            ratio = measure_stream_ratio(
                inceptionn_profile(ErrorBound(10)), sample=sample
            )
            assert 2.0 < ratio <= 16.0
