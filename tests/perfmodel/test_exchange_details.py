"""Exchange-simulation detail tests."""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import ZERO_COMPUTE, ComputeProfile
from repro.perfmodel import (
    compute_profile_for,
    simulate_ring_exchange,
    simulate_wa_exchange,
)
from repro.perfmodel.estimator import MODEL_RATIO_SAMPLE
from repro.dnn.models import PAPER_MODELS
from repro.transport.wire import measure_stream_ratio

MB = 2**20


def test_local_compute_included_when_asked():
    # The profile's forward/backward/copy time is spent; ZERO_COMPUTE spends none.
    profile = ComputeProfile(forward_s=0.1, backward_s=0.2, sum_bandwidth_bps=0.0)
    without = simulate_ring_exchange(4, 1 * MB, profile=ZERO_COMPUTE).total_s
    with_compute = simulate_ring_exchange(4, 1 * MB, profile=profile).total_s
    assert with_compute == pytest.approx(without + 0.3, rel=0.01)


def test_iterations_scale_totals():
    one = simulate_wa_exchange(4, 4 * MB, iterations=1).total_s
    three = simulate_wa_exchange(4, 4 * MB, iterations=3).total_s
    # Sublinear: a worker that received its weights starts uploading the
    # next iteration's gradient while the aggregator is still scattering
    # to the others (full-duplex overlap across iterations).
    assert 2.0 * one < three <= 3.0 * one + 1e-9


def test_gradient_sum_accounting():
    profile = ComputeProfile(sum_bandwidth_bps=1e9)
    result = simulate_wa_exchange(4, 10 * MB, profile=profile)
    # Aggregator sums 3 incoming 10 MB vectors at 1 GB/s.
    assert result.phases.gradient_sum == pytest.approx(3 * 10 * MB / 1e9, rel=0.01)


def test_update_accounting():
    profile = ComputeProfile(update_s=0.05)
    result = simulate_wa_exchange(4, 1 * MB, iterations=2, profile=profile)
    assert result.phases.update == pytest.approx(0.1)


def test_communicate_is_residual():
    profile = ComputeProfile(update_s=0.01, sum_bandwidth_bps=1e9)
    result = simulate_wa_exchange(4, 10 * MB, profile=profile)
    assert result.phases.communicate == pytest.approx(
        result.total_s - result.phases.gradient_sum - result.phases.update
    )


def test_communicate_excludes_local_compute():
    # Forward/backward/copy seconds are compute, not communication.
    result = simulate_wa_exchange(
        4,
        PAPER_MODELS["AlexNet"].nbytes,
        profile=compute_profile_for("AlexNet"),
    )
    others = sum(
        seconds
        for name, seconds in result.phases.as_dict().items()
        if name != "communicate"
    )
    assert result.phases.communicate + others == pytest.approx(result.total_s)
    assert (
        result.phases.communicate
        < result.total_s - result.phases.gradient_sum - result.phases.update
    )


def test_per_iteration_property():
    result = simulate_ring_exchange(4, 2 * MB, iterations=4)
    assert result.per_iteration_s == pytest.approx(result.total_s / 4)


def test_ring_compression_needs_engines_to_matter():
    plain = simulate_ring_exchange(4, 16 * MB).total_s
    # Without a compressing stream the ratio is ignored entirely.
    same = simulate_ring_exchange(4, 16 * MB, gradient_ratio=10.0).total_s
    assert same == pytest.approx(plain, rel=1e-6)


def test_measured_ratio_is_deterministic():
    spec = PAPER_MODELS["ResNet-50"]

    def measure(seed):
        sample = spec.synthetic_gradients(
            np.random.default_rng(seed), size=MODEL_RATIO_SAMPLE
        )
        return measure_stream_ratio(inceptionn_profile(), sample=sample)

    assert measure(1) == measure(1)
    assert measure(1) != measure(2)


@pytest.mark.parametrize("simulate", [simulate_wa_exchange, simulate_ring_exchange])
def test_bandwidth_scales_exchange(simulate):
    slow = simulate(4, 8 * MB, bandwidth_bps=1e9).total_s
    fast = simulate(4, 8 * MB, bandwidth_bps=10e9).total_s
    assert slow == pytest.approx(10 * fast, rel=0.15)


@pytest.mark.parametrize("stream", [inceptionn_profile(), None], ids=["inc", "raw"])
@pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
@pytest.mark.parametrize("fidelity", ["packet", "flow"])
@pytest.mark.parametrize("simulate", [simulate_wa_exchange, simulate_ring_exchange])
def test_non_finite_ratio_rejected(simulate, fidelity, ratio, stream):
    # An infinite ratio once timed a 0-byte wire (wire_ratio = inf); NaN
    # failed inside the rounding, or ran silently on a raw stream.
    with pytest.raises(ValueError, match=r"compression ratio.*(inf|nan)"):
        simulate(
            4, 4_000_000, stream=stream, gradient_ratio=ratio, fidelity=fidelity
        )
