"""Error-feedback compressor tests (codec extension)."""

import numpy as np
import pytest

from repro.baselines import OneBitCodec
from repro.core import (
    CAP_ERROR_FEEDBACK,
    ErrorBound,
    ErrorFeedbackCompressor,
    available_codecs,
    get_codec,
    gradient_hook,
    roundtrip,
)

#: Every codec the one residual loop wraps (1-bit SGD's is unregistered).
WRAPPED = [OneBitCodec()] + [
    get_codec(name)
    for name in available_codecs()
    if CAP_ERROR_FEEDBACK in get_codec(name).capabilities()
]


def _grads(n=5000, seed=0, scale=0.02):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * scale).astype(np.float32)


def test_first_round_matches_plain_codec():
    bound = ErrorBound(8)
    ef = ErrorFeedbackCompressor(bound)
    grads = _grads()
    recon = ef.compress(grads).values
    np.testing.assert_array_equal(recon, roundtrip(grads, bound))


def test_residual_carries_forward():
    bound = ErrorBound(6)
    ef = ErrorFeedbackCompressor(bound)
    grads = _grads(seed=1)
    ef.compress(grads)
    assert np.linalg.norm(ef.residual) > 0
    # Second identical gradient: compressed input is grads + residual,
    # so the reconstruction differs from the stateless roundtrip.
    recon2 = ef.compress(grads).values
    plain = roundtrip(grads, bound)
    assert not np.array_equal(recon2, plain)


def test_no_mass_lost_over_rounds():
    bound = ErrorBound(6)  # aggressive: big per-round error
    ef = ErrorFeedbackCompressor(bound)
    rng = np.random.default_rng(2)
    total_true = np.zeros(2000, dtype=np.float64)
    total_sent = np.zeros(2000, dtype=np.float64)
    for _ in range(100):
        g = (rng.standard_normal(2000) * 0.003).astype(np.float32)
        total_true += g
        recon = ef.compress(g).values
        total_sent += recon
    # Without feedback, values below 2^-6 would vanish *every* round
    # (total drift ~100 * mean|g|); with feedback, drift stays at one
    # round's residual.
    drift = np.abs(total_true - total_sent).max()
    assert drift <= bound.bound * 1.01


def test_without_feedback_small_gradients_vanish():
    bound = ErrorBound(6)
    rng = np.random.default_rng(3)
    g = (rng.uniform(-0.007, 0.007, 2000)).astype(np.float32)
    # every |g| < 2^-6 -> stateless codec zeroes everything...
    assert np.all(roundtrip(g, bound) == 0.0)
    # ...but the feedback compressor eventually transmits the mass.
    ef = ErrorFeedbackCompressor(bound)
    sent = np.zeros(2000, dtype=np.float64)
    for _ in range(20):
        recon = ef.compress(g).values
        sent += recon
    assert np.abs(sent).sum() > 0


def test_reset():
    ef = ErrorFeedbackCompressor(ErrorBound(8))
    ef.compress(_grads())
    ef.reset()
    assert ef.residual is None


def test_feedback_hook_shape_preserved():
    hook = gradient_hook(ErrorFeedbackCompressor(ErrorBound(10)).compress)
    grads = _grads(600).reshape(20, 30)
    out = hook(0, grads)
    assert out.shape == (20, 30)


def test_feedback_improves_training_fidelity():
    """Cumulative applied update tracks the true gradient sum better
    with feedback than without, at an aggressive bound."""
    bound = ErrorBound(6)
    rng = np.random.default_rng(4)
    gs = [(rng.standard_normal(1000) * 0.004).astype(np.float32) for _ in range(50)]
    true_sum = np.sum(gs, axis=0)

    plain_sum = np.sum([roundtrip(g, bound) for g in gs], axis=0)
    ef = ErrorFeedbackCompressor(bound)
    ef_sum = np.sum([ef.compress(g).values for g in gs], axis=0)

    plain_err = np.abs(plain_sum - true_sum).mean()
    ef_err = np.abs(ef_sum - true_sum).mean()
    assert ef_err < plain_err


def test_shape_change_warns_and_resets_residual():
    bound = ErrorBound(6)
    ef = ErrorFeedbackCompressor(bound)
    ef.compress(_grads(n=5000, seed=2))
    assert np.linalg.norm(ef.residual) > 0
    shorter = _grads(n=1000, seed=3)
    with pytest.warns(RuntimeWarning, match="gradient length changed"):
        recon = ef.compress(shorter).values
    # The stale residual was dropped, not mixed in: the first call at
    # the new length behaves exactly like a fresh compressor.
    np.testing.assert_array_equal(recon, roundtrip(shorter, bound))
    # And the residual now tracks the *new* shape going forward.
    assert ef.residual is not None
    assert ef.residual.shape == shorter.shape


def test_same_shape_never_warns():
    import warnings

    ef = ErrorFeedbackCompressor(ErrorBound(6))
    grads = _grads(n=2000, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ef.compress(grads)
        ef.compress(grads)


@pytest.mark.parametrize("codec", WRAPPED, ids=lambda codec: codec.name)
def test_shape_change_warns_for_every_wrapped_codec(codec):
    """1-bit SGD and DGC used to forget their residual silently."""
    ef = ErrorFeedbackCompressor(codec)
    ef.compress(_grads(n=4096, seed=5))
    assert np.linalg.norm(ef.residual) > 0
    shorter = _grads(n=1024, seed=6)
    with pytest.warns(RuntimeWarning, match="gradient length changed from 4096 to 1024"):
        result = ef.compress(shorter)
    fresh = codec.compress(shorter)
    assert result.payload_nbytes == fresh.payload_nbytes
    np.testing.assert_array_equal(result.values, fresh.values)
    assert ef.residual.shape == shorter.shape
