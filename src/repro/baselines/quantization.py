"""Gradient quantization baselines from the paper's related work.

Sec. IX cites three algorithmic gradient-reduction families that
INCEPTIONN positions itself against; all three are implemented here so
the comparison benches can run them on the same gradient traces:

* **1-bit SGD** (Seide et al., INTERSPEECH'14 [25]): sign quantization
  with error feedback — each value becomes one bit plus two shared
  scales; the quantization residual is carried into the next batch
  (:class:`repro.core.ErrorFeedbackCompressor` around :class:`OneBitCodec`).
* **TernGrad** (Wen et al., NIPS'17 [26]): stochastic ternarization to
  {-s, 0, +s} with a per-vector scale.
* **QSGD** (Alistarh et al., NIPS'17 [27]): stochastic uniform
  quantization to ``2^bits - 1`` levels of the normalized magnitude,
  unbiased by construction.

These are *algorithmic* compressors: software-side, stateful (1-bit
SGD), or randomized (TernGrad/QSGD) — properties that complicate a
stateless in-NIC implementation, which is the co-design argument.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.core.registry import (
    CAP_ERROR_FEEDBACK,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    flat32,
    register_codec,
)


def _result(values: np.ndarray, payload_bits: int) -> CodecResult:
    return CodecResult(payload_nbytes=-(-payload_bits // 8), values=values)


def sign_quantize(gradient: np.ndarray) -> CodecResult:
    """1-bit SGD's stateless half: each value becomes its sign's mean."""
    grad = flat32(gradient)
    positive = grad >= 0
    # Per-sign mean magnitudes reconstruct an unbiased-ish estimate.
    pos_scale = float(grad[positive].mean()) if positive.any() else 0.0
    neg_scale = float(grad[~positive].mean()) if (~positive).any() else 0.0
    values = np.where(positive, pos_scale, neg_scale).astype(np.float32)
    # 1 bit per value + two float32 scales.
    return _result(values, grad.size + 64)


def terngrad(
    gradient: np.ndarray, rng: np.random.Generator
) -> CodecResult:
    """Stochastic ternarization: g -> s * sign(g) * b, b ~ Bernoulli(|g|/s)."""
    grad = flat32(gradient)
    scale = float(np.max(np.abs(grad))) if grad.size else 0.0
    if scale == 0.0:
        return _result(np.zeros_like(grad), 2 * grad.size + 32)
    probability = np.abs(grad) / scale
    keep = rng.random(grad.size) < probability
    values = np.where(keep, np.sign(grad) * scale, 0.0).astype(np.float32)
    # 2 bits per value (ternary) + one float32 scale.
    return _result(values, 2 * grad.size + 32)


def qsgd(
    gradient: np.ndarray, rng: np.random.Generator, bits: int = 4
) -> CodecResult:
    """QSGD stochastic uniform quantization with ``2^bits - 1`` levels."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    grad = flat32(gradient)
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        return _result(np.zeros_like(grad), (bits + 1) * grad.size + 32)
    levels = (1 << bits) - 1
    scaled = np.abs(grad) / norm * levels
    floor = np.floor(scaled)
    # Stochastic rounding keeps the estimator unbiased.
    up = rng.random(grad.size) < (scaled - floor)
    quantized = floor + up
    values = (np.sign(grad) * quantized / levels * norm).astype(np.float32)
    # sign + level bits per value, plus the norm.
    return _result(values, (bits + 1) * grad.size + 32)


class OneBitCodec(GradientCodec):
    """1-bit SGD's quantiser; unregistered — it needs error feedback."""

    name = "onebit"

    def capabilities(self) -> FrozenSet[str]:
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK})

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        return sign_quantize(values)

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # A sign class's mean lies between zero and its largest member.
        arr = flat32(values)
        return float(np.max(np.abs(arr))) if arr.size else 0.0


class QuantizationCodec(GradientCodec):
    """QSGD stochastic uniform quantization (Alistarh et al.)."""

    name = "quantization"

    def default_params(self) -> Dict[str, object]:
        return {"bits": 4, "seed": 0}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        rng = np.random.default_rng(int(params.get("seed", 0)))
        return qsgd(values, rng, bits=int(params.get("bits", 4)))

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Stochastic rounding lands on one of two adjacent levels, so the
        # per-element error is below one level step = ||g|| / levels.
        bits = int(params.get("bits", 4))
        levels = (1 << bits) - 1
        norm = float(np.linalg.norm(flat32(values)))
        return norm / levels


register_codec(QuantizationCodec(), tos=0x34)
