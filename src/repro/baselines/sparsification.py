"""Deep Gradient Compression-style sparsification (related work [12]).

DGC (Lin et al., ICLR'18) skips communicating small gradients: each
worker accumulates gradients locally and only transmits coordinates
whose accumulated magnitude clears a top-k threshold, with momentum
correction.  It is *complementary* to INCEPTIONN (the paper says so);
this implementation lets the benches measure its ratio/accuracy point
on the same traces.  :func:`top_k` is the stateless selection; local
accumulation is :class:`repro.core.ErrorFeedbackCompressor` around it.
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


def top_k(gradient: np.ndarray, sparsity: float = 0.99) -> CodecResult:
    """Keep the largest-magnitude coordinates, zero everything else.

    ``sparsity`` is the fraction of coordinates *dropped* (0.99 means
    send the top 1%).  The wire carries an index (32b) and a value
    (32b) per transmitted coordinate.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity must be in [0, 1), got {sparsity}")
    grad = flat32(gradient)
    k = max(1, int(round(grad.size * (1.0 - sparsity))))
    if k >= grad.size:
        return CodecResult(payload_nbytes=grad.size * 8, values=grad.copy())
    magnitudes = np.abs(grad)
    threshold = np.partition(magnitudes, grad.size - k)[grad.size - k]
    mask = magnitudes >= threshold
    # Ties can push the count above k; that is fine (send them all).
    values = np.where(mask, grad, 0.0).astype(np.float32)
    return CodecResult(payload_nbytes=int(mask.sum()) * 8, values=values)


class SparsificationCodec(GradientCodec):
    """DGC-style top-k, stateless so streams never share a residual."""

    name = "sparsification"

    def capabilities(self) -> FrozenSet[str]:
        # DGC's defining trick is residual accumulation of the dropped
        # coordinates — an error-feedback codec by construction.
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK})

    def default_params(self) -> Dict[str, object]:
        return {"sparsity": 0.9}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        return top_k(values, float(params.get("sparsity", 0.9)))

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Every transmitted coordinate is exact; a dropped one errs by
        # its own magnitude, which the top-k threshold keeps at or below
        # the largest surviving magnitude — bounded by max |g|.
        arr = flat32(values)
        return float(np.max(np.abs(arr))) if arr.size else 0.0


register_codec(SparsificationCodec(), tos=0x38)
