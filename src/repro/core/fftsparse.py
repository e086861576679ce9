"""SuperNeurons-style FFT sparsification codec (arXiv 1811.08596).

Gradients are transformed with a real FFT, only the largest-magnitude
``fraction`` of spectral coefficients survive, and the receiver inverse
transforms the pruned spectrum.  The codec is endpoint-only — pruned
spectra are *not* closed under addition of independently chosen support
sets — which makes it the registry's control case: a new codec family
with no codec algebra still composes with every transport path, it just
cannot ride the switch aggregation site.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from .registry import (
    CAP_ERROR_FEEDBACK,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    flat32,
    register_codec,
)

#: Default fraction of rfft coefficients kept.
DEFAULT_FRACTION = 0.25


class FftSparsificationCodec(GradientCodec):
    """Keep the top-``fraction`` rfft coefficients by magnitude.

    Wire format (modelled, sizes only): a 4-byte header, a kept-bin
    bitmap of ``ceil(m/8)`` bytes over the ``m`` rfft bins, and one
    complex64 (8 bytes) per kept coefficient.  Dropped coefficients are
    residual energy the error-feedback wrapper can re-inject, hence the
    ``error-feedback`` capability.
    """

    name = "fft_sparse"

    def capabilities(self) -> FrozenSet[str]:
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK})

    def default_params(self) -> Dict[str, object]:
        return {"fraction": DEFAULT_FRACTION}

    @staticmethod
    def _fraction(params: Dict[str, object]) -> float:
        fraction = float(params.get("fraction", DEFAULT_FRACTION))
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fft_sparse fraction must be in (0, 1]")
        return fraction

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        fraction = self._fraction(params)
        arr = flat32(values)
        if arr.size == 0:
            return CodecResult(payload_nbytes=4, values=arr.copy())
        spectrum = np.fft.rfft(arr)
        bins = spectrum.size
        keep = max(1, int(np.ceil(bins * fraction)))
        # Stable argsort on negated magnitudes: deterministic support
        # set, ties broken by bin index.
        order = np.argsort(-np.abs(spectrum), kind="stable")
        pruned = np.zeros(bins, dtype=np.complex128)
        kept = order[:keep]
        pruned[kept] = spectrum[kept]
        restored = np.fft.irfft(pruned, n=arr.size).astype(np.float32)
        return CodecResult(
            payload_nbytes=4 + -(-bins // 8) + 8 * keep,
            values=restored,
        )

    def error_bound(
        self, values: np.ndarray, **params: object
    ) -> Optional[float]:
        fraction = self._fraction(params)
        arr = flat32(values)
        if arr.size == 0:
            return 0.0
        spectrum = np.fft.rfft(arr)
        bins = spectrum.size
        keep = max(1, int(np.ceil(bins * fraction)))
        magnitudes = np.abs(spectrum)
        order = np.argsort(-magnitudes, kind="stable")
        dropped = magnitudes[order[keep:]]
        # Each dropped bin contributes at most 2|C_k|/n to any sample of
        # the inverse transform; the float32 cast adds a few ulps.
        max_abs = float(np.max(np.abs(arr)))
        return (
            2.0 / arr.size * float(np.sum(dropped))
            + max_abs * 2.0**-22
            + 2.0**-126
        )


register_codec(FftSparsificationCodec(), tos=0x4C)
