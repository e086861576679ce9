"""Floating-point LSB truncation (the paper's ``xb-T`` baseline).

Fig 4 / Fig 14 compare INCEPTIONN's codec against simply dropping the
least-significant ``x`` bits of every IEEE-754 word: a fixed 32/(32-x)
compression ratio with uncontrolled, open-ended error — dropping 24 bits
eats into the exponent and wrecks complex models, which is precisely the
motivation for the error-bounded codec.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.core.registry import (
    CAP_FIXED_POINT,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    flat32,
    register_codec,
)

#: Truncation widths evaluated in the paper.
PAPER_TRUNCATIONS = (16, 22, 24)


def truncate_lsbs(values: np.ndarray, bits: int) -> np.ndarray:
    """Zero the low ``bits`` bits of each float32's bit pattern."""
    if not 0 <= bits < 32:
        raise ValueError(f"truncation bits must be in [0, 32), got {bits}")
    arr = np.ascontiguousarray(values, dtype=np.float32)
    if bits == 0:
        return arr.copy()
    raw = arr.view(np.uint32)
    mask = np.uint32(0xFFFFFFFF << bits & 0xFFFFFFFF)
    return (raw & mask).view(np.float32).copy()


def truncation_ratio(bits: int) -> float:
    """Fixed compression ratio of ``bits``-LSB truncation."""
    if not 0 <= bits < 32:
        raise ValueError(f"truncation bits must be in [0, 32), got {bits}")
    return 32.0 / (32 - bits)


class TruncationCodec(GradientCodec):
    """The paper's ``xb-T`` baseline: drop the low ``bits`` LSBs."""

    name = "truncation"

    def capabilities(self) -> FrozenSet[str]:
        # Masking is idempotent, and the payload depends on the size only.
        return frozenset({CAP_LOSSY, CAP_FIXED_POINT})

    def default_params(self) -> Dict[str, object]:
        return {"bits": 16}

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        bits = int(params.get("bits", 16))
        arr = flat32(values)
        payload_bits = arr.size * (32 - bits)
        return CodecResult(
            payload_nbytes=-(-payload_bits // 8),
            values=truncate_lsbs(arr, bits),
        )

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        # Zeroing the low ``bits`` bits of a float with magnitude |v|
        # perturbs it by less than 2^bits ulps = |v| * 2^(bits - 23).
        bits = int(params.get("bits", 16))
        arr = flat32(values)
        max_abs = float(np.max(np.abs(arr))) if arr.size else 0.0
        return max_abs * 2.0 ** (bits - 23)


register_codec(TruncationCodec(), tos=0x30)
