"""The big-int ``lossless_hc`` accumulator, kept verbatim as the test-side oracle.

This is ``repro.core.homomorphic`` as it stood before the limb-window
accumulator: every finite float32 becomes one unbounded Python int at
scale ``2**-149`` through ``float.as_integer_ratio()``, a fold is a
column-wise ``sum`` of those ints and the render is one ``int / int``
true division per element (correctly rounded to float64) followed by a
cast to float32.  It is slow and obviously exact, which is what makes it
a reference: ``test_homomorphic`` and ``test_properties`` run the same
parts through both and require the same ``uint32`` view.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.registry import CodecResult, flat32

SCALE_BITS = 149
_SCALE = 1 << SCALE_BITS


def scaled_ints(values: np.ndarray) -> Tuple[int, ...]:
    """Exact integer image of float32 ``values`` at scale ``2**-149``.

    Python integers are unbounded, so sums of these images are exact and
    associative — the algebraic property homomorphic aggregation needs.
    """
    out: List[int] = []
    for v in flat32(values).tolist():
        if not math.isfinite(v):
            raise ValueError(
                "homomorphic payloads require finite gradients; got "
                f"{v!r}"
            )
        num, den = v.as_integer_ratio()
        if _SCALE % den:
            raise ValueError(f"{v!r} is not on the float32 lattice")
        out.append(num * (_SCALE // den))
    return tuple(out)


def floats_from_scaled(totals: Sequence[int]) -> np.ndarray:
    """Render exact fixed-point totals as float32.

    ``int / int`` true division is correctly rounded to float64, so the
    rendering is a pure function of the exact total — any two reduction
    orders that reach the same total render identically.
    """
    return np.array([t / _SCALE for t in totals], dtype=np.float32)


def _payload_nbytes(values: np.ndarray) -> int:
    n = values.size
    sparse = 4 + -(-n // 8) + 4 * int(np.count_nonzero(values))
    return min(sparse, 4 + 4 * n)


def compress(values: np.ndarray) -> CodecResult:
    arr = flat32(values)
    return CodecResult(
        payload_nbytes=_payload_nbytes(arr),
        values=arr.copy(),
        state=scaled_ints(arr),
    )


def aggregate_compressed(parts: Sequence[CodecResult]) -> CodecResult:
    if not parts:
        raise ValueError("aggregation needs at least one part")
    size = parts[0].values.size
    columns: List[Tuple[int, ...]] = []
    for part in parts:
        if part.values.size != size:
            raise ValueError(
                "aggregation parts must agree on element count: "
                f"{part.values.size} != {size}"
            )
        state = part.state
        if isinstance(state, tuple):
            columns.append(state)
        else:
            # A part without its exact accumulator (built outside
            # this codec) re-enters the lattice from its values —
            # exact, because the rendering is lossless.
            columns.append(scaled_ints(part.values))
    totals = tuple(sum(col) for col in zip(*columns)) if size else ()
    rendered = floats_from_scaled(totals)
    return CodecResult(
        payload_nbytes=_payload_nbytes(rendered),
        values=rendered,
        fan_in=sum(part.fan_in for part in parts),
        state=totals,
    )
