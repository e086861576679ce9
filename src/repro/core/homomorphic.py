"""Homomorphic gradient codecs: aggregation in the compressed domain.

INCEPTIONN's endpoint loop decompresses every arriving stream, sums in
float32 and recompresses the total.  The follow-on literature removes
that round-trip with codecs whose payloads form a *monoid under
addition* — a switch (or the aggregating endpoint) can fold streams
together without ever touching the float domain:

* :class:`LosslessHomomorphicCodec` — lossless homomorphic compression
  (arXiv 2402.07529).  Every finite float32 is an integer multiple of
  ``2**-149``, so payloads carry an exact fixed-point image of the
  values and addition of payloads is exact *and associative*: a fat-tree
  reduction and a flat endpoint sum produce bit-identical totals no
  matter the tree shape.
* :class:`ThcCodec` — THC-style tensor homomorphic compression (arXiv
  2302.08545).  All streams share one symmetric quantization lattice;
  payloads carry lattice indices, aggregation sums indices in int64
  (exact), and the aggregated payload widens by ``ceil(log2(fan_in))``
  bits per value.

Both codecs keep their exact accumulator in ``CodecResult.state`` so
partial sums forwarded hop-by-hop through a reduction tree never lose
precision to the float32 rendering in ``CodecResult.values``.

The ``lossless_hc`` accumulator is a :class:`LimbWindow`: radix-``2**32``
limbs held in int64, limb-major, over only the limbs some element
occupies.  Element ``j`` is worth ``sum_k limbs[k, j] * 2**(32 * (base +
k) - 149)``.  A fresh encode puts less than ``2**32`` in each limb, a
fold adds limbs without propagating carries, so up to ``2**31 - 1``
encodes fit one int64 limb (the *lazy-carry bound*, checked on every
fold); carries are resolved once, in the render.  The render rounds the
exact total to nearest-even at float64 precision and only then casts to
float32 — two roundings, the arithmetic of ``int / 2**149`` on unbounded
integers, which ``tests/core/reference_homomorphic.py`` keeps as the
oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .registry import (
    CAP_FIXED_POINT,
    CAP_HOMOMORPHIC,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    flat32,
    register_codec,
)

#: Scale exponent of the exact fixed-point image: the smallest positive
#: float32 (subnormal) is exactly ``2**-149``, so every finite float32
#: equals ``k * 2**-149`` for some integer ``k``.
SCALE_BITS = 149

_LIMB_BITS = np.int64(32)
_LIMB_MASK = np.int64(0xFFFFFFFF)
_MAGNITUDE = np.uint32(0x7FFFFFFF)
_FRACTION = np.uint32(0x007FFFFF)
_INFINITY = 0x7F800000
#: Lazy-carry bound: each limb of a fresh encode is below ``2**32`` in
#: magnitude, so this many folded encodes stay inside int64.
_MAX_FAN_IN = (1 << 31) - 1
#: Columns encoded or rendered per pass, so that every temporary stays
#: cache-sized and is recycled by the allocator instead of being mapped
#: (and page-faulted in) afresh for each whole-gradient expression.
_BLOCK = 1 << 14


def _blocks(size: int) -> Iterator[slice]:
    return (
        slice(start, min(start + _BLOCK, size)) for start in range(0, size, _BLOCK)
    )


def _limb_of(magnitude: int) -> int:
    """Limb holding the lowest bit of a float32 with these magnitude bits."""
    return (max(magnitude >> 23, 1) - 1) >> 5


@dataclass(frozen=True, eq=False)
class LimbWindow:
    """Exact fixed-point image of ``size`` float32 sums.

    ``limbs`` is a read-only ``(width, size)`` int64 array; element ``j``
    equals ``sum_k limbs[k, j] * 2**(32 * (base + k) - SCALE_BITS)``.
    Limbs are signed and carry-lazy (see the module docstring); an
    all-zero image has ``width == 0``.
    """

    base: int
    limbs: np.ndarray

    def __post_init__(self) -> None:
        if self.limbs.ndim != 2 or self.limbs.dtype != np.int64:
            raise TypeError("LimbWindow limbs must be a (width, size) int64 array")
        self.limbs.setflags(write=False)

    @property
    def width(self) -> int:
        return self.limbs.shape[0]

    @property
    def size(self) -> int:
        return self.limbs.shape[1]


def encode_limbs(values: np.ndarray) -> LimbWindow:
    """Exact limb image of float32 ``values`` at scale ``2**-149``.

    A finite float32 is ``m * 2**(e - 149)`` with a signed 24-bit ``m``
    and ``e = max(biased_exponent, 1) - 1``, both read off the uint32
    view; ``m << (e % 32)`` is below ``2**55`` and lands in limb ``e //
    32`` (low 32 bits) and the one above (arithmetic-shifted rest).  The
    window spans exactly the limbs the non-zero values touch.
    """
    arr = flat32(values)
    bits = arr.view(np.uint32)
    size = arr.size
    highest, lowest = 0, int(_MAGNITUDE)
    for block in _blocks(size):
        magnitude = bits[block] & _MAGNITUDE
        highest = max(highest, int(magnitude.max()))
        # Zero wraps to 2**32 - 1, so the minimum is over non-zeros.
        magnitude -= np.uint32(1)
        lowest = min(lowest, int(magnitude.min()) + 1)
    if highest >= _INFINITY:
        bad = arr[np.flatnonzero((bits & _MAGNITUDE) >= np.uint32(_INFINITY))[0]]
        raise ValueError(
            "homomorphic payloads require finite gradients; got "
            f"{float(bad)!r}"
        )
    if highest == 0:
        return LimbWindow(0, np.zeros((0, size), dtype=np.int64))
    base = _limb_of(lowest)
    limbs = np.zeros((_limb_of(highest) + 2 - base, size), dtype=np.int64)
    flat = limbs.reshape(-1)
    for block in _blocks(size):
        word = bits[block]
        magnitude = word & _MAGNITUDE
        biased = magnitude >> np.uint32(23)
        hidden = np.minimum(biased, np.uint32(1))  # 0 for zeros and denormals
        exponent = (biased - hidden).astype(np.int64)
        mantissa = (magnitude & _FRACTION) | (hidden << np.uint32(23))
        # The arithmetic shift smears the sign bit: -1 | 1 or 0 | 1.
        sign = (word.view(np.int32) >> np.int32(31)) | np.int32(1)
        shifted = (mantissa.view(np.int32) * sign).astype(np.int64)
        shifted <<= exponent & np.int64(31)
        # Zeros sit at exponent 0, possibly below the window; both their
        # limbs are zero, so any in-window row will do.
        index = np.maximum(exponent >> np.int64(5), np.int64(base))
        index -= np.int64(base)
        index *= np.int64(size)
        index += np.arange(block.start, block.stop, dtype=np.int64)
        flat[index] = shifted & _LIMB_MASK
        index += np.int64(size)
        shifted >>= _LIMB_BITS
        flat[index] = shifted
    return LimbWindow(base, limbs)


def _magnitude_digits(limbs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Resolve lazy carries: ``(sign, digits)`` of the column totals.

    ``sign`` is ``+1`` or ``-1`` per column.  ``digits[2:]`` is the
    radix-``2**32`` expansion of each total's magnitude, every entry in
    ``[0, 2**32)`` and the top row holding what the carries pushed out of
    the window; ``digits[:2]`` are zero, so that every digit has two
    neighbours below it.
    """
    width, size = limbs.shape
    carry = np.zeros(size, dtype=np.int64)
    for k in range(width):
        carry += limbs[k]
        carry >>= _LIMB_BITS
    # The digits under the final carry are non-negative, so it alone
    # decides the sign of the total.
    sign = (carry >> np.int64(63)) | np.int64(1)
    digits = np.zeros((width + 3, size), dtype=np.int64)
    carry = digits[-1]
    for k in range(width):
        digit = digits[k + 2]
        np.multiply(limbs[k], sign, out=digit)
        digit += carry
        np.right_shift(digit, _LIMB_BITS, out=carry)
        digit &= _LIMB_MASK
    return sign, digits.view(np.uint64)


def _render_block(limbs: np.ndarray, base: int) -> np.ndarray:
    """Float64 rendering of one block of columns, correctly rounded."""
    sign, digits = _magnitude_digits(limbs)
    size = sign.size
    occupied = digits != 0
    # Find each column's top non-zero digit and the two digits below it
    # (``lead``, lowest first); everything further down only matters as
    # "is any of it non-zero" (``sticky``).
    lead = np.zeros((3, size), dtype=np.uint64)
    top = np.zeros(size, dtype=np.int32)
    sticky = np.zeros(size, dtype=np.bool_)
    below = np.zeros(size, dtype=np.bool_)
    for k in range(digits.shape[0] - 2):
        hit = occupied[k + 2]
        np.copyto(lead, digits[k : k + 3], where=hit)
        np.copyto(sticky, below, where=hit)
        np.putmask(top, hit, k)
        below |= occupied[k]
    d2, d1, d0 = lead

    # Left-justify d0:d1:d2 to 64 bits.  d0 < 2**32 converts to float64
    # exactly, so frexp reads off its bit length (0 for an empty column).
    length = np.frexp(d0.astype(np.float64))[1]  # repro-lint: disable=R1 -- exact integer, read for its exponent
    slack = np.int32(32) - np.maximum(length, np.int32(1))
    shift = slack.astype(np.uint64)
    word = (((d0 << np.uint64(32)) | d1) << shift) | (d2 >> (np.uint64(32) - shift))
    sticky |= (d2 << (np.uint64(32) + shift)) != 0
    # Round to nearest-even at 53 bits, in integers: up when the 11 bits
    # dropped (sticky folded into the lowest) exceed half, or equal half
    # with an odd kept part.
    kept = word >> np.uint64(11)
    rest = (word & np.uint64(0x7FF)) | sticky
    kept += (rest + (kept & np.uint64(1))) > np.uint64(0x400)
    # kept <= 2**53 converts exactly and is worth 2**(43 - shift) units
    # of d2, the digit two under ``top``; an empty column has kept == 0
    # and renders +0.0 whatever its sign.
    mantissa = kept.view(np.int64)
    mantissa *= sign
    exponent = np.int32(32) * (top + np.int32(base)) - slack
    exponent -= np.int32(21 + SCALE_BITS)
    return np.ldexp(mantissa.astype(np.float64), exponent)  # repro-lint: disable=R1 -- the float64 step of the render contract


def render_limbs(image: LimbWindow) -> np.ndarray:
    """Render exact fixed-point totals as float32.

    Each total is rounded to nearest-even at float64 precision in
    integer arithmetic and then cast to float32 — the two roundings of
    ``int / 2**149`` followed by ``astype(float32)``.  The rendering is
    a pure function of the exact total, so any two reduction orders that
    reach the same total render identically; a zero total renders
    ``+0.0`` and a total beyond float32 range renders ``inf``.
    """
    out = np.empty(image.size, dtype=np.float32)
    for block in _blocks(image.size):
        out[block] = _render_block(image.limbs[:, block], image.base)
    return out


class LosslessHomomorphicCodec(GradientCodec):
    """Lossless homomorphic compression (arXiv 2402.07529).

    Wire format (modelled, sizes only): a 4-byte header, a zero bitmap
    of ``ceil(n/8)`` bytes and 4 bytes per nonzero value, with a dense
    escape capping the payload at ``4 + 4n`` bytes.  The reconstruction
    is bit-exact, and :meth:`aggregate_compressed` adds the
    :class:`LimbWindow` images carried in ``CodecResult.state`` limb by
    limb, carry-lazy, then renders the total once.
    """

    name = "lossless_hc"
    lossless = True

    def capabilities(self) -> FrozenSet[str]:
        return frozenset({CAP_HOMOMORPHIC, CAP_FIXED_POINT})

    @staticmethod
    def _payload_nbytes(values: np.ndarray) -> int:
        n = values.size
        sparse = 4 + -(-n // 8) + 4 * int(np.count_nonzero(values))
        return min(sparse, 4 + 4 * n)

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        arr = flat32(values)
        return CodecResult(
            payload_nbytes=self._payload_nbytes(arr),
            values=arr.copy(),
            state=encode_limbs(arr),
        )

    def aggregate_compressed(
        self, parts: Sequence[CodecResult], **params: object
    ) -> CodecResult:
        if not parts:
            raise ValueError("aggregation needs at least one part")
        size = parts[0].values.size
        images: List[LimbWindow] = []
        for part in parts:
            if part.values.size != size:
                raise ValueError(
                    "aggregation parts must agree on element count: "
                    f"{part.values.size} != {size}"
                )
            state = part.state
            if not isinstance(state, LimbWindow):
                # A part without its exact accumulator (built outside
                # this codec) re-enters the lattice from its values —
                # exact, because the rendering is lossless.
                state = encode_limbs(part.values)
            elif state.size != size:
                raise ValueError(
                    "lossless_hc state must hold one image per value: "
                    f"{state.size} images for {size} values"
                )
            images.append(state)
        fan_in = sum(part.fan_in for part in parts)
        if fan_in > _MAX_FAN_IN:
            raise ValueError(
                f"lossless_hc folds at most {_MAX_FAN_IN} streams into one "
                f"accumulator (int64 limbs, lazy carries); got {fan_in}"
            )
        # Align every window to their union and add limb by limb; no
        # carry moves, so the fold is exact whatever the grouping.
        occupied = [image for image in images if image.width]
        base = min((image.base for image in occupied), default=0)
        top = max((image.base + image.width for image in occupied), default=0)
        limbs = np.zeros((top - base, size), dtype=np.int64)
        for image in occupied:
            low = image.base - base
            limbs[low : low + image.width] += image.limbs
        total = LimbWindow(base, limbs)
        rendered = render_limbs(total)
        return CodecResult(
            payload_nbytes=self._payload_nbytes(rendered),
            values=rendered,
            fan_in=fan_in,
            state=total,
        )

    def aggregate_payload_nbytes(
        self,
        raw_nbytes: int,
        payload_sizes: Sequence[int],
        fan_in: int,
        **params: object,
    ) -> int:
        """Size-domain image of aggregation for size-only streams.

        Without values the zero bitmap cannot help, so the model takes
        the dense escape: header plus one float32 per element.
        """
        if not payload_sizes:
            raise ValueError("aggregation needs at least one part")
        return 4 + 4 * -(-raw_nbytes // 4)


class ThcCodec(GradientCodec):
    """THC-style tensor homomorphic compression (arXiv 2302.08545).

    Every stream quantizes onto one shared symmetric lattice of
    ``2**bits`` levels spanning ``[-limit, +limit]``; payloads carry
    lattice indices.  Aggregation sums indices exactly in int64 and
    widens the per-value index field by ``ceil(log2(fan_in))`` bits, so
    switch-side and endpoint-side reductions of the same parts are
    bit-identical by construction.
    """

    name = "thc"

    #: Default clip limit: gradients on the paper's shell model sit well
    #: inside (-2**-5, 2**-5).
    DEFAULT_BITS = 8
    DEFAULT_LIMIT = 2.0**-5

    def capabilities(self) -> FrozenSet[str]:
        return frozenset({CAP_HOMOMORPHIC, CAP_LOSSY})

    def default_params(self) -> Dict[str, object]:
        return {"bits": self.DEFAULT_BITS, "limit": self.DEFAULT_LIMIT}

    @staticmethod
    def _lattice(params: Mapping[str, object]) -> Tuple[int, float, float]:
        bits = params.get("bits", ThcCodec.DEFAULT_BITS)
        limit = params.get("limit", ThcCodec.DEFAULT_LIMIT)
        # bool is a Real and int() would floor 8.9: neither names a width.
        if (
            isinstance(bits, bool)
            or not isinstance(bits, numbers.Real)
            or not float(bits).is_integer()
            or not 1 <= float(bits) <= 16
        ):
            raise ValueError(f"thc bits must be an integer in [1, 16], got {bits!r}")
        if not isinstance(limit, numbers.Real) or not 0.0 < float(limit) < math.inf:
            raise ValueError(
                f"thc limit must be a finite positive number, got {limit!r}"
            )
        bits, limit = int(float(bits)), float(limit)
        step = 2.0 * limit / ((1 << bits) - 1)
        return bits, limit, step

    @staticmethod
    def _payload_nbytes(n: int, index_bits: int) -> int:
        return 8 + -(-(n * index_bits) // 8)

    @staticmethod
    def _render(indices: np.ndarray, fan_in: int, limit: float, step: float) -> np.ndarray:
        # Lattice arithmetic is exact in double precision (int64 * float
        # stays float64), then rounds once to the gradient dtype.
        return (indices * step - fan_in * limit).astype(np.float32)

    def _indices(
        self, part: CodecResult, limit: float, step: float
    ) -> np.ndarray:
        state = part.state
        if isinstance(state, np.ndarray) and state.dtype == np.int64:
            if state.shape != (part.values.size,):
                raise ValueError(
                    "thc state must hold one lattice index per value: "
                    f"shape {state.shape} for {part.values.size} values"
                )
            return state
        # Recover indices from the rendered lattice points: the float32
        # rendering error is orders of magnitude below step/2.
        recovered = (part.values + part.fan_in * limit) / step
        return np.rint(recovered).astype(np.int64)

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        bits, limit, step = self._lattice(params)
        arr = flat32(values)
        clipped = np.clip(arr, -limit, limit)
        indices = np.rint((clipped + limit) / step).astype(np.int64)
        return CodecResult(
            payload_nbytes=self._payload_nbytes(arr.size, bits),
            values=self._render(indices, 1, limit, step),
            state=indices,
        )

    def error_bound(
        self, values: np.ndarray, **params: object
    ) -> Optional[float]:
        _bits, limit, step = self._lattice(params)
        arr = flat32(values)
        excess = 0.0
        if arr.size:
            excess = max(0.0, float(np.max(np.abs(arr))) - limit)
        # Half a lattice step of quantization error, plus whatever the
        # clip removed, plus a few ulps for the float32 rendering.
        return step / 2.0 + excess + step * 2.0**-20

    def aggregate_compressed(
        self, parts: Sequence[CodecResult], **params: object
    ) -> CodecResult:
        if not parts:
            raise ValueError("aggregation needs at least one part")
        bits, limit, step = self._lattice(params)
        size = parts[0].values.size
        total = np.zeros(size, dtype=np.int64)
        fan_in = 0
        for part in parts:
            if part.values.size != size:
                raise ValueError(
                    "aggregation parts must agree on element count: "
                    f"{part.values.size} != {size}"
                )
            total = total + self._indices(part, limit, step)
            fan_in += part.fan_in
        index_bits = bits + max(0, (fan_in - 1).bit_length())
        return CodecResult(
            payload_nbytes=self._payload_nbytes(size, index_bits),
            values=self._render(total, fan_in, limit, step),
            fan_in=fan_in,
            state=total,
        )

    def aggregate_payload_nbytes(
        self,
        raw_nbytes: int,
        payload_sizes: Sequence[int],
        fan_in: int,
        **params: object,
    ) -> int:
        if not payload_sizes:
            raise ValueError("aggregation needs at least one part")
        bits, _limit, _step = self._lattice(params)
        index_bits = bits + max(0, (fan_in - 1).bit_length())
        return self._payload_nbytes(-(-raw_nbytes // 4), index_bits)


register_codec(LosslessHomomorphicCodec(), tos=0x44)
register_codec(ThcCodec(), tos=0x48)
