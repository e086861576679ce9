"""Pluggable gradient-codec registry and per-stream profiles.

The paper hardwires one contract: gradient streams are tagged ToS 0x28
and the NIC's INCEPTIONN engines pick them up.  This module generalizes
that contract so any compressor can ride the same transport:

* :class:`GradientCodec` — the protocol every codec implements:
  ``compress(values, **params)`` returns the measured wire size *and*
  the reconstruction the receiver will observe, keeping the functional
  and timing domains coupled exactly like the INCEPTIONN path.
* a registry mapping codec names to implementations, each with its own
  reserved ToS byte (``inceptionn`` keeps the paper's 0x28).  It is the
  one table of stream ToS bytes: a stream's byte is its codec's.
* :class:`StreamProfile` — the per-stream property the software stack
  threads through the transport instead of a ``compressible`` boolean:
  codec name and codec parameters (error bound etc.).  A raw stream is
  ``None``, never a profile.

Two codecs are registered from this module: the INCEPTIONN codec and a
lossless identity.  Every other codec is defined beside its own kernel
and registers itself when its module is imported (DESIGN.md, "Codec
plugin architecture", has the ToS table).  This module imports no codec
module; plugins import it.

Codecs may additionally implement the *codec algebra* —
``aggregate_compressed(parts)`` summing payloads without a decompress
round-trip — advertised via the :data:`CAP_HOMOMORPHIC` capability
flag; the aggregation-site layer (``repro.transport.aggregation``)
keys off it.
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.network.packet import TOS_COMPRESS, TOS_DEFAULT, payload_ratio

from .bounds import DEFAULT_BOUND, ErrorBound
from .codec import quantize as _inc_quantize

#: Capability flags reported by :meth:`GradientCodec.capabilities`.
#: ``CAP_HOMOMORPHIC`` marks codecs whose payloads form a monoid under
#: addition (``aggregate_compressed`` is implemented), ``CAP_LOSSY``
#: marks inexact reconstructions, and ``CAP_ERROR_FEEDBACK`` marks
#: codecs whose dropped mass an EF-SGD-style wrapper can re-inject.
#: ``CAP_FIXED_POINT`` marks codecs whose reconstructions are fixed
#: points: re-encoding ``compress(x).values`` gives bit-identical values
#: and the same ``payload_nbytes``, so a forwarded message need not run
#: the codec again (:meth:`repro.transport.Endpoint.forward`).
CAP_HOMOMORPHIC = "homomorphic"
CAP_LOSSY = "lossy"
CAP_ERROR_FEEDBACK = "error-feedback"
CAP_FIXED_POINT = "fixed-point"


@dataclass(frozen=True)
class CodecResult:
    """What one ``compress`` (or ``aggregate_compressed``) call produced.

    ``payload_nbytes`` is the measured wire size (what the network
    clocks); ``values`` is the reconstruction (what the receiver
    observes).  Codecs never ship opaque blobs through the simulator —
    the two domains travel together.

    ``fan_in`` counts how many gradient streams are folded into this
    payload (1 for a fresh ``compress``); ``state``, when a homomorphic
    codec sets it, is the codec's exact compressed-domain accumulator,
    carried alongside the float32 rendering so partial sums forwarded
    through a reduction tree never lose precision.
    """

    payload_nbytes: int
    values: np.ndarray
    fan_in: int = 1
    state: Optional[object] = None

    @property
    def compression_ratio(self) -> float:
        return payload_ratio(self.values.size * 4, self.payload_nbytes)


def flat32(values: np.ndarray) -> np.ndarray:
    """``values`` as one contiguous float32 vector (a view when possible)."""
    return np.ascontiguousarray(values, dtype=np.float32).reshape(-1)


class GradientCodec(abc.ABC):
    """Protocol of a pluggable gradient compressor.

    Subclasses set ``name``/``lossless`` and implement ``compress``;
    lossy codecs also implement :meth:`error_bound` so tests and callers
    can check reconstructions against the declared guarantee.
    """

    #: Registry key, also used on the wire via the codec's ToS byte.
    name: str = "?"
    #: Lossless codecs reconstruct bit-exactly.
    lossless: bool = False

    def default_params(self) -> Dict[str, object]:
        """Parameter defaults, for documentation and the CLI listing."""
        return {}

    @abc.abstractmethod
    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        """Measure the wire size of ``values`` and reconstruct them."""

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        """Declared max absolute reconstruction error on ``values``.

        ``None`` means bit-exact (lossless codecs).  Lossy codecs return
        a bound that :meth:`compress`'s reconstruction is guaranteed to
        respect for these inputs and parameters.
        """
        if self.lossless:
            return None
        raise NotImplementedError(f"{self.name} must declare an error bound")

    def capabilities(self) -> FrozenSet[str]:
        """Capability flags (``CAP_*``) for discovery and site checks.

        The default derives ``lossy`` from :attr:`lossless`, and a
        lossless codec's bit-exact reconstruction is its own fixed point;
        codecs with a codec algebra add :data:`CAP_HOMOMORPHIC`, codecs
        whose dropped mass is re-injectable add :data:`CAP_ERROR_FEEDBACK`,
        and a lossy codec adds :data:`CAP_FIXED_POINT` only when it holds
        the property ``tests/core/test_registry.py`` checks.
        """
        return frozenset({CAP_FIXED_POINT if self.lossless else CAP_LOSSY})

    @property
    def homomorphic(self) -> bool:
        """True when payloads aggregate without leaving the codec domain."""
        return CAP_HOMOMORPHIC in self.capabilities()

    def aggregate_compressed(
        self, parts: Sequence[CodecResult], **params: object
    ) -> CodecResult:
        """Sum compressed ``parts`` without a decompress round-trip.

        The codec algebra: homomorphic codecs return the payload of the
        aggregate — same wire/value coupling as :meth:`compress`, with
        ``fan_in`` accumulated and ``state`` carrying the codec's exact
        accumulator.  Codecs without :data:`CAP_HOMOMORPHIC` raise.
        """
        raise NotImplementedError(
            f"codec {self.name!r} has no codec algebra "
            "(not homomorphic); aggregate at the endpoint instead"
        )

    def aggregate_payload_nbytes(
        self,
        raw_nbytes: int,
        payload_sizes: Sequence[int],
        fan_in: int,
        **params: object,
    ) -> int:
        """Size-domain image of :meth:`aggregate_compressed`.

        For size-only streams (paper-scale sends with no functional
        array) the reduction runtime needs the aggregated wire size
        without values; homomorphic codecs model it from the raw byte
        count and the combined ``fan_in``.
        """
        raise NotImplementedError(
            f"codec {self.name!r} has no codec algebra "
            "(not homomorphic); aggregate at the endpoint instead"
        )


# -- built-in codecs ---------------------------------------------------------


class InceptionnCodec(GradientCodec):
    """The paper's error-bounded hardware codec (Algorithms 2/3)."""

    name = "inceptionn"

    def capabilities(self) -> FrozenSet[str]:
        # The EF-SGD wrapper (repro.core.error_feedback) re-injects the
        # residual this codec drops.  A reconstruction keeps its input's
        # exponent (ZERO gives +0.0, itself ZERO), so it re-enters the
        # same magnitude class and that class's mask clears nothing more.
        return frozenset({CAP_LOSSY, CAP_ERROR_FEEDBACK, CAP_FIXED_POINT})

    def default_params(self) -> Dict[str, object]:
        return {"bound": DEFAULT_BOUND.exponent}

    @staticmethod
    def bound_of(params: Mapping) -> ErrorBound:
        """The ``bound`` parameter, in any accepted spelling, as an ErrorBound."""
        bound = params.get("bound", DEFAULT_BOUND)
        if isinstance(bound, ErrorBound):
            return bound
        if isinstance(bound, float) and 0.0 < bound < 1.0:
            return ErrorBound.from_bound(bound)  # 2**-b, sz_like's unit
        integral = isinstance(bound, numbers.Integral) or (
            isinstance(bound, float) and bound.is_integer()
        )
        if isinstance(bound, bool) or not integral:
            raise ValueError(
                "inceptionn bound must be an ErrorBound, an integral exponent "
                f"b (bound 2^-b) or the float 2**-b itself, got {bound!r}"
            )
        return ErrorBound(int(bound))

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        nbits, reconstruction = _inc_quantize(values, self.bound_of(params))
        return CodecResult(payload_nbytes=-(-nbits // 8), values=reconstruction)

    def error_bound(self, values: np.ndarray, **params: object) -> Optional[float]:
        return self.bound_of(params).bound


class IdentityCodec(GradientCodec):
    """Lossless pass-through: ratio 1.0, bit-exact.

    Useful as a control stream and for measuring pure engine overhead.
    """

    name = "identity"
    lossless = True

    def compress(self, values: np.ndarray, **params: object) -> CodecResult:
        arr = flat32(values)
        return CodecResult(payload_nbytes=arr.nbytes, values=arr.copy())


# -- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredCodec:
    """A codec plus the ToS byte its streams are tagged with."""

    codec: GradientCodec
    tos: int


_REGISTRY: Dict[str, RegisteredCodec] = {}


def register_codec(codec: GradientCodec, tos: int) -> GradientCodec:
    """Register ``codec`` under its name with a reserved, non-zero ToS byte."""
    name = codec.name
    if not name or name == "?":
        raise ValueError("codecs must set a registry name")
    if name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    if not 0 <= tos <= 0xFF:
        raise ValueError(f"ToS must fit one byte, got {tos:#x}")
    if tos == TOS_DEFAULT:
        raise ValueError("the default ToS cannot mark compressible streams")
    # Sorted so the collision error names the same claimant no matter
    # what order plugins imported in (rule R10: registry listing order).
    for other, entry in sorted(_REGISTRY.items()):
        if entry.tos == tos:
            raise ValueError(
                f"ToS {tos:#x} already claimed by codec {other!r}"
            )
    _REGISTRY[name] = RegisteredCodec(codec=codec, tos=tos)
    return codec


def available_codecs() -> Tuple[str, ...]:
    """Registered codec names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_codec(name: str) -> GradientCodec:
    """Look a codec up by name; unknown names list what is available."""
    try:
        return _REGISTRY[name].codec
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available codecs: "
            f"{', '.join(available_codecs())}"
        ) from None


def codec_tos(name: str) -> int:
    """The ToS byte tagging streams of the named codec."""
    get_codec(name)  # raise the descriptive KeyError for unknown names
    return _REGISTRY[name].tos


# -- stream profiles ---------------------------------------------------------


@dataclass(frozen=True)
class StreamProfile:
    """Per-stream property replacing the old ``compressible`` boolean.

    Every profile names a registered codec; a raw stream (ordinary
    traffic, ToS 0x00) is ``None`` wherever a profile is accepted.  The
    stream is tagged with its codec's registered ToS and, when the
    endpoint NICs have engines, its payload travels compressed: the
    receiver observes the codec's reconstruction and the wire carries
    its measured size.
    """

    codec: str
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def tos(self) -> int:
        """The ToS byte this stream's packets carry: its codec's."""
        return codec_tos(self.codec)

    def resolve(self) -> GradientCodec:
        return get_codec(self.codec)

    @property
    def homomorphic(self) -> bool:
        """True when this stream's codec supports the codec algebra."""
        return self.resolve().homomorphic

    def compress(self, values: np.ndarray) -> CodecResult:
        return self.resolve().compress(values, **dict(self.params))

    def aggregate_compressed(
        self, parts: Sequence[CodecResult]
    ) -> CodecResult:
        """Apply the codec algebra with this stream's parameters."""
        return self.resolve().aggregate_compressed(
            parts, **dict(self.params)
        )

    def aggregate_payload_nbytes(
        self, raw_nbytes: int, payload_sizes: Sequence[int], fan_in: int
    ) -> int:
        """Size-domain codec algebra with this stream's parameters."""
        return self.resolve().aggregate_payload_nbytes(
            raw_nbytes, payload_sizes, fan_in, **dict(self.params)
        )

    def error_bound(self, values: np.ndarray) -> Optional[float]:
        return self.resolve().error_bound(values, **dict(self.params))


def profile_for(name: str, **params: object) -> StreamProfile:
    """Build a profile for a registered codec (validates the name)."""
    get_codec(name)
    return StreamProfile(codec=name, params=params)


def inceptionn_profile(bound: ErrorBound = DEFAULT_BOUND) -> StreamProfile:
    """The paper's default stream: INCEPTIONN codec under ToS 0x28."""
    return profile_for("inceptionn", bound=bound)


register_codec(InceptionnCodec(), tos=TOS_COMPRESS)
register_codec(IdentityCodec(), tos=0x2C)
