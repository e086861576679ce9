"""INCEPTIONN's primary contribution: the lossy FP32 gradient codec.

Public surface:

- :class:`ErrorBound` and the paper's :data:`PAPER_BOUNDS`.
- :func:`compress` / :func:`decompress` — vectorized codec (wire bytes);
  :func:`quantize` — its fused size + reconstruction (the send path).
- :class:`CompressedGradients` — unpacked + wire representations.
- ``tests/core/reference_codec.py`` — the bit-exact scalar specification.
- Statistics helpers reproducing Table III / Fig 14 metrics.
- :mod:`repro.core.registry` — the pluggable codec registry and
  :class:`StreamProfile`, the per-stream codec/ToS property threaded
  through the transport in place of a ``compressible`` boolean.
"""

from .bounds import DEFAULT_BOUND, ErrorBound, PAPER_BOUNDS
from .codec import classify, compress, compressed_nbits, decompress, quantize, roundtrip
from .container import CompressedGradients, GROUP_SIZE
from .error_feedback import ErrorFeedbackCompressor, gradient_hook
from . import gradient_file
from .registry import (
    CAP_ERROR_FEEDBACK,
    CAP_FIXED_POINT,
    CAP_HOMOMORPHIC,
    CAP_LOSSY,
    CodecResult,
    GradientCodec,
    StreamProfile,
    available_codecs,
    codec_tos,
    get_codec,
    inceptionn_profile,
    profile_for,
    register_codec,
)

# Importing these modules registers the homomorphic families (lossless
# homomorphic compression + THC) and the FFT sparsifier.
from .fftsparse import FftSparsificationCodec
from .homomorphic import (
    LosslessHomomorphicCodec,
    ThcCodec,
    encode_limbs,
    render_limbs,
)
from .stats import (
    BitwidthDistribution,
    bitwidth_distribution,
    compression_ratio,
    max_abs_error,
    value_histogram,
)
from .tags import (
    ENCODED_BITS,
    PAYLOAD_BITS,
    TAG_BIT8,
    TAG_BIT16,
    TAG_NAMES,
    TAG_NO_COMPRESS,
    TAG_ZERO,
)

__all__ = [
    "CAP_ERROR_FEEDBACK",
    "CAP_FIXED_POINT",
    "CAP_HOMOMORPHIC",
    "CAP_LOSSY",
    "DEFAULT_BOUND",
    "ErrorBound",
    "FftSparsificationCodec",
    "LosslessHomomorphicCodec",
    "PAPER_BOUNDS",
    "CodecResult",
    "ThcCodec",
    "encode_limbs",
    "render_limbs",
    "GradientCodec",
    "StreamProfile",
    "available_codecs",
    "codec_tos",
    "get_codec",
    "inceptionn_profile",
    "profile_for",
    "register_codec",
    "classify",
    "compress",
    "compressed_nbits",
    "decompress",
    "quantize",
    "roundtrip",
    "CompressedGradients",
    "GROUP_SIZE",
    "ErrorFeedbackCompressor",
    "gradient_hook",
    "gradient_file",
    "BitwidthDistribution",
    "bitwidth_distribution",
    "compression_ratio",
    "max_abs_error",
    "value_histogram",
    "ENCODED_BITS",
    "PAYLOAD_BITS",
    "TAG_BIT8",
    "TAG_BIT16",
    "TAG_NAMES",
    "TAG_NO_COMPRESS",
    "TAG_ZERO",
]
