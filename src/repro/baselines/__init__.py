"""Comparator baselines: truncation, quantizers, top-k, snappy-like LZ,
SZ-like — each kernel with its registered codec — and the cost models."""

from . import snappy_like, sz_like
from .quantization import OneBitCodec, qsgd, sign_quantize, terngrad
from .sparsification import top_k
from .software_cost import (
    SOFTWARE_CODECS,
    SoftwareCodec,
    baseline_training_time,
    software_training_time,
)
from .truncation import PAPER_TRUNCATIONS, truncate_lsbs, truncation_ratio

__all__ = [
    "snappy_like",
    "sz_like",
    "OneBitCodec",
    "qsgd",
    "sign_quantize",
    "terngrad",
    "top_k",
    "SOFTWARE_CODECS",
    "SoftwareCodec",
    "baseline_training_time",
    "software_training_time",
    "PAPER_TRUNCATIONS",
    "truncate_lsbs",
    "truncation_ratio",
]
