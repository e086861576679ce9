"""INCEPTIONN reproduction — in-network gradient compression and
gradient-centric distributed DNN training (Li et al., MICRO 2018).

Subpackages
-----------
``repro.core``
    The lossy FP32 gradient codec (Algorithms 2/3), its statistics and
    the ``GradientCodec`` protocol every compressor implements.
``repro.hardware``
    Bit-exact burst-level model of the NIC compression/decompression
    engines (Figs 8-10).
``repro.network``
    Discrete-event network substrate: packets, links, topologies.
``repro.transport``
    MPI-style endpoints and wire messages with ToS-0x28 tagging (Fig 11).
``repro.dnn``
    From-scratch NumPy DNN training framework and model zoo.
``repro.distributed``
    Algorithm 1 (gradient-centric ring), the worker-aggregator baseline,
    and hierarchical composition (Fig 1c).
``repro.perfmodel``
    Analytical and simulated performance models calibrated to Table II.
``repro.baselines``
    Truncation, quantizer, top-k, snappy-like and SZ-like comparators, each
    kernel beside its registered codec, and the software cost model.

Quickstart::

    import numpy as np
    from repro import compress, decompress, ErrorBound

    rng = np.random.default_rng(0)
    grads = (rng.standard_normal(1_000_000) * 0.01).astype(np.float32)
    cg = compress(grads, ErrorBound(10))
    print(cg.compression_ratio)          # ~10-16x on gradient-shaped data
    restored = decompress(cg)            # max error < 2^-10
"""

from .core import (
    DEFAULT_BOUND,
    ErrorBound,
    PAPER_BOUNDS,
    CompressedGradients,
    bitwidth_distribution,
    compress,
    compression_ratio,
    decompress,
    roundtrip,
)
from .distributed import ring_exchange, run_strategy
from .dnn import PAPER_MODELS, build_hdc, build_mini_cnn
from .hardware import CompressionEngine, DecompressionEngine, InceptionnNic
from .perfmodel import (
    equal_accuracy_speedup,
    fig12_estimates,
    simulate_ring_exchange,
    simulate_wa_exchange,
)
from .transport import ClusterComm, ClusterConfig

# Importing the comparators registers their codecs (ToS 0x30-0x40).
from . import baselines

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_BOUND",
    "ErrorBound",
    "PAPER_BOUNDS",
    "CompressedGradients",
    "bitwidth_distribution",
    "compress",
    "compression_ratio",
    "decompress",
    "roundtrip",
    "ring_exchange",
    "run_strategy",
    "PAPER_MODELS",
    "build_hdc",
    "build_mini_cnn",
    "CompressionEngine",
    "DecompressionEngine",
    "InceptionnNic",
    "equal_accuracy_speedup",
    "fig12_estimates",
    "simulate_ring_exchange",
    "simulate_wa_exchange",
    "ClusterComm",
    "ClusterConfig",
    "__version__",
]
