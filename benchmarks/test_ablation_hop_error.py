"""Ablation: per-hop lossy error accumulation in the ring.

The NIC compresses *every* hop of Algorithm 1.  How much error does a
full exchange accumulate versus compressing the aggregate once?  Design
facts verified: reduce-scatter hops each add at most one bound of error
to partial sums; all-gather forwards are free (the codec advertises
``CAP_FIXED_POINT``: reconstructed values are codec fixed points, so a
forward reuses the received message), so error grows with ring size but
stays a small multiple of the bound — not with the number of *hops
squared*.
"""

import numpy as np
import pytest

from conftest import print_header, print_row, run_once
from repro.core import ErrorBound, inceptionn_profile, roundtrip
from repro.distributed import ring_exchange
from repro.transport import ClusterComm, ClusterConfig

BOUND = ErrorBound(10)


def _ring_error(n, seed=0):
    rng = np.random.default_rng(seed)
    vectors = [
        (rng.standard_normal(4096) * 0.05).astype(np.float32) for _ in range(n)
    ]
    stream = inceptionn_profile(BOUND)
    comm = ClusterComm(ClusterConfig(num_nodes=n, profile=stream))
    results = {}

    def node(i):
        def proc():
            results[i] = yield from ring_exchange(
                comm.endpoints[i], vectors[i], range(n)
            )

        return proc

    for i in range(n):
        comm.sim.process(node(i)())
    comm.run()
    exact = np.sum(vectors, axis=0)
    ring_err = max(float(np.max(np.abs(results[i] - exact))) for i in range(n))
    once_err = float(np.max(np.abs(roundtrip(exact, BOUND) - exact)))
    return ring_err, once_err


def test_hop_error_vs_compress_once(benchmark):
    results = run_once(
        benchmark, lambda: {n: _ring_error(n, seed=n) for n in (2, 4, 8)}
    )
    print_header("Ablation: ring error accumulation vs compress-once")
    print_row("ring size", "ring err", "once err", "x bound")
    for n, (ring_err, once_err) in results.items():
        print_row(
            str(n),
            f"{ring_err:.2e}",
            f"{once_err:.2e}",
            f"{ring_err / BOUND.bound:.2f}",
        )
    for n, (ring_err, once_err) in results.items():
        # Per-hop compression costs more error than compress-once...
        assert ring_err >= once_err * 0.5
        # ...but stays a small multiple of the bound (not hop-quadratic).
        assert ring_err <= (n + 1) * BOUND.bound


def test_allgather_recompression_is_exact(benchmark):
    """A codec fixed point re-compresses to itself: the P2 leg adds zero
    extra error regardless of how many hops it crosses."""

    def run():
        rng = np.random.default_rng(0)
        values = (rng.standard_normal(10_000) * 0.1).astype(np.float32)
        once = roundtrip(values, BOUND)
        many = once
        for _ in range(16):
            many = roundtrip(many, BOUND)
        return once, many

    once, many = run_once(benchmark, run)
    np.testing.assert_array_equal(once, many)
