"""Ring exchange correctness: the aggregation identity of Algorithm 1."""

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.distributed import (
    ComputeProfile,
    ZERO_COMPUTE,
    partition_blocks,
    ring_exchange,
)
from repro.distributed.node import block_sizes
from repro.transport import ClusterComm, ClusterConfig


def _run_ring(vectors, compression=False, bound=ErrorBound(10), profile=ZERO_COMPUTE):
    """Run the full ring on the given per-node vectors; return results."""
    n = len(vectors)
    stream = inceptionn_profile(bound) if compression else None
    comm = ClusterComm(
        ClusterConfig(num_nodes=n, profile=stream), compute=profile
    )
    results = {}

    def node(i):
        def proc():
            out = yield from ring_exchange(
                comm.endpoints[i],
                vectors[i],
                range(n),
            )
            results[i] = out

        return proc

    for i in range(n):
        comm.sim.process(node(i)())
    elapsed = comm.run()
    return results, elapsed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_allreduce_identity(n):
    rng = np.random.default_rng(n)
    vectors = [
        (rng.standard_normal(1000) * 0.2).astype(np.float32) for _ in range(n)
    ]
    results, _ = _run_ring(vectors)
    expected = np.sum(vectors, axis=0)
    for i in range(n):
        np.testing.assert_allclose(results[i], expected, rtol=1e-4, atol=1e-6)


def test_all_nodes_agree_bitwise():
    rng = np.random.default_rng(0)
    vectors = [
        (rng.standard_normal(997) * 0.2).astype(np.float32) for _ in range(4)
    ]
    results, _ = _run_ring(vectors)
    for i in range(1, 4):
        np.testing.assert_array_equal(results[0], results[i])


def test_uneven_vector_size():
    # 1003 does not divide by 4; blocks differ in size by one.
    rng = np.random.default_rng(1)
    vectors = [
        (rng.standard_normal(1003) * 0.1).astype(np.float32) for _ in range(4)
    ]
    results, _ = _run_ring(vectors)
    np.testing.assert_allclose(
        results[2], np.sum(vectors, axis=0), rtol=1e-4, atol=1e-6
    )


def test_single_node_ring_is_identity():
    comm = ClusterComm(ClusterConfig(num_nodes=2))
    vec = np.arange(10, dtype=np.float32)
    results = {}

    def proc():
        out = yield from ring_exchange(comm.endpoints[0], vec, range(1))
        results[0] = out

    comm.sim.process(proc())
    comm.run()
    np.testing.assert_array_equal(results[0], vec)


def test_node_outside_ring_rejected():
    comm = ClusterComm(ClusterConfig(num_nodes=4))

    def proc():
        yield from ring_exchange(comm.endpoints[3], np.zeros(8), range(2))

    comm.sim.process(proc())
    with pytest.raises(ValueError):
        comm.run()


@pytest.mark.parametrize("exp", [6, 8, 10])
def test_compressed_ring_error_bounded(exp):
    bound = ErrorBound(exp)
    n = 4
    rng = np.random.default_rng(exp)
    vectors = [
        (rng.standard_normal(2000) * 0.1).astype(np.float32) for _ in range(n)
    ]
    results, _ = _run_ring(vectors, compression=True, bound=bound)
    expected = np.sum(vectors, axis=0)
    # Each of the N-1 reduce-scatter hops adds at most one bound of error
    # to a partial sum; the all-gather forwards add none, because
    # inceptionn advertises CAP_FIXED_POINT (its reconstructions are
    # codec fixed points, tests/core/test_registry.py).
    tolerance = n * bound.bound
    for i in range(n):
        assert np.max(np.abs(results[i] - expected)) <= tolerance


def test_compressed_ring_replica_divergence_is_bounded():
    # With per-hop NIC compression, the block a node fully reduced itself
    # never crosses its own NIC, so the owner keeps the uncompressed
    # value while every peer holds the codec reconstruction: replicas may
    # differ, but only inside the owner's block and only within the
    # error bound.  (The physical system behaves identically.)
    n = 4
    bound = ErrorBound(10)
    rng = np.random.default_rng(9)
    vectors = [
        (rng.standard_normal(512) * 0.1).astype(np.float32) for _ in range(n)
    ]
    results, _ = _run_ring(vectors, compression=True, bound=bound)
    block = 512 // n
    for i in range(n):
        for j in range(n):
            diff = np.abs(results[i] - results[j])
            assert np.max(diff) < bound.bound
            # Outside nodes i's and j's own blocks, values agree exactly:
            mask = np.ones(512, dtype=bool)
            own_i = (i + 1) % n
            own_j = (j + 1) % n
            mask[own_i * block : (own_i + 1) * block] = False
            mask[own_j * block : (own_j + 1) * block] = False
            assert np.array_equal(results[i][mask], results[j][mask])


def test_compression_shortens_exchange():
    n = 4
    vectors = [np.zeros(500_000, dtype=np.float32) for _ in range(n)]
    _, t_plain = _run_ring(vectors, compression=False)
    _, t_comp = _run_ring(vectors, compression=True)
    assert t_comp < t_plain


def test_sum_profile_adds_time():
    n = 4
    vectors = [np.ones(100_000, dtype=np.float32) for _ in range(n)]
    slow_sum = ComputeProfile(sum_bandwidth_bps=1e6)
    _, t_fast = _run_ring(vectors)
    _, t_slow = _run_ring(vectors, profile=slow_sum)
    assert t_slow > t_fast


def test_ring_exchange_sizes_match_partition():
    vec = np.zeros(1003, dtype=np.float32)
    blocks = partition_blocks(vec, 4)
    assert [b.size for b in blocks] == block_sizes(1003, 4)
    assert sum(block_sizes(1003, 4)) == 1003


def test_partition_rejects_zero_blocks():
    with pytest.raises(ValueError):
        partition_blocks(np.zeros(4), 0)
