"""Hierarchical (Fig 1c) exchange tests."""

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.distributed import GroupLayout, hierarchical_exchange
from repro.transport import ClusterComm, ClusterConfig


def _run_hier(vectors, group_size, compression=False, bound=ErrorBound(10)):
    n = len(vectors)
    layout = GroupLayout.even(n, group_size)
    stream = inceptionn_profile(bound) if compression else None
    comm = ClusterComm(
        ClusterConfig(num_nodes=n, profile=stream)
    )
    results = {}

    def node(i):
        def proc():
            out = yield from hierarchical_exchange(
                comm, i, vectors[i], layout
            )
            results[i] = out

        return proc

    for i in range(n):
        comm.sim.process(node(i)())
    elapsed = comm.run()
    return results, elapsed


def test_layout_construction():
    layout = GroupLayout.even(8, 4)
    assert layout.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert layout.leaders == (0, 4)
    assert layout.group_of(6) == (4, 5, 6, 7)


def test_layout_validation():
    with pytest.raises(ValueError):
        GroupLayout.even(8, 3)
    with pytest.raises(ValueError):
        GroupLayout.even(8, 1)
    with pytest.raises(ValueError):
        GroupLayout.even(4, 2).group_of(9)


@pytest.mark.parametrize("n,g", [(4, 2), (8, 4), (8, 2), (6, 3)])
def test_global_sum_identity(n, g):
    rng = np.random.default_rng(n * 10 + g)
    vectors = [
        (rng.standard_normal(400) * 0.1).astype(np.float32) for _ in range(n)
    ]
    results, _ = _run_hier(vectors, g)
    expected = np.sum(vectors, axis=0)
    for i in range(n):
        np.testing.assert_allclose(results[i], expected, rtol=1e-4, atol=1e-6)


def test_single_group_degenerates_to_ring():
    rng = np.random.default_rng(1)
    vectors = [
        (rng.standard_normal(100) * 0.1).astype(np.float32) for _ in range(4)
    ]
    results, _ = _run_hier(vectors, 4)  # one group of 4: no upper ring
    np.testing.assert_allclose(
        results[0], np.sum(vectors, axis=0), rtol=1e-4, atol=1e-6
    )


def test_compressed_hierarchy_error_bounded():
    bound = ErrorBound(8)
    n, g = 8, 4
    rng = np.random.default_rng(2)
    vectors = [
        (rng.standard_normal(800) * 0.05).astype(np.float32) for _ in range(n)
    ]
    results, _ = _run_hier(vectors, g, compression=True, bound=bound)
    expected = np.sum(vectors, axis=0)
    # Two ring levels plus a broadcast: error stays a small multiple of
    # the bound (each lossy stage adds at most one bound).
    tolerance = (g + n // g + 2) * bound.bound
    for i in range(n):
        assert np.max(np.abs(results[i] - expected)) <= tolerance
