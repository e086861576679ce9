"""Ablation: ring block-partition granularity.

Algorithm 1 fixes the block count at N (one per worker).  What if the
vector were exchanged in fewer, larger steps (a naive neighbour
rotation of full vectors) or finer ones?  The N-block reduce-scatter +
all-gather is the bandwidth-optimal point: each node moves
2(N-1)/N x n bytes; a full-vector rotation moves (N-1) x n.  Finer
partitions move the same bytes in more steps — no further win, only
more per-message latency.
"""

import pytest

from conftest import print_header, print_row, run_once
from repro.transport import ClusterComm, ClusterConfig, SizedPayload

MB = 2**20


def _rotate_full_vector_time(num_workers, nbytes):
    """1-block alternative: rotate full vectors around the ring N-1 times."""
    comm = ClusterComm(ClusterConfig(num_nodes=num_workers))

    def node(i):
        def proc():
            nxt = (i + 1) % num_workers
            prv = (i - 1) % num_workers
            for _ in range(num_workers - 1):
                comm.endpoints[i].isend(nxt, SizedPayload(nbytes))
                yield comm.endpoints[i].recv(prv)

        return proc

    for i in range(num_workers):
        comm.sim.process(node(i)())
    return comm.run()


def _blocked_exchange_time(num_workers, nbytes, blocks_per_node):
    """Algorithm 1 generalized to ``N * blocks_per_node`` blocks.

    Per step each node ships one block; P1 + P2 take
    ``2 (N-1) blocks_per_node`` steps and move ``2 (N-1)/N x n`` bytes
    per node regardless of the multiplier.
    """
    total_blocks = num_workers * blocks_per_node
    block_nbytes = max(1, nbytes // total_blocks)
    steps = 2 * (num_workers - 1) * blocks_per_node
    comm = ClusterComm(ClusterConfig(num_nodes=num_workers))

    def node(i):
        def proc():
            nxt = (i + 1) % num_workers
            prv = (i - 1) % num_workers
            for _ in range(steps):
                comm.endpoints[i].isend(nxt, SizedPayload(block_nbytes))
                yield comm.endpoints[i].recv(prv)

        return proc

    for i in range(num_workers):
        comm.sim.process(node(i)())
    return comm.run()


def test_block_partition_is_the_win(benchmark):
    def run():
        n = 64 * MB
        p = 4
        return {
            "rotate full vector": _rotate_full_vector_time(p, n),
            "Algorithm 1 (N blocks)": _blocked_exchange_time(p, n, 1),
            "2N blocks": _blocked_exchange_time(p, n, 2),
            "4N blocks": _blocked_exchange_time(p, n, 4),
        }

    results = run_once(benchmark, run)
    print_header("Ablation: ring granularity, 64 MB vector, 4 workers")
    print_row("scheme", "time (s)")
    for name, t in results.items():
        print_row(name, f"{t:.3f}")

    naive = results["rotate full vector"]
    blocked = results["Algorithm 1 (N blocks)"]
    # Rotation moves (N-1) x n per node; Algorithm 1 moves 2(N-1)/N x n
    # = 1.5n at N=4 versus 3n: expect roughly half the time.
    assert blocked < naive * 0.7
    # Finer than N blocks is not faster (same bytes, more messages).
    assert results["2N blocks"] == pytest.approx(blocked, rel=0.15)
    assert results["4N blocks"] == pytest.approx(blocked, rel=0.15)
