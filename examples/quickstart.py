"""Quickstart: compress gradients, bound the error, ship them on a ring.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ErrorBound, compress, decompress
from repro.core import inceptionn_profile
from repro.distributed import ring_exchange
from repro.transport import ClusterComm, ClusterConfig


def main() -> None:
    # --- 1. The codec ------------------------------------------------------
    rng = np.random.default_rng(0)
    # Gradient-shaped data: tight near-zero peak with a light tail.
    grads = np.where(
        rng.random(1_000_000) < 0.1,
        rng.standard_normal(1_000_000) * 0.1,
        rng.standard_normal(1_000_000) * 0.002,
    ).astype(np.float32)

    for exponent in (10, 8, 6):
        bound = ErrorBound(exponent)
        cg = compress(grads, bound)
        restored = decompress(cg)
        err = np.max(np.abs(restored - grads))
        print(
            f"bound 2^-{exponent}: ratio {cg.compression_ratio:5.2f}x, "
            f"wire {cg.compressed_nbytes / 2**20:6.2f} MB "
            f"(from {cg.original_nbytes / 2**20:.2f} MB), "
            f"max error {err:.2e} < {bound.bound:.2e}"
        )

    # --- 2. The gradient-centric ring (Algorithm 1) ------------------------
    num_workers = 4
    comm = ClusterComm(
        ClusterConfig(num_nodes=num_workers, profile=inceptionn_profile())
    )
    locals_ = [
        (rng.standard_normal(100_000) * 0.01).astype(np.float32)
        for _ in range(num_workers)
    ]
    results = {}

    def node(i):
        def proc():
            results[i] = yield from ring_exchange(
                comm.endpoints[i], locals_[i], range(num_workers)
            )

        return proc

    for i in range(num_workers):
        comm.sim.process(node(i)())
    elapsed = comm.run()

    exact = np.sum(locals_, axis=0)
    worst = max(float(np.max(np.abs(results[i] - exact))) for i in results)
    print(
        f"\nring all-reduce over {num_workers} workers: "
        f"{elapsed * 1e3:.2f} ms simulated, "
        f"aggregate error {worst:.2e} (bound per hop 2^-10)"
    )
    print("every node now holds the full gradient sum — no aggregator needed")


if __name__ == "__main__":
    main()
