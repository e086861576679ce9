"""Worker-node RNG spawn keys and partitioning helpers."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.transport.wire import Payload, SizedPayload

#: Spawn-key stream tags: one reserved lane per independent per-node
#: random stream.  Keys are ``(seed, node, stream)`` sequences fed to
#: ``np.random.default_rng`` — unlike the old ``seed + 1000 * i`` /
#: ``seed + 77`` arithmetic, nearby seeds can never collide with other
#: workers' streams (SeedSequence hashes the whole key).
DATA_STREAM = 0
JITTER_STREAM = 1


def spawn_key(seed: int, node: int, stream: int = DATA_STREAM) -> Tuple[int, int, int]:
    """Collision-free RNG spawn key for one node's random stream.

    Every RNG in :mod:`repro.distributed` derives from one of these via
    ``np.random.default_rng(spawn_key(seed, node, stream))``.
    """
    return (seed, node, stream)


def block_sizes(total: int, num_blocks: int) -> List[int]:
    """Element counts of Algorithm 1's near-equal contiguous blocks.

    The single source of truth for reduce-scatter block sizes: the
    first ``total % num_blocks`` blocks carry one extra element — the
    same layout ``np.array_split`` produces.  :func:`partition_blocks`
    (so the ring primitive, on arrays and sizes alike) and the flow
    evaluator read it.
    """
    if num_blocks < 1:
        raise ValueError("need at least one block")
    if total < 0:
        raise ValueError("total cannot be negative")
    base, rem = divmod(total, num_blocks)
    return [base + (1 if b < rem else 0) for b in range(num_blocks)]


def partition_blocks(vector: Payload, num_blocks: int) -> List[Payload]:
    """Algorithm 1 line 8: split ``g`` evenly into N blocks.

    Contiguous views with the :func:`block_sizes` layout (sizes differ
    by at most one) — of ``vector`` itself when it already is a flat
    float32 array, so writing a block writes ``vector``; the ring
    exchange hands in the one copy it reduces in place.  A size-only
    gradient splits into size-only blocks at its ratio.
    """
    if isinstance(vector, SizedPayload):
        if vector.nbytes % 4:
            raise ValueError(f"nbytes={vector.nbytes} is not whole float32 values")
        return [
            SizedPayload(size * 4, vector.ratio)
            for size in block_sizes(vector.nbytes // 4, num_blocks)
        ]
    flat = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    sizes = block_sizes(flat.size, num_blocks)
    return np.split(flat, np.cumsum(sizes[:-1]))
