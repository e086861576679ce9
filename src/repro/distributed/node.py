"""Worker-node compute profile, Table II phase ledger, partitioning helpers."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import CAT_PHASE, Tracer

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


@dataclass(frozen=True)
class ComputeProfile:
    """Per-iteration local-computation times of one worker.

    These model the GPU/CPU side the paper measures in Table II; the
    calibrated instances in :mod:`repro.perfmodel.calibration` are
    derived from that table.  Gradient summation is bandwidth-style
    (time proportional to bytes) because it scales with how much data a
    node reduces, which differs between the WA and INCEPTIONN algorithms.
    """

    forward_s: float = 0.0
    backward_s: float = 0.0
    gpu_copy_s: float = 0.0
    update_s: float = 0.0
    #: Memory-bound vector-sum rate (bytes of *input* summed per second).
    sum_bandwidth_bps: float = 10.4e9

    def sum_time(self, nbytes: int) -> float:
        """Time to add ``nbytes`` of incoming gradient into an accumulator."""
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        if self.sum_bandwidth_bps <= 0:
            return 0.0
        return nbytes / self.sum_bandwidth_bps

    @property
    def local_compute_s(self) -> float:
        """Forward + backward + device copy, the pre-exchange work."""
        return self.forward_s + self.backward_s + self.gpu_copy_s


#: A profile with zero compute time — communication-only experiments.
ZERO_COMPUTE = ComputeProfile(sum_bandwidth_bps=0.0)


@dataclass(frozen=True)
class PhaseTimes:
    """Seconds per Table II phase, in the paper's row order.

    The one row type from calibration to report: the paper's own columns
    (:data:`repro.perfmodel.calibration.TABLE2`) and every simulated
    attribution (:meth:`PhaseLedger.close`) are instances of it.
    """

    forward: float = 0.0
    backward: float = 0.0
    gpu_copy: float = 0.0
    gradient_sum: float = 0.0
    communicate: float = 0.0
    update: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.forward
            + self.backward
            + self.gpu_copy
            + self.gradient_sum
            + self.communicate
            + self.update
        )

    @property
    def communication_fraction(self) -> float:
        """Communicate's share of the total (Fig 3b); 0 for an empty row."""
        return self.normalized()["communicate"]

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)

    def normalized(self) -> Dict[str, float]:
        """Phase fractions of the total (Table II's 'Norm.' columns)."""
        # Explicit zero check instead of a falsy ``or`` default: an empty
        # row is all-zero fractions, not NaN.
        total = self.total
        if total == 0.0:
            total = 1.0
        return {name: t / total for name, t in self.as_dict().items()}


#: The Table II phase names, in the paper's row order.
PHASE_NAMES = tuple(f.name for f in fields(PhaseTimes))


class PhaseLedger:
    """The one accumulator of a run's Table II attribution.

    Every simulated second a run spends computing is added here, at the
    site that spends it; :meth:`close` folds the sums into a
    :class:`PhaseTimes` with Communicate as the residual of the run's
    total — the accounting of the paper's harness.  The ledger is the
    authority and *feeds* the nullable tracer one ``phase`` span per
    non-zero add, so span sums repeat its ``+=`` sequence bit for bit.
    Sums accumulate in call order: repeated per-iteration adds, never
    ``iterations * x``.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.seconds = {
            name: 0.0 for name in PHASE_NAMES if name != "communicate"
        }

    def add(
        self,
        name: str,
        seconds: float,
        node: Optional[int] = None,
        ts: float = 0.0,
    ) -> None:
        """Attribute ``seconds`` to phase ``name``.

        ``node`` and ``ts`` place the span; an evaluator that cannot
        carry a tracer (flow fidelity) omits them.
        """
        self.seconds[name] += seconds
        if self.tracer is not None and seconds:
            self.tracer.span(name, cat=CAT_PHASE, ts=ts, dur=seconds, node=node)

    def add_local_compute(
        self, profile: ComputeProfile, ts: float = 0.0, node: Optional[int] = None
    ) -> None:
        """One forward/backward/gpu_copy block at its nominal times.

        The three spans tile the ``local_compute_s`` timeout back-to-back.
        """
        for name, dur in (
            ("forward", profile.forward_s),
            ("backward", profile.backward_s),
            ("gpu_copy", profile.gpu_copy_s),
        ):
            self.add(name, dur, node, ts)
            ts += dur

    def close(self, total_s: float) -> PhaseTimes:
        """The run's row: attributed sums, the rest of ``total_s`` communicating."""
        attributed = sum(self.seconds.values())
        return PhaseTimes(
            communicate=max(0.0, total_s - attributed), **self.seconds
        )


def block_sizes(total: int, num_blocks: int) -> List[int]:
    """Element counts of Algorithm 1's near-equal contiguous blocks.

    The single source of truth for reduce-scatter block sizes: the
    first ``total % num_blocks`` blocks carry one extra element — the
    same layout ``np.array_split`` produces.  Both the functional
    :func:`partition_blocks` and the timing-only
    :func:`repro.distributed.ring.ring_exchange_sizes` derive from it.
    """
    if num_blocks < 1:
        raise ValueError("need at least one block")
    if total < 0:
        raise ValueError("total cannot be negative")
    base, rem = divmod(total, num_blocks)
    return [base + (1 if b < rem else 0) for b in range(num_blocks)]


def partition_blocks(vector: np.ndarray, num_blocks: int) -> List[np.ndarray]:
    """Algorithm 1 line 8: split ``g`` evenly into N blocks.

    Contiguous views with the :func:`block_sizes` layout (sizes differ
    by at most one) — of ``vector`` itself when it already is a flat
    float32 array, so writing a block writes ``vector``; the ring
    exchange hands in the one copy it reduces in place.
    """
    flat = np.ascontiguousarray(vector, dtype=np.float32).reshape(-1)
    sizes = block_sizes(flat.size, num_blocks)
    return np.split(flat, np.cumsum(sizes[:-1]))
