"""Table II phase rows, the compute that fills them, and the one ledger
that accumulates them."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

from .tracer import CAT_PHASE, Tracer


@dataclass(frozen=True)
class ComputeProfile:
    """Per-iteration local-computation times of one worker.

    These model the GPU/CPU side the paper measures in Table II; the
    calibrated instances in :mod:`repro.perfmodel.calibration` are
    derived from that table.  Gradient summation is bandwidth-style
    (time proportional to bytes) because it scales with how much data a
    node reduces, which differs between the WA and INCEPTIONN algorithms.
    A run's one copy is its cluster's ``ClusterComm.compute``.
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

    Time is recorded where it is spent: the simulated drivers add a row
    only through ``ClusterComm.spend``/``spend_local``, at the moment the
    timeout starts.  A row is what node 0 waited on:

    * node 0's own spends (every ring node 0 is in, by global node id);
    * every spend of a worker-aggregator's aggregator, a barrier;
    * a parameter server's work on node 0's own gradient.

    :meth:`close` folds the sums into a :class:`PhaseTimes` with
    Communicate as the residual of the run's total — the accounting of
    the paper's harness.  The ledger is the authority and *feeds* the
    nullable tracer one ``phase`` span per non-zero add, so span sums
    repeat its ``+=`` sequence bit for bit.  Sums accumulate in call
    order: repeated per-iteration adds, never ``iterations * x``.
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
        self,
        compute: ComputeProfile,
        ts: float = 0.0,
        node: Optional[int] = None,
        scale: float = 1.0,
    ) -> None:
        """One forward/backward/gpu_copy block, each ``scale`` (jitter) x nominal.

        The three spans tile the ``local_compute_s * scale`` timeout.
        """
        for name, dur in (
            ("forward", compute.forward_s * scale),
            ("backward", compute.backward_s * scale),
            ("gpu_copy", compute.gpu_copy_s * scale),
        ):
            self.add(name, dur, node, ts)
            ts += dur

    def close(self, total_s: float) -> PhaseTimes:
        """The run's row: attributed sums, the rest of ``total_s`` communicating."""
        attributed = sum(self.seconds.values())
        return PhaseTimes(
            communicate=max(0.0, total_s - attributed), **self.seconds
        )
