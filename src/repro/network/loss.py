"""Packet loss and retransmission modeling.

The baseline simulator assumes a lossless fabric (a fine assumption for
a healthy single-switch 10 GbE cluster, and what the paper's numbers
reflect).  For robustness studies we add Bernoulli per-train loss on
links plus a go-back-style retransmission layer with an RTO, so the
benches can ask how much loss the two algorithms tolerate before their
ordering changes.

Invariants: drop decisions come from a per-link seeded
``np.random.default_rng`` stream in link-local request order, so a
replay drops exactly the same trains; loss never reorders a flow (the
sender detects the drop one RTO after the expected delivery and resends
through the same FIFO route, and the endpoint reorder buffer restores
send order); retransmission accounting is observable (``trains_dropped``,
``packets_dropped``) rather than silent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LossModel:
    """Bernoulli train-loss configuration for a link."""

    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1), got {self.drop_probability}"
            )


@dataclass(frozen=True)
class RetransmitPolicy:
    """Sender-side recovery parameters."""

    #: Retransmission timeout: how long after the expected delivery time
    #: the sender waits before resending a lost train.
    rto_s: float = 200e-6
    #: Give up after this many attempts (None = retry forever).
    max_attempts: Optional[int] = 16

    def __post_init__(self) -> None:
        if not self.rto_s > 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError("RTO must be positive")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


class DeliveryFailure(RuntimeError):
    """A train exhausted its retransmission budget."""
