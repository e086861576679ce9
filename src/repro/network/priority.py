"""Strict-priority output-queued switch port for multi-tier fabrics.

Invariants this module maintains:

* **Non-preemptive strict priority.**  A :class:`PriorityLink` serves one
  train at a time; whenever the port frees, the waiting train with the
  numerically *lowest* priority class goes next.  A train already on the
  wire is never preempted, so a low-priority train delays higher classes
  by at most its own serialization time (the classic bounded
  head-of-line term of strict-priority schedulers).
* **FIFO within a class.**  Trains of equal priority are served in
  arrival order; the fabric never reorders a flow against itself.
* **Deterministic same-instant arbitration.**  Requests issued at the
  same simulated instant are collected until the instant drains (see
  :meth:`repro.network.events.Simulation.at_instant_end`) and admitted
  in ``(priority, key)`` order, so queue contents are a pure function of
  the workload — never of equal-timestamp callback order, which the
  determinism sanitizer deliberately perturbs.
* **Simulated-time discipline.**  All timing derives from
  ``Simulation.now`` and link parameters; no wall-clock reads, no
  unseeded randomness.

The plain :class:`~repro.network.link.Link` ignores priority entirely
(single-tier fabrics stay bit-exact); only multi-tier switch egress
ports honor it.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .events import Simulation
from .link import Link

#: Number of priority classes (IEEE 802.1p-style 3-bit code space).
PRIORITY_CLASSES = 8
#: Served first — latency-critical foreground traffic.
PRIORITY_HIGH = 0
#: The class unmapped ToS bytes fall into.
PRIORITY_DEFAULT = 4
#: Served last — scavenger-class background traffic.
PRIORITY_LOW = 7


def priority_class(priority: Optional[int]) -> int:
    """The class a train of ``priority`` queues in (``None``: default)."""
    cls = PRIORITY_DEFAULT if priority is None else priority
    if not 0 <= cls < PRIORITY_CLASSES:
        raise ValueError(f"priority must be in [0, {PRIORITY_CLASSES}), got {cls}")
    return cls


#: One admitted queue entry: ``(priority, admission seq, staged request)``.
_QueueEntry = Tuple[int, int, Tuple]


class PriorityLink(Link):
    """A switch egress port with per-class output queues.

    Drop-in :class:`~repro.network.link.Link` replacement used by the
    Clos fabrics of :mod:`repro.network.topology`: staging is inherited;
    this class overrides only *admission* — ``priority`` is honored,
    lower values first, ``None`` maps to :data:`PRIORITY_DEFAULT` — and
    *service*, one train at a time whenever the port frees.  With every
    request in one class the port is the plain link's FIFO discipline.
    """

    honors_priority = True

    def __init__(
        self,
        sim: Simulation,
        bandwidth_bps: float,
        latency_s: float,
        name: str = "",
    ) -> None:
        super().__init__(sim, bandwidth_bps, latency_s, name=name)
        #: Admitted trains waiting for the port, ordered by
        #: ``(priority, admission seq)``.
        self._queue: List[_QueueEntry] = []
        self._admitted = 0
        #: Whether a ``_finish_service`` wake-up is scheduled.
        self._waking = False

    def _arb_key(self, key: Optional[Tuple], priority: Optional[int]) -> Tuple:
        """Sort key ``(priority class, key)``."""
        return (priority_class(priority), tuple(key) if key is not None else ())

    def _grant_pending(self) -> None:
        """Admit this instant's requests in (priority, key) order, then serve.

        The port wakes at ``_free_at`` only while a train waits behind
        the one on the wire; a later arrival finds it idle.  A wake-up
        may find nothing to serve: an express plan took the waiting
        trains into its own (:mod:`repro.network.simulator`).
        """
        queue = self._queue
        for request in self._take_pending():
            self._admitted += 1
            heapq.heappush(queue, (request[0][0], self._admitted, request))
        if queue and not self.sim.now < self._free_at:
            # The port is idle, so the reservation starts now.
            self._grant((heapq.heappop(queue)[2],))
        if queue and not self._waking:
            self._waking = True
            self.sim.call_at(self._free_at, self._finish_service)

    def _finish_service(self) -> None:
        """Free the port; same-instant arrivals compete for the next slot."""
        self._waking = False
        if not self._arbitrating:
            self._arbitrating = True
            self.sim.at_instant_end(self._grant_pending)
