"""Multi-tenant background traffic sharing the simulated fabric.

Datacenter fabrics carry many jobs at once; this module injects the two
competitor shapes the contention study needs against the foreground
training job: a second training job (ring-neighbor gradient bursts,
bandwidth-bound) and inference-style serving (request/response pairs,
latency-bound).  Each tenant's flows carry a dedicated ToS byte, so
per-ToS prioritization at :class:`~repro.network.priority.PriorityLink`
queues can protect (or not) the foreground stream — the Fig 15-style
contention sweep of the ``exchange_packet`` perfbench workload.

Invariants this module maintains:

* **Seeded randomness only.**  Inference think times draw from
  ``np.random.default_rng([seed, tenant, flow])``; replays are
  bit-identical (the lint R9 discipline).
* **Disjoint host placement.**  Tenants occupy fabric host ports at and
  above ``first_host``; the foreground job's ports ``[0, first_host)``
  are never reused, and construction fails loudly when the fabric lacks
  capacity.
* **Deterministic flows.**  All traffic goes through
  :meth:`Network.send <repro.network.simulator.Network.send>`, so every
  train gets the same per-flow arbitration keys and ECMP paths as
  foreground traffic — background load never introduces event-order
  races.
* **Bounded lifetime.**  Generators loop until :meth:`BackgroundTraffic.stop`
  is called (when the foreground workload completes); in-flight messages
  then drain and the simulation terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

import numpy as np

from .events import Event
from .priority import PRIORITY_LOW
from .simulator import Network

#: ToS byte carried by background training-job gradients (raw: no codec
#: claims it, so tenant traffic never enters the NIC engines).
TOS_TENANT_TRAIN = 0x08
#: ToS byte carried by inference request/response traffic.
TOS_TENANT_INFER = 0x10

#: Inference request size (a batched embedding lookup, roughly).
INFER_REQUEST_BYTES = 2_000
#: Inference response size (logits/activations back to the caller).
INFER_RESPONSE_BYTES = 500_000
#: Background training-job per-hop gradient block.
TRAIN_BLOCK_BYTES = 2_000_000


@dataclass(frozen=True)
class TenantSpec:
    """One background tenant: its shape, placement size and priority.

    ``kind`` is ``"train"`` (ring-neighbor gradient bursts) or
    ``"infer"`` (request/response pairs between client and server
    halves).  ``priority`` is the class its ToS maps to when the fabric
    prioritizes (:data:`~repro.network.priority.PRIORITY_LOW` by
    default — background traffic yields to the foreground job).
    """

    kind: str
    hosts: int = 4
    tos: int = TOS_TENANT_TRAIN
    priority: int = PRIORITY_LOW
    #: Bytes per message (train: gradient block; infer: response).
    nbytes: int = TRAIN_BLOCK_BYTES
    #: Mean think time between an inference flow's request pairs
    #: (exponentially distributed); unused by train tenants, which send
    #: back-to-back.
    think_s: float = 2e-4

    def __post_init__(self) -> None:
        if self.kind not in ("train", "infer"):
            raise ValueError(
                f"tenant kind must be 'train' or 'infer', got {self.kind!r}"
            )
        if self.hosts < 2:
            raise ValueError(
                f"a {self.kind} tenant needs at least 2 hosts, got {self.hosts}"
            )
        if self.nbytes <= 0:
            raise ValueError("tenant nbytes must be positive")


def parse_tenants(spec: str) -> Tuple[TenantSpec, ...]:
    """Parse a ``--tenants`` string like ``"train:4,infer:8"``.

    Comma-separated ``kind[:hosts]`` entries; ``hosts`` defaults to 4.
    ``train`` tenants default to ToS :data:`TOS_TENANT_TRAIN` and
    2 MB gradient blocks, ``infer`` tenants to :data:`TOS_TENANT_INFER`
    and 500 kB responses.
    """
    tenants: List[TenantSpec] = []
    for part in spec.split(","):
        kind, _, count = part.strip().partition(":")
        kind = kind.strip().lower()
        try:
            hosts = int(count) if count else 4
        except ValueError:
            raise ValueError(
                f"tenant host count must be an integer, got {count!r}"
            ) from None
        if kind == "train":
            tenants.append(TenantSpec(kind="train", hosts=hosts))
        elif kind == "infer":
            tenants.append(
                TenantSpec(
                    kind="infer",
                    hosts=hosts,
                    tos=TOS_TENANT_INFER,
                    nbytes=INFER_RESPONSE_BYTES,
                )
            )
        else:
            raise ValueError(
                f"unknown tenant kind {kind!r} in {spec!r} (train, infer)"
            )
    if not tenants:
        raise ValueError(f"no tenants in spec {spec!r}")
    return tuple(tenants)


class BackgroundTraffic:
    """Competing tenant flows injected into an existing :class:`Network`.

    Placement is contiguous from ``first_host`` upward in spec order;
    per-tenant message/byte counters accumulate until the foreground
    workload stops the generators.
    """

    def __init__(
        self,
        network: Network,
        tenants: Sequence[TenantSpec],
        first_host: int,
        seed: int = 0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        self.network = network
        self.tenants = tuple(tenants)
        self.seed = seed
        self._stopped = False
        self._launched = False
        capacity = network.topology.num_nodes
        self.placements: List[Tuple[TenantSpec, List[int]]] = []
        cursor = first_host
        for tenant in self.tenants:
            hosts = list(range(cursor, cursor + tenant.hosts))
            cursor += tenant.hosts
            self.placements.append((tenant, hosts))
        if cursor > capacity:
            raise ValueError(
                f"tenants need {cursor - first_host} spare host ports but the "
                f"fabric has {max(0, capacity - first_host)} "
                f"({capacity} total, {first_host} reserved for the training "
                "job); pick a larger --topology"
            )
        #: Per-tenant-index message and payload-byte counters.
        self.messages_sent: Dict[int, int] = {
            index: 0 for index in range(len(self.tenants))
        }
        self.bytes_sent: Dict[int, int] = {
            index: 0 for index in range(len(self.tenants))
        }

    def launch(self) -> None:
        """Spawn every tenant's generator processes (idempotent)."""
        if self._launched:
            return
        self._launched = True
        for index, (tenant, hosts) in enumerate(self.placements):
            if tenant.kind == "train":
                for position in range(len(hosts)):
                    self.network.sim.process(
                        self._train_flow(index, tenant, hosts, position)
                    )
            else:
                half = len(hosts) // 2
                clients, servers = hosts[:half], hosts[half:]
                for flow, client in enumerate(clients):
                    server = servers[flow % len(servers)]
                    self.network.sim.process(
                        self._infer_flow(index, tenant, client, server, flow)
                    )

    def stop(self) -> None:
        """Ask every generator to exit after its in-flight message lands."""
        self._stopped = True

    @property
    def total_messages(self) -> int:
        """Background messages injected across all tenants."""
        return sum(self.messages_sent.values())

    @property
    def total_bytes(self) -> int:
        """Background payload bytes injected across all tenants."""
        return sum(self.bytes_sent.values())

    def _send(
        self, index: int, tenant: TenantSpec, src: int, dst: int, nbytes: int
    ) -> Event:
        """One counted background message on the tenant's ToS."""
        self.messages_sent[index] += 1
        self.bytes_sent[index] += nbytes
        return self.network.send(src, dst, nbytes, tos=tenant.tos)

    def _train_flow(
        self, index: int, tenant: TenantSpec, hosts: List[int], position: int
    ) -> Generator[Event, object, None]:
        """A second training job's ring leg: back-to-back gradient blocks."""
        src = hosts[position]
        dst = hosts[(position + 1) % len(hosts)]
        while not self._stopped:
            yield self._send(index, tenant, src, dst, tenant.nbytes)

    def _infer_flow(
        self,
        index: int,
        tenant: TenantSpec,
        client: int,
        server: int,
        flow: int,
    ) -> Generator[Event, object, None]:
        """One serving flow: small request up, large response back, think."""
        rng = np.random.default_rng([self.seed, index, flow])
        while not self._stopped:
            yield self._send(index, tenant, client, server, INFER_REQUEST_BYTES)
            yield self._send(index, tenant, server, client, tenant.nbytes)
            think = float(rng.exponential(tenant.think_s))
            if think > 0.0:
                yield self.network.sim.timeout(think)
