"""Cluster topologies: five wirings of one routing graph.

The evaluation cluster (Sec. VII-C) connects every node to one 10 GbE
switch (NETGEAR XS712T); the worker-aggregator tree and the INCEPTIONN
ring run *over the same star* — what differs is the traffic pattern, not
the cabling.  The paper's datacenter argument is about the tiers above
it, so the same graph also wires a direct ring (ablation), a two-tier
oversubscribed ToR + core fabric, and the Clos fabrics production
training shares with other tenants: a k-ary fat-tree (Al-Fares et al.,
SIGCOMM 2008) and a two-level leaf-spine.

:class:`Topology` is that graph — directed egress links keyed
``(u, v)`` — and the one place a route is resolved; each wiring is a
constructor that only adds edges.  :class:`MultiTierFabric` adds what is
Clos-specific: :class:`~repro.network.priority.PriorityLink` ports, the
reduction-tree walks and the switch-hosted aggregation engines.

Invariants this module maintains:

* **Shortest-path routing from precomputed tables.**  Construction runs
  one reverse BFS per destination host; ``next_hops[vertex][host]`` holds
  *every* successor on a shortest path, sorted by vertex id, so routing
  state is deterministic and insertion-order free.
* **Hosts never forward.**  The BFS does not expand through a host, so a
  route's interior vertices are all switches; on the direct ring that
  leaves exactly the successor routes, and everything else is a
  ``ValueError`` naming ``src -> dst``.
* **Deterministic per-flow ECMP.**  Among equal-cost next hops the pick
  is ``flow_hash(src, dst, tos, hop) % fanout``
  (:func:`repro.network.events.flow_hash` — splitmix64-based, so no
  Python ``hash()`` and no ``PYTHONHASHSEED`` dependence).  Every train
  of a flow takes the same path (no intra-flow reordering), replays are
  bit-identical, and path choice never depends on event order — the
  property ``repro sanitize`` verifies under perturbed tie-breaking.
* **FIFO delivery per flow.**  A :class:`Route` is fixed per
  ``(src, dst, tos)`` and loop-free, and every link serves FIFO (within
  a priority class), so a flow never overtakes itself in the fabric.
* **Link order is wiring order.**  ``all_links()`` lists links in the
  order the constructor wired them (Clos fabrics: sorted edge id); loss
  seeds are salted by that index, so the order is part of the model.
* **Simulated-time discipline.**  Hop timing comes from link
  bandwidth, the testbed's fixed link latency and one
  ``forwarding_delay_s`` between consecutive links (store-and-forward
  switch latency); construction and routing read only constructor
  arguments and those constants, never the host clock.

:func:`build_topology` is the one string-spec factory the CLI and
:class:`~repro.transport.endpoint.ClusterConfig` share
(``"fat-tree:k=4"``, ``"leaf-spine:spines=2,leaves=4,hosts=2"``,
``"two-tier:racks=2,hosts=2"``, ``"star"``, ``"ring"``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .events import Simulation, flow_hash
from .link import Link
from .packet import TOS_DEFAULT
from .priority import PriorityLink

if TYPE_CHECKING:
    from repro.hardware.aggregation_engine import AggregationEngine

#: Testbed: 10 GbE links (the one rate a run may vary), a few
#: microseconds of port-to-port latency on every link, store-and-forward
#: forwarding in every switch.  Latency and switch delay are constants.
DEFAULT_BANDWIDTH_BPS = 10e9
DEFAULT_LINK_LATENCY_S = 2e-6
DEFAULT_SWITCH_DELAY_S = 1e-6


@dataclass(frozen=True)
class Route:
    """The ordered links a packet traverses plus per-hop forwarding delay."""

    links: Tuple[Link, ...]
    forwarding_delay_s: float = 0.0

    def __post_init__(self) -> None:
        # Trains stage this delay unchecked; NaN would corrupt the heap.
        if not self.forwarding_delay_s >= 0:
            raise ValueError(f"negative forwarding delay: {self.forwarding_delay_s}")


class Topology:
    """The routing graph: owns hosts, egress links and next-hop tables.

    Wirings add directed edges with :meth:`_wire` during construction
    and finish with :meth:`_build_routes`.  Hosts are the integer node
    ids of the public contract, rendered ``"h<i>"`` in the graph;
    switches use wiring-chosen string ids.
    """

    #: Store-and-forward latency between consecutive links of a route.
    switch_delay_s = DEFAULT_SWITCH_DELAY_S

    def __init__(self, sim: Simulation, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError("a cluster needs at least two nodes")
        self.sim = sim
        self.num_nodes = num_nodes
        #: Directed edge (u, v) -> the egress link carrying u's traffic
        #: to v, in wiring order.
        self.links: Dict[Tuple[str, str], Link] = {}
        #: vertex -> destination host -> sorted equal-cost next hops.
        self._next_hops: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        #: (src, dst, tos) -> resolved route.  The graph is immutable
        #: once built, so a flow's route is resolved once.
        self._routes: Dict[Tuple[int, int, int], Route] = {}

    @staticmethod
    def host_id(node: int) -> str:
        """Graph id of integer host ``node``."""
        return f"h{node}"

    def _wire(self, u: str, v: str, link: Link) -> None:
        """Add ``link`` as the egress port carrying ``u``'s traffic to ``v``."""
        if (u, v) in self.links:
            raise ValueError(f"duplicate edge {u}->{v}")
        self.links[(u, v)] = link

    def _link(self, bandwidth_bps: float, name: str) -> Link:
        """A FIFO link at ``bandwidth_bps`` with the testbed's latency."""
        return Link(self.sim, bandwidth_bps, DEFAULT_LINK_LATENCY_S, name=name)

    def _build_routes(self) -> None:
        """One reverse BFS per destination host fills the next-hop tables."""
        successors: Dict[str, List[str]] = {}
        predecessors: Dict[str, List[str]] = {}
        for u, v in self.links:
            successors.setdefault(u, []).append(v)
            predecessors.setdefault(v, []).append(u)
        hosts = {self.host_id(node) for node in range(self.num_nodes)}
        for node in range(self.num_nodes):
            target = self.host_id(node)
            if target not in predecessors:
                raise ValueError(f"host {target} is not wired to any switch")
            distance: Dict[str, int] = {target: 0}
            frontier = deque([target])
            while frontier:
                current = frontier.popleft()
                for neighbor in predecessors.get(current, ()):
                    if neighbor not in distance:
                        distance[neighbor] = distance[current] + 1
                        if neighbor not in hosts:  # hosts never forward
                            frontier.append(neighbor)
            for vertex, dist in distance.items():
                if vertex == target:
                    continue
                nexts = tuple(
                    sorted(
                        neighbor
                        for neighbor in successors[vertex]
                        if distance.get(neighbor, -1) == dist - 1
                        and (neighbor == target or neighbor not in hosts)
                    )
                )
                self._next_hops.setdefault(vertex, {})[target] = nexts

    def route(self, src: int, dst: int, tos: int = TOS_DEFAULT) -> Route:
        """Resolve the links a ``src -> dst`` flow traverses.

        Hop-by-hop shortest path; ``tos`` identifies the flow's traffic
        class and is hashed into the pick among equal-cost next hops, so
        distinct streams between the same hosts can spread over
        equal-cost paths (see the module docstring).  Resolved once per
        ``(src, dst, tos)``: later calls return the same :class:`Route`.
        """
        cached = self._routes.get((src, dst, tos))
        if cached is not None:
            return cached
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        current = self.host_id(src)
        if target not in self._next_hops.get(current, ()):
            raise ValueError(
                f"{type(self).__name__} has no route {src} -> {dst} "
                "(hosts never forward)"
            )
        links: List[Link] = []
        while current != target:
            choices = self._next_hops[current][target]
            pick = choices[flow_hash(src, dst, tos, len(links)) % len(choices)]
            links.append(self.links[(current, pick)])
            current = pick
        route = Route(links=tuple(links), forwarding_delay_s=self.switch_delay_s)
        self._routes[(src, dst, tos)] = route
        return route

    def all_links(self) -> List[Link]:
        """Every link in the fabric, in wiring order."""
        return list(self.links.values())

    def _check_endpoints(self, src: int, dst: int) -> None:
        for node in (src, dst):
            if not 0 <= node < self.num_nodes:
                raise ValueError(f"node {node} outside [0, {self.num_nodes})")
        if src == dst:
            raise ValueError("src and dst must differ")


class SwitchedStar(Topology):
    """Every node connects to one store-and-forward switch.

    A message src -> dst crosses the src uplink then the dst downlink.
    Contention appears when several sources target the same destination:
    their streams queue FIFO on the destination's downlink — the
    aggregator-bottleneck effect of Fig 15.
    """

    def __init__(
        self,
        sim: Simulation,
        num_nodes: int,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        super().__init__(sim, num_nodes)
        for node in range(num_nodes):
            link = self._link(bandwidth_bps, f"n{node}->sw")
            self._wire(self.host_id(node), "sw", link)
        for node in range(num_nodes):
            link = self._link(bandwidth_bps, f"sw->n{node}")
            self._wire("sw", self.host_id(node), link)
        self._build_routes()


class DirectRing(Topology):
    """Nodes wired directly to their ring successor (ablation topology).

    Only neighbor routes exist — hosts never forward — and the
    INCEPTIONN algorithm never needs anything else.
    """

    #: No switch between neighbours.
    switch_delay_s = 0.0

    def __init__(
        self,
        sim: Simulation,
        num_nodes: int,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        super().__init__(sim, num_nodes)
        for node in range(num_nodes):
            successor = (node + 1) % num_nodes
            link = self._link(bandwidth_bps, f"n{node}->n{successor}")
            self._wire(self.host_id(node), self.host_id(successor), link)
        self._build_routes()


class TwoTierFabric(Topology):
    """Racks of nodes under ToR switches joined by a core switch.

    The paper motivates its 10 GbE assumption with real datacenter
    designs: 1-10 Gb/s within a rack, with *oversubscribed* uplinks
    between top-of-rack (ToR) switches.  A message inside one rack
    crosses node->ToR->node.  A cross-rack message crosses
    node->ToR->core->ToR->node, where the ToR->core and core->ToR hops
    run at ``edge_bandwidth / oversubscription`` — so cross-rack traffic
    contends on the uplinks and algorithm placement (rings within racks
    vs across them) becomes measurable.  Single-path: every
    ``(src, dst)`` pair has exactly one route.
    """

    def __init__(
        self,
        sim: Simulation,
        num_racks: int,
        nodes_per_rack: int,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        oversubscription: float = 4.0,
    ) -> None:
        if num_racks < 1 or nodes_per_rack < 1:
            raise ValueError("need at least one rack with one node")
        if oversubscription < 1.0:
            raise ValueError("oversubscription factor must be >= 1")
        super().__init__(sim, num_racks * nodes_per_rack)
        self.num_racks = num_racks
        self.nodes_per_rack = nodes_per_rack
        self.oversubscription = oversubscription
        uplink_bandwidth = bandwidth_bps * nodes_per_rack / oversubscription
        for node in range(self.num_nodes):
            link = self._link(bandwidth_bps, f"n{node}->tor")
            self._wire(self.host_id(node), f"tor{self.rack_of(node)}", link)
        for node in range(self.num_nodes):
            link = self._link(bandwidth_bps, f"tor->n{node}")
            self._wire(f"tor{self.rack_of(node)}", self.host_id(node), link)
        for rack in range(num_racks):
            link = self._link(uplink_bandwidth, f"tor{rack}->core")
            self._wire(f"tor{rack}", "core", link)
        for rack in range(num_racks):
            link = self._link(uplink_bandwidth, f"core->tor{rack}")
            self._wire("core", f"tor{rack}", link)
        self._build_routes()

    def rack_of(self, node: int) -> int:
        return node // self.nodes_per_rack


def rack_aligned_ring_order(fabric: TwoTierFabric) -> List[int]:
    """Node order that keeps ring neighbours rack-local where possible.

    Consecutive ring positions within a rack use only edge links; only
    one hop per rack pair crosses the oversubscribed core — the natural
    placement for Algorithm 1 on a two-tier fabric.
    """
    return list(range(fabric.num_nodes))


def rack_interleaved_ring_order(fabric: TwoTierFabric) -> List[int]:
    """Adversarial order: every ring hop crosses racks (worst case)."""
    order: List[int] = []
    for offset in range(fabric.nodes_per_rack):
        for rack in range(fabric.num_racks):
            order.append(rack * fabric.nodes_per_rack + offset)
    return order


class MultiTierFabric(Topology):
    """Clos fabrics: priority-queued ports, reduction trees, switch engines.

    Subclasses wire switches with :meth:`_add_duplex` and finish with
    :meth:`_build_routes`.
    """

    def __init__(self, sim: Simulation, num_nodes: int) -> None:
        super().__init__(sim, num_nodes)
        #: Fabric vertex -> hosted in-network aggregation engine
        #: (see :meth:`aggregation_engine`).
        self.aggregation_engines: Dict[str, "AggregationEngine"] = {}

    def _add_duplex(self, u: str, v: str, bandwidth_bps: float) -> None:
        """Wire ``u`` and ``v`` with one priority-queued link per direction."""
        for a, b in ((u, v), (v, u)):
            port = PriorityLink(
                self.sim, bandwidth_bps, DEFAULT_LINK_LATENCY_S, name=f"{a}->{b}"
            )
            self._wire(a, b, port)

    def tree_path(self, src: int, dst: int) -> Tuple[str, ...]:
        """Deterministic reduction-tree walk from ``src`` to ``dst``.

        Unlike :meth:`route`, which hashes per flow — so paths from
        different sources diverge again downstream of a merge point —
        this walk always takes the *first* sorted next hop.  Every
        source converging on ``dst`` therefore shares path suffixes,
        which is exactly the spanning tree an in-network reduction
        wants (SwitchML-style).  Returns the vertex ids walked,
        endpoints included.
        """
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        current = self.host_id(src)
        path = [current]
        while current != target:
            current = self._next_hops[current][target][0]
            path.append(current)
        return tuple(path)

    def segment_route(self, vertices: Sequence[str]) -> Route:
        """The :class:`Route` along consecutive fabric ``vertices``."""
        if len(vertices) < 2:
            raise ValueError("a route segment needs at least two vertices")
        links: List[Link] = []
        for a, b in zip(vertices, vertices[1:]):
            link = self.links.get((a, b))
            if link is None:
                raise ValueError(f"no fabric edge {a}->{b}")
            links.append(link)
        return Route(
            links=tuple(links), forwarding_delay_s=self.switch_delay_s
        )

    def aggregation_engine(
        self, vertex: str, factory: Callable[[], "AggregationEngine"]
    ) -> "AggregationEngine":
        """The aggregation engine hosted at ``vertex`` (get-or-create).

        Switch vertices host the in-network reduction engines; the
        aggregating endpoint's host vertex may host one too (its
        NIC-side adder).  Created lazily via ``factory`` so fabrics pay
        nothing until a switch-site gather runs.
        """
        if vertex not in self._next_hops:
            raise ValueError(f"unknown fabric vertex {vertex!r}")
        engine = self.aggregation_engines.get(vertex)
        if engine is None:
            engine = factory()
            self.aggregation_engines[vertex] = engine
        return engine

    def ecmp_path_count(self, src: int, dst: int) -> int:
        """Number of distinct shortest paths between two hosts."""
        self._check_endpoints(src, dst)
        target = self.host_id(dst)
        memo: Dict[str, int] = {target: 1}

        def count(vertex: str) -> int:
            if vertex not in memo:
                memo[vertex] = sum(
                    count(nxt) for nxt in self._next_hops[vertex][target]
                )
            return memo[vertex]

        return count(self.host_id(src))

    def path_length(self, src: int, dst: int) -> int:
        """Link count of the shortest path between two hosts."""
        return len(self.route(src, dst).links)

    def all_links(self) -> List[Link]:
        """Every port link, in deterministic (sorted edge id) order."""
        return [self.links[edge] for edge in sorted(self.links)]


class FatTree(MultiTierFabric):
    """A k-ary fat-tree: k pods of k/2 edge + k/2 aggregation switches.

    ``(k/2)^2`` core switches give full bisection bandwidth and
    ``k^3/4`` host ports.  Inter-pod host pairs see ``(k/2)^2``
    equal-cost paths; intra-pod pairs under different edge switches see
    ``k/2``.  All links run at ``bandwidth_bps`` — the fat-tree's
    defining property is that no tier is oversubscribed.
    """

    def __init__(
        self,
        sim: Simulation,
        k: int = 4,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        if k < 2 or k % 2:
            raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
        half = k // 2
        super().__init__(sim, k * half * half)
        self.k = k
        for pod in range(k):
            for edge in range(half):
                edge_id = f"p{pod}e{edge}"
                for agg in range(half):
                    self._add_duplex(edge_id, f"p{pod}a{agg}", bandwidth_bps)
                for port in range(half):
                    host = self.host_id(pod * half * half + edge * half + port)
                    self._add_duplex(host, edge_id, bandwidth_bps)
            for agg in range(half):
                agg_id = f"p{pod}a{agg}"
                for up in range(half):
                    self._add_duplex(agg_id, f"c{agg * half + up}", bandwidth_bps)
        self._build_routes()

    def pod_of(self, node: int) -> int:
        """Pod index of host ``node``."""
        half = self.k // 2
        return node // (half * half)


class LeafSpine(MultiTierFabric):
    """A two-level leaf-spine: every leaf connects to every spine.

    Hosts under different leaves see ``num_spines`` equal-cost paths.
    Every port, leaf<->spine included, runs at ``bandwidth_bps``; more
    than ``num_spines`` hosts per leaf oversubscribe the uplink tier.
    """

    def __init__(
        self,
        sim: Simulation,
        num_spines: int = 2,
        num_leaves: int = 2,
        hosts_per_leaf: int = 2,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
    ) -> None:
        if num_spines < 1 or num_leaves < 1 or hosts_per_leaf < 1:
            raise ValueError("leaf-spine needs >=1 spine, leaf and host/leaf")
        super().__init__(sim, num_leaves * hosts_per_leaf)
        self.num_spines = num_spines
        self.num_leaves = num_leaves
        self.hosts_per_leaf = hosts_per_leaf
        for leaf in range(num_leaves):
            leaf_id = f"l{leaf}"
            for port in range(hosts_per_leaf):
                host = self.host_id(leaf * hosts_per_leaf + port)
                self._add_duplex(host, leaf_id, bandwidth_bps)
            for spine in range(num_spines):
                self._add_duplex(leaf_id, f"s{spine}", bandwidth_bps)
        self._build_routes()

    def leaf_of(self, node: int) -> int:
        """Leaf index of host ``node``."""
        return node // self.hosts_per_leaf


def parse_topology_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """Split ``"kind:key=value,..."`` into ``(kind, params)``."""
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    if not kind:
        raise ValueError(f"empty topology spec {spec!r}")
    params: Dict[str, float] = {}
    if rest:
        for part in rest.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ValueError(
                    f"topology parameter {part!r} is not key=value (in {spec!r})"
                )
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise ValueError(
                    f"topology parameter {name!r} needs a finite number, "
                    f"got {value!r}"
                )
            params[name] = number
    return kind, params


def build_topology(
    spec: Optional[str],
    sim: Simulation,
    num_nodes: int,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
) -> Topology:
    """Build the fabric a spec string describes, sized for ``num_nodes``.

    ``None`` and ``"star"`` produce the paper's single switched star
    (the bit-exact degenerate single-tier case).  Multi-tier kinds build
    their full host complement — at least ``num_nodes`` ports, with any
    spare hosts available to background tenants.  Count parameters
    (``k``, ``spines``, ``leaves``, ``hosts``, ``racks``) must be
    integers >= 1:

    ========================  ==============================================
    ``star``                  one switch, ``num_nodes`` ports (the default)
    ``ring``                  direct successor wiring (ablation)
    ``fat-tree:k=4``          k-ary fat-tree, ``k^3/4`` hosts
    ``leaf-spine:spines=2,``  ``leaves x hosts`` ports, ``spines`` ECMP
    ``leaves=2,hosts=2``      paths between leaves
    ``two-tier:racks=2,``     oversubscribed ToR + core
    ``hosts=2,oversub=4``     (:class:`TwoTierFabric`)
    ========================  ==============================================
    """
    kind, params = parse_topology_spec(spec if spec is not None else "star")

    def count(name: str, default: int) -> int:
        value = params.pop(name, default)
        if value < 1 or value != int(value):
            raise ValueError(
                f"{kind} topology parameter {name!r} must be an integer "
                f">= 1, got {value:g}"
            )
        return int(value)

    topology: Topology
    if kind == "star":
        topology = SwitchedStar(sim, num_nodes, bandwidth_bps=bandwidth_bps)
    elif kind == "ring":
        topology = DirectRing(sim, num_nodes, bandwidth_bps=bandwidth_bps)
    elif kind == "fat-tree":
        topology = FatTree(sim, k=count("k", 4), bandwidth_bps=bandwidth_bps)
    elif kind == "leaf-spine":
        hosts_per_leaf = count("hosts", 2)
        topology = LeafSpine(
            sim,
            num_spines=count("spines", 2),
            num_leaves=count("leaves", max(2, -(-num_nodes // hosts_per_leaf))),
            hosts_per_leaf=hosts_per_leaf,
            bandwidth_bps=bandwidth_bps,
        )
    elif kind == "two-tier":
        nodes_per_rack = count("hosts", 2)
        topology = TwoTierFabric(
            sim,
            num_racks=count("racks", max(2, -(-num_nodes // nodes_per_rack))),
            nodes_per_rack=nodes_per_rack,
            bandwidth_bps=bandwidth_bps,
            oversubscription=params.pop("oversub", 4.0),
        )
    else:
        raise ValueError(
            f"unknown topology kind {kind!r} "
            "(star, ring, fat-tree, leaf-spine, two-tier)"
        )
    if params:
        unknown = ", ".join(sorted(params))
        raise ValueError(f"unknown {kind} topology parameters: {unknown}")
    if topology.num_nodes < num_nodes:
        raise ValueError(
            f"{kind} topology has {topology.num_nodes} host ports, "
            f"but the cluster needs {num_nodes}"
        )
    return topology
