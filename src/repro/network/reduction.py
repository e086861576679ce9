"""Reduction trees over multi-tier fabrics for in-network aggregation.

A switch-site gather does not route every gradient stream end-to-end;
it moves payloads along the *spanning tree* that
:meth:`~repro.network.topology.MultiTierFabric.tree_path` induces
toward the aggregation root, folding streams together wherever the tree
merges.  This module turns that tree into an explicit, deterministic
:class:`ReductionPlan`:

* a **stage** per merge vertex (fan-in >= 2) plus one final stage at
  the root host — each stage is where a partial sum forms and an
  :class:`~repro.hardware.aggregation_engine.AggregationEngine` runs;
* an **input** per incoming tree edge, carrying the fabric vertex walk
  from the child (a contributing host or a deeper stage) up to the
  stage vertex — the route segment its payload travels;
* a global **segment index** per input, the deterministic identity the
  network layer uses for same-instant link arbitration, so reduction
  traffic can never race on event-callback order.

Stages are ordered deepest-first (then by vertex id), so iterating
``plan.stages`` is a valid bottom-up schedule and the last stage is
always the root's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .topology import MultiTierFabric


@dataclass(frozen=True)
class ReduceInput:
    """One incoming tree edge of a reduce stage.

    Exactly one of ``host`` (a contributing worker) and ``stage`` (a
    deeper stage's output) is set.  ``vertices`` is the fabric walk from
    the child vertex up to and including the stage vertex; ``segment``
    is the plan-global index of this edge.
    """

    host: Optional[int]
    stage: Optional[int]
    vertices: Tuple[str, ...]
    segment: int


@dataclass(frozen=True)
class ReduceStage:
    """One merge point of the reduction tree."""

    index: int
    vertex: str
    inputs: Tuple[ReduceInput, ...]

    @property
    def fan_in(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class ReductionPlan:
    """The full reduction tree from ``sources`` into host ``root``."""

    root: int
    sources: Tuple[int, ...]
    stages: Tuple[ReduceStage, ...]

    @property
    def num_segments(self) -> int:
        """Total route segments (one per stage input)."""
        return sum(len(stage.inputs) for stage in self.stages)

    @property
    def switch_stages(self) -> Tuple[ReduceStage, ...]:
        """Stages at fabric switches (every stage but the root's)."""
        return self.stages[:-1]

    @property
    def root_stage(self) -> ReduceStage:
        """The final combine at the root host (always last)."""
        return self.stages[-1]


def build_reduction_plan(
    fabric: MultiTierFabric, sources: Sequence[int], root: int
) -> ReductionPlan:
    """Build the deterministic reduction tree for ``sources`` -> ``root``.

    The tree is the union of first-sorted-next-hop walks
    (:meth:`MultiTierFabric.tree_path`); merge vertices become stages.
    Everything — stage order, input order, segment indices — is a pure
    function of ``(fabric wiring, sources, root)``.
    """
    ordered_sources = tuple(sorted(set(int(s) for s in sources)))
    if not ordered_sources:
        raise ValueError("a reduction needs at least one source")
    if root in ordered_sources:
        raise ValueError(f"root {root} cannot also be a reduction source")

    root_vertex = fabric.host_id(root)
    parent: Dict[str, str] = {}
    children: Dict[str, Set[str]] = {}
    depth: Dict[str, int] = {root_vertex: 0}
    for src in ordered_sources:
        path = fabric.tree_path(src, root)
        hops = len(path)
        for pos, vertex in enumerate(path[:-1]):
            depth[vertex] = hops - 1 - pos
            nxt = path[pos + 1]
            parent[vertex] = nxt
            children.setdefault(nxt, set()).add(vertex)

    merge_vertices = {
        vertex for vertex, kids in children.items() if len(kids) >= 2
    }
    merge_vertices.add(root_vertex)
    ordered_vertices = sorted(
        merge_vertices, key=lambda vertex: (-depth[vertex], vertex)
    )
    index_of = {vertex: i for i, vertex in enumerate(ordered_vertices)}

    pending: Dict[str, List[Tuple[Optional[int], Optional[str], Tuple[str, ...]]]] = {}

    def climb(start: str) -> Tuple[str, Tuple[str, ...]]:
        """Walk from ``start`` up to the next merge vertex."""
        walk = [start]
        current = start
        while current != root_vertex:
            current = parent[current]
            walk.append(current)
            if current in merge_vertices:
                break
        return current, tuple(walk)

    for src in ordered_sources:
        stop, walk = climb(fabric.host_id(src))
        pending.setdefault(stop, []).append((src, None, walk))
    for vertex in ordered_vertices:
        if vertex == root_vertex:
            continue
        stop, walk = climb(vertex)
        pending.setdefault(stop, []).append((None, vertex, walk))

    def input_key(
        entry: Tuple[Optional[int], Optional[str], Tuple[str, ...]]
    ) -> Tuple[int, int]:
        host, child_vertex, _walk = entry
        if host is not None:
            return (0, host)
        assert child_vertex is not None
        return (1, index_of[child_vertex])

    stages: List[ReduceStage] = []
    segment = 0
    for index, vertex in enumerate(ordered_vertices):
        inputs: List[ReduceInput] = []
        for host, child_vertex, walk in sorted(
            pending.get(vertex, []), key=input_key
        ):
            inputs.append(
                ReduceInput(
                    host=host,
                    stage=(
                        index_of[child_vertex]
                        if child_vertex is not None
                        else None
                    ),
                    vertices=walk,
                    segment=segment,
                )
            )
            segment += 1
        if not inputs:
            raise ValueError(f"merge vertex {vertex!r} collected no inputs")
        stages.append(
            ReduceStage(index=index, vertex=vertex, inputs=tuple(inputs))
        )

    return ReductionPlan(
        root=root, sources=ordered_sources, stages=tuple(stages)
    )
