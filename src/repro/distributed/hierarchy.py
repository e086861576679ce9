"""Hierarchical composition of the gradient-centric algorithm (Fig 1c).

The worker group is the paper's building block; at scale, groups compose
hierarchically.  This module implements the two-level variant: each leaf
group ring-aggregates its members' gradients, the group leaders form a
second-level ring over the group-aggregated gradients, and leaders then
broadcast the global aggregate back into their groups.  Every leg is a
*gradient* leg, so everything stays compressible.

The schedule is a :class:`~repro.distributed.strategy.GradientStrategy`
plugin (``"hierarchy"``, configured through ``options={"layout": ...}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

import numpy as np

from repro.network import Event
from repro.obs import CAT_HIER
from repro.transport.endpoint import ClusterComm
from repro.transport.wire import Payload

from .ring import ring_exchange
from .strategy import (
    GradientStrategy,
    NodeContext,
    StrategyRun,
    StrategyUpdate,
    register_strategy,
)


@dataclass(frozen=True)
class GroupLayout:
    """Partition of cluster nodes into equal leaf groups."""

    groups: "tuple[tuple[int, ...], ...]"

    @classmethod
    def even(cls, num_nodes: int, group_size: int) -> "GroupLayout":
        if group_size < 2:
            raise ValueError("groups need at least two members")
        if num_nodes % group_size:
            raise ValueError(
                f"{num_nodes} nodes do not divide into groups of {group_size}"
            )
        groups = tuple(
            tuple(range(start, start + group_size))
            for start in range(0, num_nodes, group_size)
        )
        return cls(groups=groups)

    @property
    def num_nodes(self) -> int:
        return sum(len(group) for group in self.groups)

    @property
    def leaders(self) -> "tuple[int, ...]":
        """First member of each group participates in the upper ring."""
        return tuple(group[0] for group in self.groups)

    def group_of(self, node: int) -> "tuple[int, ...]":
        for group in self.groups:
            if node in group:
                return group
        raise ValueError(f"node {node} not in any group")


def hierarchical_exchange(
    comm: ClusterComm,
    node: int,
    vector: Payload,
    layout: GroupLayout,
) -> Generator[Event, Any, Any]:
    """Two-level gradient exchange for one node; returns the global sum.

    Level 1: ring inside the leaf group.  Level 2: leaders ring over the
    group sums.  Level 3: leaders send the global aggregate to their
    group members (a gradient broadcast — still on the compressed
    stream).  Every leg rides the cluster's gradient stream.  The
    ledger counts node 0's sums in every ring it is in (both, as a leader).
    A :class:`~repro.transport.wire.SizedPayload` times the schedule on
    sizes alone; a member then receives the broadcast's size.
    """
    group = layout.group_of(node)
    leader = group[0]
    tracer = comm.tracer
    ep = comm.endpoints[node]

    level1_start = comm.sim.now
    group_sum = yield from ring_exchange(ep, vector, group)
    if tracer is not None:
        tracer.span(
            "hier.group_ring",
            cat=CAT_HIER,
            ts=level1_start,
            dur=comm.sim.now - level1_start,
            node=node,
            group_size=len(group),
        )

    leaders = layout.leaders
    if len(leaders) == 1:
        return group_sum

    if node == leader:
        level2_start = comm.sim.now
        global_sum = yield from ring_exchange(ep, group_sum, leaders)
        if tracer is not None:
            tracer.span(
                "hier.leader_ring",
                cat=CAT_HIER,
                ts=level2_start,
                dur=comm.sim.now - level2_start,
                node=node,
                num_leaders=len(leaders),
            )
        bcast_start = comm.sim.now
        events = [
            ep.isend(member, global_sum, profile=comm.config.profile)
            for member in group[1:]
        ]
        if events:
            yield comm.sim.all_of(events)
            if tracer is not None:
                tracer.span(
                    "hier.broadcast",
                    cat=CAT_HIER,
                    ts=bcast_start,
                    dur=comm.sim.now - bcast_start,
                    node=node,
                    fanout=len(events),
                )
        return global_sum

    global_sum = yield ep.recv(leader)
    return global_sum


@register_strategy
class HierarchyStrategy(GradientStrategy):
    """Two-level ring-of-rings schedule (paper Fig 1c)."""

    name = "hierarchy"
    description = (
        "Leaf-group rings, a leader ring over group sums, and a "
        "gradient broadcast back — all legs compressible."
    )
    splits_blocks = True

    def setup(self, run: StrategyRun) -> None:
        layout = run.options.get("layout")
        if layout is None:
            group_size = int(run.options.get("group_size", 2))
            layout = GroupLayout.even(run.num_workers, group_size)
        if layout.num_nodes != run.num_workers:
            raise ValueError(
                f"layout covers {layout.num_nodes} nodes, "
                f"run has {run.num_workers} workers"
            )
        self._layout = layout

    def exchange(
        self, node: NodeContext, iteration: int, gradient: np.ndarray
    ) -> Generator[Event, Any, StrategyUpdate]:
        aggregate = yield from hierarchical_exchange(
            node.run.comm, node.node_id, gradient, self._layout
        )
        return StrategyUpdate(gradient=aggregate)

