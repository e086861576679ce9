"""Table-driven wiring pins: link order and routes of the five spec kinds.

Every fabric is a wiring of the one :class:`repro.network.Topology`
graph, so what distinguishes them is data: which links exist, in which
``all_links()`` order (loss seeds are salted by that index), and which
link sequence a flow ``(src, dst, tos)`` crosses.  The names below were
recorded before the routing graphs were folded into one (PR 15).
"""

import pytest

from repro.network import MultiTierFabric, Simulation, build_topology

#: spec -> (all_links() names, {(src, dst, tos): route link names}),
#: built for 4 nodes.  Fat-tree link order is pinned by rule (sorted
#: edge id) plus its ends, the other four in full.
WIRINGS = {
    "star": (
        ["n0->sw", "n1->sw", "n2->sw", "n3->sw",
         "sw->n0", "sw->n1", "sw->n2", "sw->n3"],
        {
            (0, 1, 0x00): ["n0->sw", "sw->n1"],
            (3, 0, 0x28): ["n3->sw", "sw->n0"],
            (1, 2, 0x50): ["n1->sw", "sw->n2"],
        },
    ),
    "ring": (
        ["n0->n1", "n1->n2", "n2->n3", "n3->n0"],
        {
            (0, 1, 0x00): ["n0->n1"],
            (3, 0, 0x28): ["n3->n0"],
            (0, 2, 0x00): None,
            (2, 1, 0x50): None,
        },
    ),
    "two-tier": (
        ["n0->tor", "n1->tor", "n2->tor", "n3->tor",
         "tor->n0", "tor->n1", "tor->n2", "tor->n3",
         "tor0->core", "tor1->core", "core->tor0", "core->tor1"],
        {
            (0, 1, 0x00): ["n0->tor", "tor->n1"],
            (0, 3, 0x28): ["n0->tor", "tor0->core", "core->tor1", "tor->n3"],
            (2, 1, 0x50): ["n2->tor", "tor1->core", "core->tor0", "tor->n1"],
        },
    ),
    "leaf-spine": (
        ["h0->l0", "h1->l0", "h2->l1", "h3->l1",
         "l0->h0", "l0->h1", "l0->s0", "l0->s1",
         "l1->h2", "l1->h3", "l1->s0", "l1->s1",
         "s0->l0", "s0->l1", "s1->l0", "s1->l1"],
        {
            (0, 1, 0x00): ["h0->l0", "l0->h1"],
            (0, 2, 0x00): ["h0->l0", "l0->s1", "s1->l1", "l1->h2"],
            (0, 2, 0x28): ["h0->l0", "l0->s0", "s0->l1", "l1->h2"],
            (3, 0, 0x00): ["h3->l1", "l1->s1", "s1->l0", "l0->h0"],
        },
    ),
    "fat-tree:k=4": (
        None,
        {
            (0, 1, 0x00): ["h0->p0e0", "p0e0->h1"],
            (0, 2, 0x00): ["h0->p0e0", "p0e0->p0a1", "p0a1->p0e1", "p0e1->h2"],
            (0, 2, 0x28): ["h0->p0e0", "p0e0->p0a0", "p0a0->p0e1", "p0e1->h2"],
            (0, 4, 0x00): ["h0->p0e0", "p0e0->p0a0", "p0a0->c1",
                           "c1->p1a0", "p1a0->p1e0", "p1e0->h4"],
            (15, 0, 0x28): ["h15->p3e1", "p3e1->p3a1", "p3a1->c3",
                            "c3->p0a1", "p0a1->p0e0", "p0e0->h0"],
        },
    ),
}


@pytest.mark.parametrize("spec", sorted(WIRINGS))
def test_link_order_and_routes(spec):
    link_names, routes = WIRINGS[spec]
    fabric = build_topology(spec, Simulation(), 4)
    names = [link.name for link in fabric.all_links()]
    if link_names is None:
        assert names == [f"{u}->{v}" for u, v in sorted(fabric.links)]
        assert (len(names), names[0], names[-1]) == (96, "c0->p0a0", "p3e1->p3a1")
    else:
        assert names == link_names
    for (src, dst, tos), expected in routes.items():
        if expected is None:
            with pytest.raises(ValueError, match=f"no route {src} -> {dst}"):
                fabric.route(src, dst, tos=tos)
        else:
            route = fabric.route(src, dst, tos=tos)
            assert [link.name for link in route.links] == expected
            assert route.forwarding_delay_s == (0.0 if spec == "ring" else 1e-6)


@pytest.mark.parametrize("spec", sorted(WIRINGS))
def test_routes_are_resolved_once_and_failures_are_not_cached(spec):
    """``route()`` memoises per ``(src, dst, tos)``: the second call is the
    first call's ``Route`` object, the pinned picks are what it holds, and
    a lookup that raised raises again (nothing is cached for it)."""
    _, routes = WIRINGS[spec]
    fabric = build_topology(spec, Simulation(), 4)
    for (src, dst, tos), expected in routes.items():
        if expected is None:
            for _ in range(2):
                with pytest.raises(ValueError, match=f"no route {src} -> {dst}"):
                    fabric.route(src, dst, tos=tos)
            continue
        first = fabric.route(src, dst, tos=tos)
        assert fabric.route(src, dst, tos=tos) is first
        assert [link.name for link in first.links] == expected
        if tos == 0x00:
            assert fabric.route(src, dst) is first
            if isinstance(fabric, MultiTierFabric):  # goes through route()
                assert fabric.path_length(src, dst) == len(expected)
    for _ in range(2):
        with pytest.raises(ValueError, match="outside"):
            fabric.route(0, fabric.num_nodes)
        with pytest.raises(ValueError, match="must differ"):
            fabric.route(1, 1)
