"""Multi-tier fabric tests: fat-tree / leaf-spine routing and ECMP."""

import pytest

from repro.network import (
    FatTree,
    LeafSpine,
    Network,
    Simulation,
    SwitchedStar,
    build_topology,
    parse_topology_spec,
)


def _fat_tree(k=4):
    sim = Simulation()
    return sim, FatTree(sim, k=k)


# -- fat-tree structure ------------------------------------------------------


def test_fat_tree_k4_has_sixteen_hosts():
    _, ft = _fat_tree()
    assert ft.num_nodes == 16


def test_fat_tree_k4_link_count():
    # 16 host links + 16 edge-agg + 16 agg-core, duplex = 96 directed.
    _, ft = _fat_tree()
    assert len(ft.all_links()) == 96


def test_fat_tree_pod_membership():
    _, ft = _fat_tree()
    assert ft.pod_of(0) == 0
    assert ft.pod_of(3) == 0
    assert ft.pod_of(4) == 1
    assert ft.pod_of(15) == 3


def test_fat_tree_rejects_odd_k():
    sim = Simulation()
    with pytest.raises(ValueError):
        FatTree(sim, k=3)


def test_all_pairs_reachable():
    _, ft = _fat_tree()
    for src in range(ft.num_nodes):
        for dst in range(ft.num_nodes):
            if src == dst:
                continue
            route = ft.route(src, dst)
            assert route.links, f"{src}->{dst} unroutable"


def test_path_lengths_by_locality():
    _, ft = _fat_tree()
    assert ft.path_length(0, 1) == 2  # same edge switch
    assert ft.path_length(0, 2) == 4  # same pod, different edge
    assert ft.path_length(0, 4) == 6  # inter-pod, via core


def test_ecmp_path_counts():
    # k=4: 1 path under a shared edge, k/2=2 within a pod, (k/2)^2=4
    # across pods.
    _, ft = _fat_tree()
    assert ft.ecmp_path_count(0, 1) == 1
    assert ft.ecmp_path_count(0, 2) == 2
    assert ft.ecmp_path_count(0, 4) == 4


def test_route_is_deterministic_per_flow():
    sim1, ft1 = _fat_tree()
    sim2, ft2 = _fat_tree()
    for src, dst in ((0, 4), (3, 15), (7, 8)):
        r1 = [link.name for link in ft1.route(src, dst, tos=0x28).links]
        r2 = [link.name for link in ft2.route(src, dst, tos=0x28).links]
        assert r1 == r2


def test_tos_can_select_different_ecmp_path():
    _, ft = _fat_tree()
    paths = {
        tuple(link.name for link in ft.route(0, 4, tos=tos).links)
        for tos in range(64)
    }
    # 4 equal-cost paths exist; hashing over many ToS values should
    # exercise more than one of them.
    assert len(paths) > 1


def test_delivery_across_pods():
    sim, ft = _fat_tree()
    net = Network(sim, ft)
    out = {}
    net.send(0, 15, 1_000_000).add_callback(
        lambda e: out.setdefault("t", sim.now)
    )
    sim.run()
    assert out["t"] > 0.0


# -- leaf-spine --------------------------------------------------------------


def test_leaf_spine_structure():
    sim = Simulation()
    ls = LeafSpine(sim, num_spines=2, num_leaves=4, hosts_per_leaf=2)
    assert ls.num_nodes == 8
    assert ls.leaf_of(0) == 0
    assert ls.leaf_of(7) == 3
    assert ls.path_length(0, 1) == 2  # same leaf
    assert ls.path_length(0, 2) == 4  # via a spine
    assert ls.ecmp_path_count(0, 2) == 2  # one per spine


# -- spec parsing and factory ------------------------------------------------


def test_parse_topology_spec():
    kind, params = parse_topology_spec("fat-tree:k=4")
    assert kind == "fat-tree"
    assert params == {"k": 4.0}
    kind, params = parse_topology_spec("star")
    assert kind == "star"
    assert params == {}


def test_build_topology_star_is_switched_star():
    sim = Simulation()
    topo = build_topology("star", sim, 4)
    assert isinstance(topo, SwitchedStar)


def test_build_topology_fat_tree():
    sim = Simulation()
    topo = build_topology("fat-tree:k=4", sim, 6)
    assert isinstance(topo, FatTree)
    assert topo.num_nodes == 16


def test_build_topology_rejects_unknown_kind():
    sim = Simulation()
    with pytest.raises(ValueError, match="unknown topology"):
        build_topology("hypercube:d=4", sim, 4)


def test_build_topology_rejects_unknown_param():
    sim = Simulation()
    with pytest.raises(ValueError):
        build_topology("fat-tree:pods=4", sim, 4)


def test_build_topology_rejects_undersized_fabric():
    sim = Simulation()
    with pytest.raises(ValueError, match="host ports"):
        build_topology("fat-tree:k=4", sim, 20)


@pytest.mark.parametrize(
    "spec,param",
    [
        ("leaf-spine:hosts=0", "hosts"),
        ("two-tier:hosts=0", "hosts"),
        ("two-tier:racks=2.9", "racks"),
        ("fat-tree:k=4.7", "k"),
        ("fat-tree:k=inf", "k"),
        ("fat-tree:k=nan", "k"),
        ("fat-tree:k=-2", "k"),
        ("leaf-spine:spines=0", "spines"),
        ("leaf-spine:leaves=1.5", "leaves"),
        ("two-tier:oversub=inf", "oversub"),
    ],
)
def test_build_topology_rejects_non_count_parameters(spec, param):
    # Used to raise ZeroDivisionError / OverflowError, or silently truncate.
    with pytest.raises(ValueError, match=f"'{param}'"):
        build_topology(spec, Simulation(), 4)


def test_build_topology_accepts_integral_float_counts():
    topo = build_topology("two-tier:racks=2.0,hosts=2,oversub=2.5", Simulation(), 4)
    assert topo.num_nodes == 4
