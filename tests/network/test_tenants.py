"""Background-tenant tests: parsing, placement, contention, priority."""

import pytest

from repro.network import (
    BackgroundTraffic,
    FatTree,
    Network,
    Simulation,
    TOS_TENANT_INFER,
    TOS_TENANT_TRAIN,
    TenantSpec,
    parse_tenants,
)
from repro.network.packet import TOS_DEFAULT
from repro.network.priority import PRIORITY_HIGH, PRIORITY_LOW


def test_parse_tenants():
    tenants = parse_tenants("train:4,infer:8")
    assert [t.kind for t in tenants] == ["train", "infer"]
    assert [t.hosts for t in tenants] == [4, 8]
    assert tenants[0].tos == TOS_TENANT_TRAIN
    assert tenants[1].tos == TOS_TENANT_INFER


def test_parse_tenants_default_hosts():
    (tenant,) = parse_tenants("train")
    assert tenant.hosts == 4


def test_parse_tenants_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown tenant kind"):
        parse_tenants("batch:4")


def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(kind="train", hosts=1)
    with pytest.raises(ValueError):
        TenantSpec(kind="mystery")


def test_tenant_tos_bytes_are_not_compressible():
    # Tenant traffic must bypass the NIC (de)compression engines: no
    # codec claims a tenant byte.
    from repro.core import available_codecs, codec_tos

    claimed = {codec_tos(name) for name in available_codecs()}
    assert TOS_TENANT_TRAIN not in claimed
    assert TOS_TENANT_INFER not in claimed


def test_placement_is_contiguous_and_capacity_checked():
    sim = Simulation()
    net = Network(sim, FatTree(sim, k=4))
    bg = BackgroundTraffic(
        net, parse_tenants("train:4,infer:4"), first_host=6
    )
    placed = [hosts for _, hosts in bg.placements]
    assert placed == [[6, 7, 8, 9], [10, 11, 12, 13]]
    with pytest.raises(ValueError, match="spare host ports"):
        BackgroundTraffic(net, parse_tenants("train:8,infer:8"), first_host=6)


def test_background_flows_run_and_stop():
    sim = Simulation()
    net = Network(sim, FatTree(sim, k=4))
    bg = BackgroundTraffic(net, parse_tenants("train:2,infer:2"), first_host=0)
    bg.launch()
    sim.call_at(2e-3, bg.stop)
    sim.run()
    assert bg.total_messages > 0
    assert bg.total_bytes > 0
    assert bg.messages_sent[0] > 0 and bg.messages_sent[1] > 0


def test_background_is_deterministic():
    def run():
        sim = Simulation()
        net = Network(sim, FatTree(sim, k=4))
        bg = BackgroundTraffic(
            net, parse_tenants("train:2,infer:2"), first_host=0, seed=7
        )
        bg.launch()
        sim.call_at(2e-3, bg.stop)
        final = sim.run()
        return final, bg.total_messages, bg.total_bytes

    assert run() == run()


def _exchange_time(tenants, prioritize):
    from repro.perfmodel import simulate_ring_exchange

    return simulate_ring_exchange(
        6,
        2_000_000,
        topology="fat-tree:k=4",
        tenants=tenants,
        prioritize=prioritize,
        tenant_seed=3,
        train_packets=128,
    ).total_s


def test_contention_slows_foreground_and_priority_protects_it():
    tenants = parse_tenants("train:4,infer:4")
    idle = _exchange_time((), False)
    fifo = _exchange_time(tenants, False)
    prio = _exchange_time(tenants, True)
    assert fifo > idle  # shared links cost time under FIFO
    assert prio < fifo  # strict priority recovers most of it
    assert prio >= idle  # but cannot beat a dedicated fabric


def test_foreground_tos_maps_high_and_tenants_low():
    from repro.core import profile_for
    from repro.network import parse_tenants as parse
    from repro.transport.endpoint import ClusterComm, ClusterConfig

    for profile in (None, profile_for("thc")):
        comm = ClusterComm(
            ClusterConfig(
                num_nodes=6,
                topology="fat-tree:k=4",
                profile=profile,
                tenants=parse("train:4"),
                prioritize=True,
            )
        )
        mapping = comm.network.tos_priority
        assert mapping is not None
        assert mapping[TOS_DEFAULT] == PRIORITY_HIGH
        if profile is not None:
            assert mapping[profile.tos] == PRIORITY_HIGH
        assert mapping[TOS_TENANT_TRAIN] == PRIORITY_LOW


def test_tenant_tos_clash_with_foreground_rejected():
    from repro.transport.endpoint import ClusterComm, ClusterConfig

    clashing = TenantSpec(kind="train", hosts=2, tos=0x00)
    with pytest.raises(ValueError, match="foreground"):
        ClusterComm(
            ClusterConfig(
                num_nodes=6,
                topology="fat-tree:k=4",
                tenants=(clashing,),
                prioritize=True,
            )
        )
