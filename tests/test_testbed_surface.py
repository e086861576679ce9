"""The settable surface: what a run may vary, and the testbed it may not.

The paper fixes its testbed (Sec. VII-C): 2 us links, store-and-forward
switches, a 1 460-byte MSS and 100 MHz engines.  Those are constants in
their own modules, not settings; these pins keep a removed setting from
coming back silently.
"""

import dataclasses
import inspect

import pytest

from repro.core import ErrorBound
from repro.hardware import (
    DEFAULT_CLOCK_HZ,
    AggregationEngine,
    BurstEngine,
    CompressionEngine,
    DecompressionEngine,
    InceptionnNic,
)
from repro.network import (
    DEFAULT_LINK_LATENCY_S,
    DEFAULT_MSS,
    DEFAULT_SWITCH_DELAY_S,
    FatTree,
    LeafSpine,
    Network,
    Packet,
    Simulation,
    SwitchedStar,
    build_topology,
    packet_count,
    segment_bytes,
)
from repro.transport import ClusterConfig, build_wire_message

BOUND = ErrorBound(10)

CLUSTER_CONFIG_FIELDS = (
    "num_nodes",
    "bandwidth_bps",
    "engine_blocks",
    "train_packets",
    "profile",
    "loss_rate",
    "loss_seed",
    "retransmit",
    "tie_break",
    "topology",
    "tenants",
    "prioritize",
    "tenant_seed",
    "agg_site",
)


def test_cluster_config_has_exactly_its_settings():
    names = tuple(field.name for field in dataclasses.fields(ClusterConfig))
    assert names == CLUSTER_CONFIG_FIELDS


def test_build_topology_takes_only_spec_and_rate():
    params = tuple(inspect.signature(build_topology).parameters)
    assert params == ("spec", "sim", "num_nodes", "bandwidth_bps")


def test_testbed_constants():
    assert DEFAULT_LINK_LATENCY_S == 2e-6
    assert DEFAULT_SWITCH_DELAY_S == 1e-6
    assert DEFAULT_MSS == 1460
    assert DEFAULT_CLOCK_HZ == 100e6


@pytest.mark.parametrize("spec", ["star", "fat-tree:k=4", "two-tier"])
def test_every_link_and_switch_runs_at_the_testbed_constants(spec):
    fabric = build_topology(spec, Simulation(), 4)
    assert {link.latency_s for link in fabric.all_links()} == {
        DEFAULT_LINK_LATENCY_S
    }
    assert fabric.route(0, 3).forwarding_delay_s == DEFAULT_SWITCH_DELAY_S


REMOVED_KEYWORDS = {
    "ClusterConfig(link_latency_s)": lambda: ClusterConfig(2, link_latency_s=1e-6),
    "ClusterConfig(switch_delay_s)": lambda: ClusterConfig(2, switch_delay_s=0.0),
    "ClusterConfig(mss)": lambda: ClusterConfig(2, mss=9000),
    "ClusterConfig(engine_clock_hz)": lambda: ClusterConfig(2, engine_clock_hz=1e8),
    "build_topology(link_latency_s)": lambda: build_topology(
        "star", Simulation(), 2, link_latency_s=1e-6
    ),
    "SwitchedStar(switch_delay_s)": lambda: SwitchedStar(
        Simulation(), 2, switch_delay_s=0.0
    ),
    "FatTree(link_latency_s)": lambda: FatTree(
        Simulation(), k=4, link_latency_s=1e-6
    ),
    "LeafSpine(uplink_bandwidth_bps)": lambda: LeafSpine(
        Simulation(), uplink_bandwidth_bps=1e9
    ),
    "Network(mss)": lambda: Network(
        Simulation(), SwitchedStar(Simulation(), 2), mss=1460
    ),
    "build_wire_message(mss)": lambda: build_wire_message(
        0, 1, nbytes=10, mss=1460
    ),
    "segment_bytes(mss)": lambda: segment_bytes(b"x", 0, 1, mss=1460),
    "packet_count(mss)": lambda: packet_count(10, 1460),
    "Packet(payload_nbytes)": lambda: Packet(0, 1, payload_nbytes=1460),
    "BurstEngine(lanes)": lambda: BurstEngine(lanes=4),
    "BurstEngine(clock_hz)": lambda: BurstEngine(clock_hz=1e8),
    "AggregationEngine(lanes)": lambda: AggregationEngine(lanes=4),
    "CompressionEngine(clock_hz)": lambda: CompressionEngine(BOUND, clock_hz=1e8),
    "DecompressionEngine(clock_hz)": lambda: DecompressionEngine(
        BOUND, clock_hz=1e8
    ),
    "InceptionnNic(clock_hz)": lambda: InceptionnNic(0, BOUND, clock_hz=1e8),
    "InceptionnNic.transmit_message(mss)": lambda: InceptionnNic(
        0, BOUND
    ).transmit_message(b"", dst=1, tos=0, mss=1460),
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
def test_removed_testbed_keywords_raise_type_error(name):
    with pytest.raises(TypeError):
        REMOVED_KEYWORDS[name]()


def test_engine_clock_is_readable_and_fixed():
    for engine in (
        BurstEngine(),
        AggregationEngine(),
        CompressionEngine(BOUND),
        DecompressionEngine(BOUND),
    ):
        assert engine.clock_hz == DEFAULT_CLOCK_HZ
    _, stats = CompressionEngine(BOUND).compress(b"\x00" * 64)
    assert stats.elapsed_s() == stats.cycles / DEFAULT_CLOCK_HZ
    with pytest.raises(TypeError):
        stats.elapsed_s(1e8)
