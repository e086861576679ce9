"""The settable surface: what a run may vary, and the testbed it may not.

The paper fixes its testbed (Sec. VII-C): 2 us links, store-and-forward
switches, a 1 460-byte MSS and 100 MHz engines.  Those are constants in
their own modules, not settings; these pins keep a removed setting from
coming back silently.  The same goes for the spelling of a gradient
stream: ``None`` is raw, a :class:`StreamProfile` names a registered
codec, and that codec's registry entry is the stream's one ToS byte;
a run's stream is its cluster's profile, never a second argument.
"""

import dataclasses
import importlib
import inspect

import numpy as np
import pytest

from repro.core import (
    ErrorBound,
    StreamProfile,
    available_codecs,
    codec_tos,
    profile_for,
)
from repro.distributed import (
    NodeContext,
    StrategyRun,
    aggregator_exchange,
    hierarchical_exchange,
    ring_exchange,
    worker_exchange,
)
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
    TOS_DEFAULT,
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
from repro.perfmodel.exchange import Exchange
from repro.transport import ClusterComm, ClusterConfig, Endpoint, build_wire_message
from repro.transport.aggregation import SwitchGather

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
    "StreamProfile()": lambda: StreamProfile(),
    "StreamProfile(tos)": lambda: StreamProfile("inceptionn", tos=0x28),
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


# -- one spelling of a gradient stream ----------------------------------------


def test_stream_profile_is_a_codec_and_its_params():
    names = tuple(field.name for field in dataclasses.fields(StreamProfile))
    assert names == ("codec", "params")


#: ``(module, owner, name)``: ``owner`` is an attribute path inside the
#: module (``""`` for the module itself).
REMOVED_NAMES = [
    ("repro.core", "", "RAW_STREAM"),
    ("repro.core.registry", "", "RAW_STREAM"),
    ("repro.core.registry", "", "_flat32"),
    ("repro.core.registry", "StreamProfile", "resolved_tos"),
    ("repro.core.registry", "StreamProfile", "compressing"),
    ("repro.network", "", "is_compressible_tos"),
    ("repro.network", "", "register_compressible_tos"),
    ("repro.network.packet", "", "_COMPRESSIBLE_TOS"),
    ("repro.network.packet", "", "is_compressible_tos"),
    ("repro.network.packet", "", "register_compressible_tos"),
    ("repro.hardware.nic", "InceptionnNic", "dispatches"),
    ("repro.transport.endpoint", "ClusterConfig", "default_profile"),
    ("repro.distributed.strategy", "StrategyUpdate", "sync_optimizer_iteration"),
    ("repro.baselines.sz_like", "", "compression_ratio"),
    ("repro.baselines.snappy_like", "", "compression_ratio"),
    ("repro.transport.endpoint", "ClusterComm", "compression_active"),
    ("repro.distributed.strategy", "NodeContext", "comm"),
    ("repro.distributed.strategy", "NodeContext", "num_workers"),
    ("repro.distributed.strategy", "NodeContext", "profile"),
    ("repro.distributed.strategy", "NodeContext", "stream"),
    ("repro.distributed.strategy", "NodeContext", "tracer"),
]


@pytest.mark.parametrize(
    "module, owner, name",
    REMOVED_NAMES,
    ids=[".".join(filter(None, row)) for row in REMOVED_NAMES],
)
def test_removed_stream_names_are_gone(module, owner, name):
    obj = importlib.import_module(module)
    for part in filter(None, owner.split(".")):
        obj = getattr(obj, part)
    with pytest.raises(AttributeError):
        getattr(obj, name)


def test_removed_instance_names_are_gone():
    with pytest.raises(AttributeError):
        ClusterComm(ClusterConfig(2)).default_profile
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.reference")


@pytest.mark.parametrize("name", available_codecs())
def test_a_stream_carries_its_codecs_registered_tos(name):
    assert profile_for(name).tos == codec_tos(name)


@pytest.mark.parametrize("name", available_codecs())
def test_only_an_enabled_nic_compresses_and_only_a_named_codec(name):
    stream = profile_for(name)
    values = np.linspace(-0.01, 0.01, 64, dtype=np.float32)
    for payload in ({"array": values}, {"nbytes": values.nbytes}):
        on = build_wire_message(
            0, 1, stream=stream, nic=InceptionnNic(0, BOUND), **payload
        )
        assert on.compressed and on.tos == codec_tos(name) and on.codec == name
        for nic in (InceptionnNic(0, BOUND, enabled=False), None):
            off = build_wire_message(0, 1, stream=stream, nic=nic, **payload)
            assert not off.compressed and off.tos == TOS_DEFAULT
        raw = build_wire_message(
            0, 1, stream=None, nic=InceptionnNic(0, BOUND), **payload
        )
        assert not raw.compressed and raw.tos == TOS_DEFAULT and raw.codec is None


# -- one spelling of a run's gradient stream ----------------------------------
#
# ``ClusterConfig.profile`` is the stream and ``ClusterComm`` holds the
# tracer; exchanges and plugins read them there, through ``node.run.comm``.

EXCHANGE_PRIMITIVES = (
    ring_exchange,
    worker_exchange,
    aggregator_exchange,
    hierarchical_exchange,
    SwitchGather.__init__,
)


@pytest.mark.parametrize(
    "primitive", EXCHANGE_PRIMITIVES, ids=lambda f: f.__qualname__
)
def test_exchange_primitives_read_the_stream_from_the_cluster(primitive):
    assert "stream" not in inspect.signature(primitive).parameters


@pytest.mark.parametrize(
    "send", [Endpoint.build_message, SwitchGather.offer], ids=lambda f: f.__qualname__
)
def test_a_size_only_send_is_one_sized_payload(send):
    # Arrays and ``SizedPayload``s share one positional parameter; only
    # ``build_wire_message`` below them keeps ``nbytes=``/``ratio=``.
    assert not {"array", "nbytes", "ratio"} & set(inspect.signature(send).parameters)


def test_a_run_does_not_copy_the_cluster():
    run_fields = {field.name for field in dataclasses.fields(StrategyRun)}
    assert not run_fields & {"stream", "tracer", "strategy", "dataset"}
    assert "stream" not in {field.name for field in dataclasses.fields(Exchange)}
    assert {field.name for field in dataclasses.fields(NodeContext)} == {
        "node_id",
        "endpoint",
        "trainer",
        "run",
    }
