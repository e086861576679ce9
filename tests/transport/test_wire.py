"""WireMessage builder and packet-train invariants."""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.network import Network
from repro.network.packet import HEADER_BYTES, packet_count, train_runs
from repro.transport import (
    ClusterComm,
    ClusterConfig,
    SizedPayload,
    WireMessage,
    build_wire_message,
)


def _comm(num_nodes=3, profile=None, **kwargs):
    return ClusterComm(
        ClusterConfig(num_nodes=num_nodes, profile=profile, **kwargs)
    )


class TestBuilderValidation:
    def test_exactly_one_of_array_or_nbytes(self):
        with pytest.raises(ValueError):
            build_wire_message(0, 1)
        with pytest.raises(ValueError):
            build_wire_message(
                0, 1, array=np.zeros(4, dtype=np.float32), nbytes=16
            )

    def test_ratio_rejected_with_array(self):
        with pytest.raises(ValueError):
            build_wire_message(
                0,
                1,
                stream=inceptionn_profile(),
                array=np.zeros(4, dtype=np.float32),
                ratio=2.0,
            )

    def test_wrong_source_rejected_at_send(self):
        comm = _comm()
        msg = comm.endpoints[1].build_message(2, SizedPayload(100))
        with pytest.raises(ValueError):
            comm.endpoints[0].isend_message(msg)


class TestNonFiniteRatio:
    """An infinite ratio once sized a 0-byte wire; NaN failed deep inside
    the rounding, or not at all on a raw stream."""

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_sized_payload_rejects_it(self, ratio):
        with pytest.raises(ValueError, match="compression ratio"):
            SizedPayload(1000, ratio)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_build_wire_message_rejects_it_even_raw(self, ratio):
        with pytest.raises(ValueError, match=r"compression ratio.*(inf|nan)"):
            build_wire_message(0, 1, nbytes=1000, ratio=ratio)


class TestSegments:
    def _message(self, nbytes, profile=None, ratio=None):
        comm = _comm(profile=inceptionn_profile())
        return comm.endpoints[0].build_message(
            1, SizedPayload(nbytes, ratio), profile
        )

    @pytest.mark.parametrize("nbytes", [0, 1, 1459, 1460, 1461, 100_000])
    def test_segment_sums_match_totals(self, nbytes):
        # The trains the network cuts a message into sum to its totals.
        msg = self._message(
            nbytes, profile=inceptionn_profile(), ratio=3.5
        )
        assert msg.num_packets == packet_count(nbytes)
        runs = train_runs(
            msg.num_packets,
            msg.wire_payload_nbytes,
            msg.nbytes,
            Network.DEFAULT_TRAIN_PACKETS,
        )
        trains = [train for count, train in runs for _ in range(count)]
        assert sum(t[0] for t in trains) == msg.num_packets
        assert sum(t[1] for t in trains) == msg.wire_nbytes
        headers = msg.num_packets * HEADER_BYTES
        assert sum(t[2] for t in trains) == headers + msg.nbytes

    def test_zero_byte_message_is_one_empty_packet(self):
        msg = self._message(0)
        assert msg.num_packets == 1
        assert msg.wire_payload_nbytes == 0
        assert msg.wire_nbytes == HEADER_BYTES
        assert msg.ratio == 1.0

    def test_paper_scale_message_counts_its_packets(self):
        msg = self._message(250_000_000)
        assert msg.num_packets == packet_count(250_000_000)

    def test_message_carries_the_stream_tos(self):
        stream = inceptionn_profile()
        msg = self._message(5000, profile=stream, ratio=2.0)
        assert msg.compressed
        assert msg.tos == stream.tos


class TestFunctionalBuild:
    def test_functional_message_compresses_once(self):
        stream = inceptionn_profile()
        comm = _comm(profile=stream)
        values = (
            np.random.default_rng(7).standard_normal(4096) * 0.004
        ).astype(np.float32)
        msg = comm.endpoints[0].build_message(1, values, profile=stream)
        assert isinstance(msg, WireMessage)
        assert not msg.size_only
        assert msg.compressed
        assert msg.nbytes == values.nbytes
        assert msg.wire_payload_nbytes < values.nbytes
        assert msg.values is not None
        bound = stream.error_bound(values)
        assert float(np.max(np.abs(msg.values - values))) <= bound * 6

    def test_functional_build_is_one_kernel_call(self, monkeypatch):
        # wire.py promises "the codec runs exactly once": one fused
        # quantize, no compress + size gather + decompress, no container.
        from repro.core import codec, container, registry

        calls = []

        def counting_quantize(values, bound):
            calls.append(values.size)
            return codec.quantize(values, bound)

        def no_container(self):
            raise AssertionError("send path built a CompressedGradients")

        monkeypatch.setattr(registry, "_inc_quantize", counting_quantize)
        monkeypatch.setattr(
            container.CompressedGradients, "__post_init__", no_container
        )
        stream = inceptionn_profile()
        values = (
            np.random.default_rng(7).standard_normal(4099) * 0.004
        ).astype(np.float32)
        msg = build_wire_message(0, 1, stream=stream, array=values)
        assert calls == [values.size]
        assert msg.compressed
        nbits, reconstruction = codec.quantize(values, stream.params["bound"])
        assert msg.wire_payload_nbytes == -(-nbits // 8)
        assert np.array_equal(
            msg.values.view(np.uint32), reconstruction.view(np.uint32)
        )

    def test_raw_build_without_engines(self):
        comm = _comm(profile=None)
        values = np.ones(100, dtype=np.float32)
        msg = comm.endpoints[0].build_message(1, values)
        assert not msg.compressed
        assert msg.wire_payload_nbytes == values.nbytes
        assert np.array_equal(msg.values, values)

    def test_standalone_builder_without_nic(self):
        msg = build_wire_message(0, 1, nbytes=3000)
        assert msg.size_only
        assert not msg.compressed
        assert msg.wire_payload_nbytes == 3000

    def test_standalone_builder_compresses_a_stream(self):
        # A stream is the one compression decision: no NIC is consulted.
        stream = inceptionn_profile()
        msg = build_wire_message(0, 1, stream=stream, nbytes=4000, ratio=4.0)
        assert msg.compressed and msg.tos == stream.tos
        assert msg.codec == stream.codec
        assert msg.wire_payload_nbytes == SizedPayload(4000, 4.0).compressed_nbytes
        assert msg.wire_payload_nbytes < msg.nbytes

    @pytest.mark.parametrize(
        "payload", [np.ones(2000, dtype=np.float32), SizedPayload(8000, 4.0)]
    )
    def test_cluster_without_engines_ships_a_stream_raw(self, payload):
        # No ClusterConfig.profile, no engines: the endpoint sends raw
        # whatever stream the caller names.
        comm = _comm(profile=None)

        def sender():
            yield comm.endpoints[0].isend(1, payload, profile=inceptionn_profile())

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert comm.transfers.messages == 1
        assert comm.transfers.compressed_messages == 0
        assert comm.transfers.wire_payload_nbytes == comm.transfers.nbytes == 8000
