"""Endpoint detail tests: sized sends, promiscuous mode, validation."""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.transport import ClusterComm, ClusterConfig, SizedPayload


def _comm(num_nodes=3, profile=None, **kwargs):
    return ClusterComm(
        ClusterConfig(num_nodes=num_nodes, profile=profile, **kwargs)
    )


class TestSizedMessages:
    def test_sized_message_delivers_size(self):
        comm = _comm()
        got = []

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend_message(ep.build_message(1, SizedPayload(12345)))

        def receiver():
            got.append((yield comm.endpoints[1].recv(0)))

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert got == [SizedPayload(12345)]

    def test_sized_message_ratio_shrinks_wire(self):
        stream = inceptionn_profile()
        comm = _comm(profile=stream)

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend_message(
                ep.build_message(1, SizedPayload(1_000_000, 10.0), stream)
            )

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert comm.transfers.wire_payload_nbytes == 100_000

    def test_ratio_below_one_rejected(self):
        stream = inceptionn_profile()
        comm = _comm(profile=stream)
        with pytest.raises(ValueError):
            comm.endpoints[0].build_message(1, SizedPayload(100, 0.5), stream)

    def test_negative_size_rejected(self):
        comm = _comm()
        with pytest.raises(ValueError):
            comm.endpoints[0].build_message(1, SizedPayload(-10))

    def test_ratio_ignored_without_engines(self):
        comm = _comm(profile=None)

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend_message(
                ep.build_message(1, SizedPayload(1000, 10.0), inceptionn_profile())
            )

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert comm.transfers.wire_payload_nbytes == 1000
        assert comm.transfers.compressed_messages == 0


class TestPromiscuousMode:
    def test_recv_any_tags_source(self):
        comm = _comm()
        comm.endpoints[2].promiscuous = True
        got = []

        def sender(src, value):
            def proc():
                yield comm.endpoints[src].isend(
                    2, np.full(4, value, dtype=np.float32)
                )

            return proc

        def receiver():
            for _ in range(2):
                src, arr = yield comm.endpoints[2].recv_any()
                got.append((src, float(arr[0])))

        comm.sim.process(sender(0, 1.0)())
        comm.sim.process(sender(1, 2.0)())
        comm.sim.process(receiver())
        comm.run()
        assert sorted(got) == [(0, 1.0), (1, 2.0)]

    def test_recv_on_promiscuous_endpoint_rejected(self):
        comm = _comm()
        comm.endpoints[1].promiscuous = True
        with pytest.raises(RuntimeError):
            comm.endpoints[1].recv(0)

    def test_recv_any_without_flag_rejected(self):
        comm = _comm()
        with pytest.raises(RuntimeError):
            comm.endpoints[1].recv_any()
