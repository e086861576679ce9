"""Endpoint and ClusterComm tests."""

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.transport import ClusterComm, ClusterConfig


def _comm(num_nodes=4, profile=None, **kwargs):
    return ClusterComm(
        ClusterConfig(num_nodes=num_nodes, profile=profile, **kwargs)
    )


def test_send_recv_roundtrip_exact_without_compression():
    comm = _comm()
    sent = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
    got = {}

    def sender():
        yield comm.endpoints[0].isend(1, sent)

    def receiver():
        arr = yield comm.endpoints[1].recv(0)
        got["arr"] = arr

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    np.testing.assert_array_equal(got["arr"], sent)


def test_compressing_send_is_lossy_but_bounded():
    bound = ErrorBound(10)
    stream = inceptionn_profile(bound)
    comm = _comm(profile=stream)
    sent = (np.random.default_rng(1).standard_normal(5000) * 0.2).astype(
        np.float32
    )
    got = {}

    def sender():
        yield comm.endpoints[0].isend(1, sent, profile=stream)

    def receiver():
        got["arr"] = yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    arr = got["arr"]
    assert not np.array_equal(arr, sent)  # actually lossy
    assert np.max(np.abs(arr - sent)) < bound.bound


def test_compressing_profile_ignored_without_engines():
    comm = _comm(profile=None)
    sent = (np.random.default_rng(2).standard_normal(100) * 0.2).astype(np.float32)
    got = {}

    def sender():
        yield comm.endpoints[0].isend(1, sent, profile=inceptionn_profile())

    def receiver():
        got["arr"] = yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    np.testing.assert_array_equal(got["arr"], sent)
    assert comm.transfers.messages == 1
    assert comm.transfers.compressed_messages == 0


def test_transfer_log_records_wire_bytes():
    stream = inceptionn_profile()
    comm = _comm(profile=stream)
    sent = np.zeros(8000, dtype=np.float32)  # maximally compressible

    def sender():
        yield comm.endpoints[0].isend(1, sent, profile=stream)

    def receiver():
        yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    log = comm.transfers
    assert log.messages == log.compressed_messages == 1
    assert log.nbytes == 32000
    assert log.wire_payload_nbytes == pytest.approx(2000, rel=0.01)


def test_compression_speeds_up_virtual_time():
    sent = np.zeros(2_000_000, dtype=np.float32)

    def run(compression):
        stream = inceptionn_profile() if compression else None
        comm = _comm(profile=stream)

        def sender():
            yield comm.endpoints[0].isend(1, sent, profile=stream)

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        return comm.run()

    assert run(True) < run(False)


def test_messages_from_different_sources_keep_order():
    comm = _comm()
    got = []

    def sender(src, value):
        def proc():
            arr = np.full(10, value, dtype=np.float32)
            yield comm.endpoints[src].isend(3, arr)

        return proc

    def receiver():
        a = yield comm.endpoints[3].recv(0)
        b = yield comm.endpoints[3].recv(1)
        got.extend([a[0], b[0]])

    comm.sim.process(sender(0, 1.0)())
    comm.sim.process(sender(1, 2.0)())
    comm.sim.process(receiver())
    comm.run()
    assert got == [1.0, 2.0]


def test_multiple_messages_same_pair_fifo():
    comm = _comm()
    got = []

    def sender():
        for value in (1.0, 2.0, 3.0):
            yield comm.endpoints[0].isend(1, np.full(4, value, dtype=np.float32))

    def receiver():
        for _ in range(3):
            arr = yield comm.endpoints[1].recv(0)
            got.append(float(arr[0]))

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    assert got == [1.0, 2.0, 3.0]
