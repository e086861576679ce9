"""Fig 11 scenario: DNN training co-running with other network traffic.

The ToS mechanism exists so the NIC engines touch *only* the training
streams: other applications' packets must pass through untouched and
their timing must not regress because compression is enabled.
"""

import numpy as np
import pytest

from repro.core import ErrorBound, inceptionn_profile
from repro.hardware import InceptionnNic
from repro.network import Network, Simulation, SwitchedStar, TOS_DEFAULT
from repro.transport import ClusterComm, ClusterConfig
from repro.transport.endpoint import Endpoint


def test_untagged_bytes_pass_bit_exact_through_nic():
    nic = InceptionnNic(node_id=0, bound=ErrorBound(10))
    app_data = bytes(range(256)) * 13 + b"trailing"
    packets = nic.transmit_message(app_data, dst=1, tos=TOS_DEFAULT)
    rx = InceptionnNic(node_id=1, bound=ErrorBound(10))
    assert rx.receive_message(packets) == app_data
    assert nic.counters.tx_compressed == 0


def test_other_traffic_timing_unaffected_by_engines():
    """Enabling compression must not slow untagged flows."""

    def measure(compression):
        sim = Simulation()
        topo = SwitchedStar(sim, 4)
        engine = ClusterConfig(num_nodes=4).nic_timing() if compression else None
        net = Network(sim, topo, engine=engine)
        done = {}
        ev = net.send(2, 3, 5 * 2**20, tos=TOS_DEFAULT)
        ev.add_callback(lambda e: done.setdefault("t", sim.now))
        sim.run()
        return done["t"]

    assert measure(True) == pytest.approx(measure(False), rel=1e-9)


def test_concurrent_tagged_and_untagged_flows(monkeypatch):
    """Training (tagged) and an app (untagged) share the fabric: the
    tagged flow shrinks on the wire, the untagged one is intact."""
    sent = {}
    send = Endpoint.isend_message

    def recorded(ep, msg):
        sent[(msg.src, msg.dst)] = msg
        return send(ep, msg)

    monkeypatch.setattr(Endpoint, "isend_message", recorded)
    stream = inceptionn_profile()
    comm = ClusterComm(ClusterConfig(num_nodes=4, profile=stream))
    grads = np.zeros(200_000, dtype=np.float32)  # highly compressible
    app = (np.random.default_rng(0).standard_normal(200_000) * 1e6).astype(
        np.float32
    )
    got = {}

    def training():
        yield comm.endpoints[0].isend(1, grads, profile=stream)

    def application():
        yield comm.endpoints[2].isend(3, app)

    def train_rx():
        got["grads"] = yield comm.endpoints[1].recv(0)

    def app_rx():
        got["app"] = yield comm.endpoints[3].recv(2)

    for proc in (training(), application(), train_rx(), app_rx()):
        comm.sim.process(proc)
    comm.run()

    np.testing.assert_array_equal(got["app"], app)  # untouched
    assert np.max(np.abs(got["grads"] - grads)) < 2**-10
    assert sent[(0, 1)].compressed
    assert not sent[(2, 3)].compressed
    assert sent[(0, 1)].wire_payload_nbytes < sent[(2, 3)].wire_payload_nbytes / 10


def test_tagged_flow_on_shared_link_still_relieves_contention():
    """Two flows into the same destination: compressing one frees the
    shared downlink for the other."""

    def measure(compression):
        stream = inceptionn_profile() if compression else None
        comm = ClusterComm(ClusterConfig(num_nodes=4, profile=stream))
        grads = np.zeros(1_000_000, dtype=np.float32)
        app = np.ones(1_000_000, dtype=np.float32)
        finish = {}

        def training():
            yield comm.endpoints[0].isend(3, grads, profile=stream)

        def application():
            yield comm.endpoints[1].isend(3, app)

        def receiver():
            yield comm.endpoints[3].recv(0)
            yield comm.endpoints[3].recv(1)
            finish["t"] = comm.sim.now

        for proc in (training(), application(), receiver()):
            comm.sim.process(proc)
        comm.run()
        return finish["t"]

    assert measure(True) < measure(False)
