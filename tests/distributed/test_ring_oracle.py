"""The in-place ring exchange against the copying oracle.

``ring_exchange`` reduces into one buffer and sends views of it by
reference on raw streams; ``reference_ring.ring_exchange`` never writes
a block it has sent.  Over ring sizes 2..9, vector sizes the ring does
not divide, raw and INCEPTIONN streams and a lossy link that
retransmits, every node's result, every delivered payload, every send
(with its wire size and instant) and the simulated clock must be
identical — and each payload must arrive with the bytes it had when it
was sent.
"""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed import ring_exchange
from repro.transport import ClusterComm, ClusterConfig
from repro.transport.endpoint import Endpoint
from repro.transport.wire import WireMessage

from . import reference_ring


def _run(exchange, vectors, stream, loss_rate, monkeypatch):
    """Results, deliveries (in delivery order), sends and clock."""
    n = len(vectors)
    comm = ClusterComm(
        ClusterConfig(num_nodes=n, profile=stream, loss_rate=loss_rate, loss_seed=3)
    )
    in_flight = {}
    delivered = []
    log = []
    send, deliver = Endpoint.isend_message, WireMessage.deliver

    def snapshot_send(ep, msg):
        in_flight[id(msg)] = (msg, msg.values.tobytes())
        log.append((msg.src, msg.dst, msg.nbytes, msg.wire_payload_nbytes, comm.sim.now))
        return send(ep, msg)

    def check_delivery(msg, nic=None):
        values = deliver(msg, nic)
        _, sent_bytes = in_flight.pop(id(msg))
        assert values.tobytes() == sent_bytes, "a sent block changed in flight"
        delivered.append((msg.src, msg.dst, sent_bytes))
        return values

    monkeypatch.setattr(Endpoint, "isend_message", snapshot_send)
    monkeypatch.setattr(WireMessage, "deliver", check_delivery)
    results = {}

    def node(i):
        results[i] = yield from exchange(comm.endpoints[i], vectors[i], n)

    for i in range(n):
        comm.sim.process(node(i))
    elapsed = comm.run()
    monkeypatch.undo()
    assert not in_flight
    return results, delivered, log, elapsed


@pytest.mark.parametrize("loss_rate", [0.0, 0.05], ids=["lossless", "lossy"])
@pytest.mark.parametrize("compress", [False, True], ids=["raw", "inc"])
@pytest.mark.parametrize("size", [37, 4001])
@pytest.mark.parametrize("n", range(2, 10))
def test_in_place_ring_matches_copying_oracle(n, size, compress, loss_rate, monkeypatch):
    assert size % n
    rng = np.random.default_rng(n * size)
    vectors = [(rng.standard_normal(size) * 0.1).astype(np.float32) for _ in range(n)]
    originals = [v.copy() for v in vectors]
    stream = inceptionn_profile() if compress else None

    def ring(ep, vector, n):
        return ring_exchange(ep, vector, range(n))

    got = _run(ring, vectors, stream, loss_rate, monkeypatch)
    want = _run(reference_ring.ring_exchange, vectors, stream, loss_rate, monkeypatch)

    results, delivered, log, elapsed = got
    ref_results, ref_delivered, ref_log, ref_elapsed = want
    for i in range(n):
        assert results[i].dtype == np.float32 and results[i].shape == (size,)
        np.testing.assert_array_equal(
            results[i].view(np.uint32), ref_results[i].view(np.uint32)
        )
        # The exchange reduces into a copy, never into the caller's vector.
        np.testing.assert_array_equal(vectors[i].view(np.uint32), originals[i].view(np.uint32))
    assert len({id(r) for r in results.values()}) == n
    assert delivered == ref_delivered
    assert log == ref_log
    assert elapsed == ref_elapsed
