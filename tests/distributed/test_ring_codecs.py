"""Baseline codecs running end-to-end through the ring exchange.

The acceptance contract of the codec registry: any registered codec can
replace the INCEPTIONN engine on the gradient stream, with each sent
``WireMessage.wire_payload_nbytes`` reflecting the codec's measured
sizes and receivers observing the codec's reconstructions.
"""

import numpy as np
import pytest

import repro.distributed.strategy as strategy_module
from repro.core import CAP_FIXED_POINT, StreamProfile, inceptionn_profile, profile_for
from repro.core.registry import InceptionnCodec
from repro.distributed import GroupLayout, ring_exchange, run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.obs import CAT_CODEC, Tracer
from repro.transport import ClusterComm, ClusterConfig
from repro.transport.endpoint import Endpoint


def _spy_sends(monkeypatch):
    """Every WireMessage an endpoint sends, in send order."""
    sent = []
    send = Endpoint.isend_message

    def recorded(ep, msg):
        sent.append(msg)
        return send(ep, msg)

    monkeypatch.setattr(Endpoint, "isend_message", recorded)
    return sent


def _run_ring(vectors, stream):
    n = len(vectors)
    comm = ClusterComm(ClusterConfig(num_nodes=n, profile=stream))
    results = {}

    def node(i):
        def proc():
            out = yield from ring_exchange(
                comm.endpoints[i], vectors[i], range(n)
            )
            results[i] = out

        return proc

    for i in range(n):
        comm.sim.process(node(i)())
    comm.run()
    return results, comm.transfers


def _vectors(n=4, size=256, seed=7):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(size) * 0.01).astype(np.float32)
        for _ in range(n)
    ]


def _expected_wire(codec_name, nbytes):
    """Size-deterministic wire formulas of the two baselines under test."""
    size = nbytes // 4
    if codec_name == "truncation":  # 16 surviving bits per value
        return -(-size * 16 // 8)
    if codec_name == "quantization":  # sign + 4 level bits + norm
        return -(-(5 * size + 32) // 8)
    raise AssertionError(codec_name)


@pytest.mark.parametrize("name", ["truncation", "quantization"])
def test_baseline_codec_rides_the_ring(name, monkeypatch):
    n = 4
    stream = profile_for(name)
    vectors = _vectors(n=n)
    sent = _spy_sends(monkeypatch)
    results, transfers = _run_ring(vectors, stream)

    # Every hop of the exchange traveled on the codec's stream with the
    # codec's measured (here size-deterministic) wire payload.
    assert len(sent) == transfers.messages == n * (2 * n - 2)
    for msg in sent:
        assert msg.compressed
        assert msg.codec == name
        assert msg.wire_payload_nbytes == _expected_wire(name, msg.nbytes)
        assert msg.wire_payload_nbytes < msg.nbytes
    assert transfers.compressed_messages == transfers.messages

    # The aggregate is a lossy sum: each of the ~2N compressing hops may
    # add one declared bound of error to a partial sum.
    expected = np.sum(vectors, axis=0)
    tolerance = 2 * (2 * n) * stream.error_bound(expected)
    for i in range(n):
        assert results[i].shape == expected.shape
        assert float(np.max(np.abs(results[i] - expected))) <= tolerance


@pytest.mark.parametrize("name", ["truncation", "quantization"])
def test_receiver_observes_codec_reconstruction(name):
    stream = profile_for(name)
    comm = ClusterComm(ClusterConfig(num_nodes=2, profile=stream))
    vec = _vectors(n=1, size=128)[0]
    got = {}

    def sender():
        yield comm.endpoints[0].isend(1, vec, profile=stream)

    def receiver():
        got["values"] = yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()

    # Both codecs are deterministic (quantization carries a fixed seed),
    # so the delivery must equal the codec's own reconstruction exactly.
    expected = stream.compress(vec)
    np.testing.assert_array_equal(got["values"], expected.values)
    assert not np.array_equal(got["values"], vec)  # genuinely lossy
    assert comm.transfers.messages == 1
    assert comm.transfers.wire_payload_nbytes == expected.payload_nbytes


def test_identity_codec_delivers_bit_exact(monkeypatch):
    stream = profile_for("identity")
    sent = _spy_sends(monkeypatch)
    comm = ClusterComm(ClusterConfig(num_nodes=2, profile=stream))
    vec = _vectors(n=1, size=64)[0]
    got = {}

    def sender():
        yield comm.endpoints[0].isend(1, vec, profile=stream)

    def receiver():
        got["values"] = yield comm.endpoints[1].recv(0)

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()

    np.testing.assert_array_equal(got["values"], vec)
    (msg,) = sent
    assert msg.wire_payload_nbytes == comm.transfers.wire_payload_nbytes == vec.nbytes
    assert msg.codec == "identity"


# -- a block is compressed once: P2 forwards reuse codec fixed points ---------


def _count_compress(monkeypatch):
    calls = []
    compress = StreamProfile.compress

    def counted(self, values):
        calls.append(self.codec)
        return compress(self, values)

    monkeypatch.setattr(StreamProfile, "compress", counted)
    return calls


@pytest.mark.parametrize("name, encodes", [("inceptionn", 16), ("quantization", 24)])
def test_ring_forwards_fixed_points_without_re_encoding(name, encodes, monkeypatch):
    # 4 nodes x 6 sends: the 3 P1 sends and step n's own reduced block
    # run the codec; the 2 later P2 forwards re-encode only when the
    # codec does not advertise CAP_FIXED_POINT (QSGD's randomized
    # rounding moves a reconstruction again).
    calls = _count_compress(monkeypatch)
    _, transfers = _run_ring(_vectors(), profile_for(name))
    assert transfers.messages == 24
    assert calls == [name] * encodes


#: Six workers, so the hierarchy's group rings of three forward too.
_REUSE_WORKERS = 6
_REUSE_SCENARIOS = {
    "ring": {},
    "hierarchy": {"layout": GroupLayout.even(_REUSE_WORKERS, 3)},
    "local_sgd": {"sync_period": 2},
}


def _observed_run(strategy, monkeypatch):
    """What a compressed run shows: weights, wire, NICs and codec trace."""
    comms = []

    class Recorded(ClusterComm):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            comms.append(self)

    monkeypatch.setattr(strategy_module, "ClusterComm", Recorded)
    calls = _count_compress(monkeypatch)
    tracer = Tracer()
    result = run_strategy(
        strategy,
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
        num_workers=_REUSE_WORKERS,
        iterations=4,
        batch_size=16,
        cluster=ClusterConfig(
            num_nodes=_REUSE_WORKERS, profile=inceptionn_profile()
        ),
        tracer=tracer,
        options=_REUSE_SCENARIOS[strategy],
    )
    (comm,) = comms
    observed = (
        result.final_weights.view(np.uint32).tolist(),
        result.virtual_time_s,
        result.transfers,
        [nic.counters for nic in comm.nics],
        list(tracer.events_in(CAT_CODEC, "codec.compress")),
    )
    return observed, len(calls)


@pytest.mark.parametrize("strategy", sorted(_REUSE_SCENARIOS))
def test_forward_reuse_is_invisible(strategy, monkeypatch):
    reused, reused_calls = _observed_run(strategy, monkeypatch)
    monkeypatch.undo()
    capabilities = InceptionnCodec.capabilities
    monkeypatch.setattr(
        InceptionnCodec,
        "capabilities",
        lambda self: capabilities(self) - {CAP_FIXED_POINT},
    )
    encoded, encoded_calls = _observed_run(strategy, monkeypatch)
    assert reused_calls < encoded_calls
    assert reused == encoded
