"""NIC engine tracing: per-packet codec instants and tag-class census."""

import numpy as np
import pytest

from repro.core import ErrorBound
from repro.core.codec import classify
from repro.hardware import InceptionnNic
from repro.network import TOS_COMPRESS, TOS_DEFAULT, Packet
from repro.obs import CAT_CODEC, Tracer

BOUND = ErrorBound(10)


def _gradients(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * 0.3).astype(np.float32)


def _roundtrip(nic, values):
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=values.tobytes())
    compressed = nic.transmit([pkt])[0]
    return nic.receive([compressed])[0]


def test_compress_and_decompress_instants_recorded():
    tracer = Tracer()
    nic = InceptionnNic(0, BOUND, tracer=tracer)
    values = _gradients(365)
    _roundtrip(nic, values)
    (tx,) = tracer.events_in(CAT_CODEC, "nic.compress")
    (rx,) = tracer.events_in(CAT_CODEC, "nic.decompress")
    assert tx.args["engine"] == rx.args["engine"] == "inceptionn"
    assert tx.args["nbytes_in"] == values.nbytes
    assert tx.args["nbytes_out"] < values.nbytes
    assert tx.args["ratio"] == pytest.approx(
        values.nbytes / tx.args["nbytes_out"]
    )
    assert rx.args["nbytes_out"] == values.nbytes
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["nic.compress_packets{engine=inceptionn}"] == 1
    assert counters["nic.decompress_packets{engine=inceptionn}"] == 1


def test_tag_class_census_matches_classifier():
    tracer = Tracer()
    nic = InceptionnNic(0, BOUND, tracer=tracer)
    values = _gradients(365, seed=3)
    nic.transmit(
        [Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=values.tobytes())]
    )
    expected = np.bincount(classify(values, BOUND), minlength=4)
    counters = tracer.metrics.snapshot()["counters"]
    for tag in range(4):
        key = f"tag_class_values{{tag={tag}}}"
        assert counters.get(key, 0) == expected[tag]
    assert sum(expected) == values.size


def test_bypassed_packets_record_nothing():
    tracer = Tracer()
    nic = InceptionnNic(0, BOUND, tracer=tracer)
    nic.transmit(
        [Packet(src=0, dst=1, tos=TOS_DEFAULT, payload=_gradients(100).tobytes())]
    )
    assert tracer.count(CAT_CODEC) == 0


def test_untraced_nic_transforms_identically():
    values = _gradients(365, seed=7)
    plain = InceptionnNic(0, BOUND)
    traced = InceptionnNic(0, BOUND, tracer=Tracer())
    pkt = Packet(src=0, dst=1, tos=TOS_COMPRESS, payload=values.tobytes())
    out_plain = plain.transmit([pkt])[0]
    out_traced = traced.transmit([pkt])[0]
    assert out_plain.payload == out_traced.payload
