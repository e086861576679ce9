"""Pre-refactor parity pins for the unified WireMessage pipeline.

The PR that introduced :mod:`repro.transport.wire` collapsed three send
paths (functional ``isend``, the sized side path, and the perfmodel's
private arithmetic) into one builder.  These constants were recorded by
running the *pre-refactor* tree on the same scenarios; the unified
pipeline must reproduce them to 1e-6 — byte counts exactly — while the
reconstructed gradients stay within the configured error bound.
"""

import hashlib

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.distributed.ring import ring_exchange
from repro.obs import Tracer
from repro.perfmodel.exchange import simulate_ring_exchange, simulate_wa_exchange
from repro.transport import ClusterComm, ClusterConfig
from repro.transport.wire import measure_stream_ratio

REL = 1e-6

#: Functional 4-node ring exchange, vectors of 5003 float32 values from
#: ``default_rng(100 + i).standard_normal(5003) * 0.004``.
FUNCTIONAL_PINS = {
    "compressed": {
        "total_s": 5.764065e-05,
        "wire_bytes": 38831,
        "payload_bytes": 33647,
        "step_span_s": 2.305551e-04,
        "agg0_sha256": (
            "38b40a383a3619058573da75712fb4fed719642e80ad0383c3af5209ee24170b"
        ),
        "agg0_sum": -3.2897597551e-01,
    },
    "raw": {
        "total_s": 6.232320e-05,
        "wire_bytes": 125256,
        "payload_bytes": 120072,
        "step_span_s": 2.492736e-04,
        "agg0_sha256": (
            "3c406905c0ea7285e04aac514307a2dcd451830582a8417e993798bf68ef43c9"
        ),
        "agg0_sum": -4.7233834863e-01,
    },
}

#: Sized 4-worker exchanges of a 2 MB gradient at defaults; the
#: ``*_stream`` runs include the measured wire ratio.
SIZED_NBYTES = 2_000_000
SIZED_PINS = {
    "ring_raw": 0.0025261727999999995,
    "wa_raw": 0.013285894399999998,
    "ring_stream": 0.0010200819000000007,
    "wa_stream": 0.009243397725000001,
}
MEASURED_RATIO = 3.77250748330647


def _run_functional_ring(stream):
    tracer = Tracer()
    comm = ClusterComm(ClusterConfig(num_nodes=4, profile=stream), tracer=tracer)
    vectors = [
        (np.random.default_rng(100 + i).standard_normal(5003) * 0.004).astype(
            np.float32
        )
        for i in range(4)
    ]
    results = {}

    def proc(i):
        agg = yield from ring_exchange(comm.endpoints[i], vectors[i], range(4))
        results[i] = agg

    for i in range(4):
        comm.sim.process(proc(i))
    total = comm.run()
    return comm, tracer, vectors, results, total


class TestFunctionalRingParity:
    @pytest.mark.parametrize("mode", ["compressed", "raw"])
    def test_matches_pre_refactor_trace(self, mode):
        pins = FUNCTIONAL_PINS[mode]
        stream = inceptionn_profile() if mode == "compressed" else None
        comm, tracer, vectors, results, total = _run_functional_ring(stream)

        assert total == pytest.approx(pins["total_s"], rel=REL)
        assert comm.network.total_wire_bytes == pins["wire_bytes"]
        assert comm.transfers.wire_payload_nbytes == pins["payload_bytes"]
        spans = sum(
            e.dur for e in tracer.events if e.name == "ring.step"
        )
        assert spans == pytest.approx(pins["step_span_s"], rel=REL)

        agg0 = results[0]
        assert (
            hashlib.sha256(agg0.tobytes()).hexdigest() == pins["agg0_sha256"]
        )
        assert float(agg0.sum()) == pytest.approx(pins["agg0_sum"], rel=REL)

        exact = sum(vectors).astype(np.float32)
        err = float(np.max(np.abs(agg0 - exact)))
        bound = inceptionn_profile().error_bound(exact)
        # Lossy hops accumulate: 2N-2 traversals bound the worst case.
        limit = bound * 6 if mode == "compressed" else bound * 1e-3
        assert err <= limit


class TestSizedExchangeParity:
    def test_measured_ratio_pinned(self):
        assert measure_stream_ratio(inceptionn_profile()) == pytest.approx(
            MEASURED_RATIO, rel=REL
        )

    @pytest.mark.parametrize(
        "key, simulate, kwargs",
        [
            ("ring_raw", simulate_ring_exchange, {}),
            ("wa_raw", simulate_wa_exchange, {}),
            ("ring_stream", simulate_ring_exchange, {"stream": "INC"}),
            ("wa_stream", simulate_wa_exchange, {"stream": "INC"}),
        ],
    )
    def test_total_seconds_pinned(self, key, simulate, kwargs):
        if kwargs.get("stream") == "INC":
            kwargs = {"stream": inceptionn_profile()}
        result = simulate(4, SIZED_NBYTES, **kwargs)
        assert result.total_s == pytest.approx(SIZED_PINS[key], rel=REL)

    def test_stream_exchange_reports_wire_compression(self):
        result = simulate_ring_exchange(
            4, SIZED_NBYTES, stream=inceptionn_profile()
        )
        assert result.wire_ratio == pytest.approx(MEASURED_RATIO, rel=1e-4)
        assert result.wire_payload_nbytes < result.sent_nbytes
        # WA stays below the codec ratio: its scatter phase ships raw floats.
        wa = simulate_wa_exchange(4, SIZED_NBYTES, stream=inceptionn_profile())
        assert 1.5 < wa.wire_ratio < MEASURED_RATIO
