"""Transport-layer tracing + the sized-send ratio validation fix."""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.obs import CAT_CODEC, CAT_MESSAGE, Tracer
from repro.transport import ClusterComm, ClusterConfig, SizedPayload


def _comm(num_nodes=3, profile=None, tracer=None, **kwargs):
    return ClusterComm(
        ClusterConfig(num_nodes=num_nodes, profile=profile, **kwargs),
        tracer=tracer,
    )


class TestSizedRatioValidation:
    """ratio=0.0 must be an error, not 'unset'.

    A falsy check once collapsed 0.0 into None, silently sending the
    uncompressed size; None and 0.0 now mean different things.
    """

    def test_ratio_zero_rejected(self):
        comm = _comm(profile=inceptionn_profile())
        with pytest.raises(ValueError, match="compression ratio"):
            comm.endpoints[0].build_message(
                1, SizedPayload(100, 0.0), inceptionn_profile()
            )

    def test_ratio_below_one_rejected(self):
        comm = _comm(profile=inceptionn_profile())
        with pytest.raises(ValueError, match=">= 1"):
            comm.endpoints[0].build_message(
                1, SizedPayload(100, 0.5), inceptionn_profile()
            )

    def test_ratio_rejected_even_without_engines(self):
        # Validation happens before the engine-dispatch check: a bad
        # ratio is a caller bug regardless of the cluster profile.
        comm = _comm(profile=None)
        with pytest.raises(ValueError, match="compression ratio"):
            comm.endpoints[0].build_message(1, SizedPayload(100, 0.0))

    def test_none_means_uncompressed_size(self):
        stream = inceptionn_profile()
        comm = _comm(profile=stream)

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend_message(
                ep.build_message(1, SizedPayload(1000, None), stream)
            )

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert comm.transfers.wire_payload_nbytes == 1000

    def test_ratio_exactly_one_accepted(self):
        stream = inceptionn_profile()
        comm = _comm(profile=stream)
        msg = comm.endpoints[0].build_message(1, SizedPayload(1000, 1.0), stream)
        assert msg.wire_payload_nbytes == 1000


class TestCodecTrace:
    def test_sized_send_records_estimated_codec_instant(self):
        tracer = Tracer()
        stream = inceptionn_profile()
        comm = _comm(profile=stream, tracer=tracer)

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend_message(
                ep.build_message(1, SizedPayload(1_000_000, 4.0), stream)
            )

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        (event,) = tracer.events_in(CAT_CODEC, "codec.compress")
        assert event.args["estimated"] is True
        assert event.args["nbytes"] == 1_000_000
        assert event.args["compressed_nbytes"] == 250_000
        assert event.args["ratio"] == pytest.approx(4.0)

    def test_real_send_records_achieved_ratio(self):
        tracer = Tracer()
        stream = inceptionn_profile()
        comm = _comm(profile=stream, tracer=tracer)
        values = np.zeros(4096, dtype=np.float32)  # highly compressible

        def sender():
            yield comm.endpoints[0].isend(1, values, profile=stream)

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        (event,) = tracer.events_in(CAT_CODEC, "codec.compress")
        assert event.args["estimated"] is False
        assert event.args["ratio"] > 10.0  # all-zero vector compresses hard
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["codec_bytes_in{codec=inceptionn}"] == values.nbytes

    def test_uncompressed_send_records_no_codec_event(self):
        tracer = Tracer()
        comm = _comm(profile=None, tracer=tracer)

        def sender():
            yield comm.endpoints[0].isend(
                1, np.ones(16, dtype=np.float32)
            )

        def receiver():
            yield comm.endpoints[1].recv(0)

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        assert tracer.count(CAT_CODEC) == 0
        assert tracer.count(CAT_MESSAGE, "msg.send") == 1
