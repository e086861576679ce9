"""Lossy-fabric behavior of the WireMessage pipeline.

A dropped train must be retransmitted transparently: the receiver still
reconstructs the compressed gradient within the configured error bound.
"""

import numpy as np
import pytest

from repro.core import inceptionn_profile
from repro.network import RetransmitPolicy
from repro.network.loss import DeliveryFailure
from repro.transport import ClusterComm, ClusterConfig


@pytest.mark.parametrize("loss_rate", [-0.1, float("nan"), 1.0])
def test_config_rejects_a_rate_outside_the_unit_interval(loss_rate):
    # ClusterComm builds a LossModel only for a positive rate, so a
    # negative or NaN one used to run as a lossless fabric.
    with pytest.raises(ValueError, match=r"drop probability must be in \[0, 1\)"):
        ClusterConfig(num_nodes=2, loss_rate=loss_rate)


def _lossy_comm(loss_rate, seed=0, retransmit=RetransmitPolicy(), stream=None):
    return ClusterComm(
        ClusterConfig(
            num_nodes=2,
            profile=stream,
            train_packets=8,
            loss_rate=loss_rate,
            loss_seed=seed,
            retransmit=retransmit,
        )
    )


def _run_send(comm, values, stream):
    got = []

    def sender():
        yield comm.endpoints[0].isend(1, values, profile=stream)

    def receiver():
        got.append((yield comm.endpoints[1].recv(0)))

    comm.sim.process(sender())
    comm.sim.process(receiver())
    comm.run()
    return got


class TestRetransmission:
    def test_dropped_compressed_train_reconstructs_within_bound(self):
        stream = inceptionn_profile()
        comm = _lossy_comm(0.3, seed=1, stream=stream)
        values = (
            np.random.default_rng(3).standard_normal(20_000) * 0.004
        ).astype(np.float32)
        got = _run_send(comm, values, stream)

        assert comm.network.trains_retransmitted >= 1
        (received,) = got
        bound = stream.error_bound(values)
        assert float(np.max(np.abs(received - values))) <= bound * 6

    def test_lossless_fabric_never_retransmits(self):
        stream = inceptionn_profile()
        comm = _lossy_comm(0.0, stream=stream)
        values = np.ones(5000, dtype=np.float32)
        _run_send(comm, values, stream)
        assert comm.network.trains_retransmitted == 0
        assert comm.network.packets_retransmitted == 0

    def test_exhausted_retries_raise_delivery_failure(self):
        stream = inceptionn_profile()
        comm = _lossy_comm(
            0.999,
            seed=5,
            retransmit=RetransmitPolicy(max_attempts=2),
            stream=stream,
        )
        values = np.ones(50_000, dtype=np.float32)
        with pytest.raises(DeliveryFailure):
            _run_send(comm, values, stream)


class TestOrderedDelivery:
    def test_per_source_fifo_survives_retransmission(self):
        # Retransmitted trains can finish their wire traversal *after*
        # a later message's — the endpoint's per-(src, dst) sequence
        # numbers must still deliver in send order, or strategies that
        # interleave differently-sized sends (e.g. a ring step after a
        # weight broadcast) read the wrong payload.
        comm = _lossy_comm(0.25, seed=2)
        payloads = [
            (np.full(size, fill, dtype=np.float32))
            for fill, size in ((1.0, 40_000), (2.0, 100), (3.0, 7_000))
        ]
        got = []

        def sender():
            for p in payloads:
                comm.endpoints[0].isend(1, p)
            return
            yield  # pragma: no cover - generator marker

        def receiver():
            for _ in payloads:
                got.append((yield comm.endpoints[1].recv(0)))

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()

        assert comm.network.trains_retransmitted >= 1
        assert [g[0] for g in got] == [1.0, 2.0, 3.0]
        for received, sent in zip(got, payloads):
            np.testing.assert_array_equal(received, sent)

    def test_ring_training_completes_on_a_lossy_fabric(self):
        # End-to-end: a synchronous ring over a dropping fabric must
        # still converge on the exact summed gradients (retransmission
        # is transparent above the transport).
        from repro.distributed import run_strategy
        from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset

        result = run_strategy(
            "ring",
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
            dataset=hdc_dataset(train_size=200, test_size=50, seed=0),
            num_workers=3,
            iterations=4,
            batch_size=16,
            cluster=ClusterConfig(
                num_nodes=3,
                loss_rate=0.02,
                loss_seed=7,
                retransmit=RetransmitPolicy(),
            ),
        )
        assert np.isfinite(result.losses).all()
        assert result.transfers is not None and result.transfers.messages > 0
