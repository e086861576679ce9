"""Cross-stack integration tests.

These tie the layers together: gradients produced by real training,
compressed by the *bit-level hardware engines*, segmented into packets,
carried by the simulated network, decompressed on the receive side, and
aggregated by Algorithm 1 — verifying the layers agree wherever they
overlap.
"""

import numpy as np
import pytest

from repro.core import ErrorBound, compress, decompress, inceptionn_profile
from repro.distributed import ring_exchange
from repro.dnn import LRSchedule, SGD, LocalTrainer, build_hdc, hdc_dataset
from repro.hardware import InceptionnNic
from repro.network import TOS_COMPRESS
from repro.transport import ClusterComm, ClusterConfig

BOUND = ErrorBound(10)


@pytest.fixture(scope="module")
def real_gradient():
    """A genuine gradient vector from one HDC training step."""
    ds = hdc_dataset(train_size=200, test_size=50, seed=0)
    net = build_hdc(seed=0)
    trainer = LocalTrainer(
        net, SGD(LRSchedule(0.05), momentum=0.9), ds, batch_size=25, seed=0
    )
    _, grad = trainer.local_gradient()
    return grad


def test_hardware_path_equals_software_path(real_gradient):
    """NIC-engine packet processing reproduces the endpoint codec's
    values exactly: the functional simulation (software codec) and the
    bit-level hardware model agree on every float."""
    grad = real_gradient[:50_000]

    # Software path (what transport endpoints do).
    sw_values = decompress(compress(grad, BOUND))

    # Hardware path: segment -> per-packet engine compress -> wire ->
    # per-packet engine decompress -> reassemble.
    tx_nic = InceptionnNic(0, BOUND)
    rx_nic = InceptionnNic(1, BOUND)
    wire_packets = tx_nic.transmit_message(grad.tobytes(), dst=1, tos=TOS_COMPRESS)
    restored = rx_nic.receive_message(wire_packets)
    hw_values = np.frombuffer(restored, dtype=np.float32)

    np.testing.assert_array_equal(hw_values, sw_values)


def test_wire_bytes_match_between_layers(real_gradient):
    """The byte count the network simulator charges equals what the
    hardware engines actually emit (modulo per-packet group padding)."""
    grad = real_gradient[:14600]  # 10 packets of 1460 B
    sw_compressed = compress(grad, BOUND).compressed_nbytes

    tx_nic = InceptionnNic(0, BOUND)
    wire_packets = tx_nic.transmit_message(grad.tobytes(), dst=1, tos=TOS_COMPRESS)
    hw_bytes = sum(p.payload_nbytes for p in wire_packets)

    # Per-packet compression pads each packet's final group; with 10
    # packets that is at most 10 extra groups' worth of tag bits.
    assert abs(hw_bytes - sw_compressed) <= 10 * 34 // 8 + 10


def test_ring_aggregate_from_training_gradients():
    """Four real trainers' gradients ring-aggregated over the simulated
    cluster equal the direct sum within the accumulated bound."""
    ds = hdc_dataset(train_size=400, test_size=50, seed=0)
    grads = []
    for i in range(4):
        net = build_hdc(seed=0)
        trainer = LocalTrainer(
            net,
            SGD(LRSchedule(0.05), momentum=0.9),
            ds.shard(i, 4),
            batch_size=25,
            seed=i,
        )
        _, g = trainer.local_gradient()
        grads.append(g)

    stream = inceptionn_profile(BOUND)
    comm = ClusterComm(ClusterConfig(num_nodes=4, profile=stream))
    results = {}

    def node(i):
        def proc():
            results[i] = yield from ring_exchange(
                comm.endpoints[i], grads[i], range(4)
            )

        return proc

    for i in range(4):
        comm.sim.process(node(i)())
    elapsed = comm.run()

    exact = np.sum(grads, axis=0)
    for i in range(4):
        assert np.max(np.abs(results[i] - exact)) <= 4 * BOUND.bound
    assert elapsed > 0
    # Compression really engaged on the wire.
    sent = comm.transfers
    assert sent.compressed_messages == sent.messages
    assert sent.wire_payload_nbytes < sent.nbytes


def test_engine_cycles_consistent_with_throughput(real_gradient):
    """Cycle counts from the engine model match its advertised rate."""
    grad = real_gradient[: 8 * 10_000]
    nic = InceptionnNic(0, BOUND)
    _, stats = nic.compressor.compress(grad.tobytes())
    elapsed = stats.elapsed_s()
    implied_bps = grad.nbytes / elapsed
    assert implied_bps == pytest.approx(3.2e9, rel=0.01)
