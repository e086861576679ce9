"""Follow one gradient message through the NIC hardware, packet by packet.

Shows the ToS-0x28 classification, the burst compressor's output sizes,
the receive-side decompression, and the bit-exact match against the
software codec — the paper's Figs 8-11 in motion.

Run:  python examples/nic_packet_walkthrough.py
"""

import numpy as np

from repro.core import ErrorBound, compress
from repro.hardware import InceptionnNic
from repro.network import TOS_COMPRESS, TOS_DEFAULT

BOUND = ErrorBound(10)


def main() -> None:
    rng = np.random.default_rng(7)
    gradients = np.where(
        rng.random(3650) < 0.1,
        rng.standard_normal(3650) * 0.1,
        rng.standard_normal(3650) * 0.002,
    ).astype(np.float32)

    sender = InceptionnNic(node_id=0, bound=BOUND)
    receiver = InceptionnNic(node_id=1, bound=BOUND)

    print("transmit side — segment, classify, compress")
    print(f"{'pkt':>4}{'ToS':>6}{'payload in':>12}{'on wire':>10}{'ratio':>8}")
    wire_packets = sender.transmit_message(
        gradients.tobytes(), dst=1, tos=TOS_COMPRESS
    )
    raw_packets = InceptionnNic(node_id=0, bound=BOUND).transmit_message(
        gradients.tobytes(), dst=1, tos=TOS_DEFAULT
    )
    for wire, raw in zip(wire_packets, raw_packets):
        ratio = raw.payload_nbytes / max(1, wire.payload_nbytes)
        print(
            f"{wire.seq:>4}{wire.tos:>#6x}{raw.payload_nbytes:>12}"
            f"{wire.payload_nbytes:>10}{ratio:>8.2f}"
        )

    print("\nreceive side — classify, decompress, reassemble")
    restored = receiver.receive_message(wire_packets)
    out = np.frombuffer(restored, dtype=np.float32)
    err = float(np.max(np.abs(out - gradients)))
    print(f"reassembled {out.size} values, max error {err:.2e} < {BOUND.bound:.2e}")

    print("\nbit-exactness — hardware stream == software codec stream")
    sw_stream = compress(gradients[:365], BOUND).to_bytes()
    hw_stream, stats = sender.compressor.compress(gradients[:365].tobytes())
    print(f"identical: {sw_stream == hw_stream} "
          f"({stats.bursts_in} bursts in, {stats.cycles} cycles @ 100 MHz)")

    engine = sender.compressor
    print(
        f"\nengine timing surface: {engine.throughput_bps() / 1e9:.1f} GB/s "
        f"streaming, {engine.latency_s() * 1e9:.0f} ns pipeline fill"
    )
    counters = sender.counters
    print(
        f"NIC counters: {counters.tx_compressed} compressed / "
        f"{counters.tx_bypassed} bypassed, message-level ratio "
        f"{counters.tx_compression_ratio:.2f}x"
    )


if __name__ == "__main__":
    main()
