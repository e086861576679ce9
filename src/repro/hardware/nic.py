"""NIC datapath with integrated (de)compression engines (paper Fig 8).

Transmit side: packets arrive from the host over the (modeled) DMA, a
comparator checks the IP ToS byte, and payloads of ToS-``0x28`` packets
stream through the Compression Engine before entering the MAC FIFOs;
everything else bypasses.  Receive side mirrors this with the paired
Decompression Engine.

Only the INCEPTIONN pair does byte work on packets, a whole packet
train per engine call (a single packet is a train of one).  At message
granularity every stream that names a codec is engine-eligible on an
enabled NIC (the codec registry is the one table of such ToS bytes),
and its own codec transforms it in :mod:`repro.transport.wire`.

This is the *functional* model — it transforms real packet bytes
bit-exactly; the simulator's engine timing is ``ClusterConfig.nic_timing``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.bounds import ErrorBound
from repro.core.codec import class_counts
from repro.network.packet import (
    TOS_COMPRESS,
    Packet,
    payload_ratio,
    segment_bytes,
)
from repro.obs import CAT_CODEC, Tracer

from .axi import WORDS_PER_BURST
from .compression_engine import CompressionEngine
from .decompression_engine import DecompressionEngine


@dataclass
class NicCounters:
    """Traffic counters maintained by the datapath."""

    tx_packets: int = 0
    tx_compressed: int = 0
    tx_bypassed: int = 0
    tx_payload_bytes_in: int = 0
    tx_payload_bytes_out: int = 0
    rx_packets: int = 0
    rx_decompressed: int = 0
    rx_bypassed: int = 0

    @property
    def tx_compression_ratio(self) -> float:
        """Payload-level compression ratio achieved so far."""
        return payload_ratio(self.tx_payload_bytes_in, self.tx_payload_bytes_out)


@dataclass
class _CompressionContext:
    """Sidecar metadata carried by compressed packets.

    In the physical system the receive host knows the logical message
    length (the MPI receive posts it); in the simulation we carry it on
    the packet so the RX path can trim group padding.
    """

    num_values: int
    original_context: object = None


def _reframed(packet: Packet, payload: bytes, context: object) -> Packet:
    """``packet``'s headers around an engine's output."""
    return Packet(
        src=packet.src,
        dst=packet.dst,
        seq=packet.seq,
        tos=packet.tos,
        payload=payload,
        context=context,
    )


class InceptionnNic:
    """A NIC whose comparator routes ToS ``0x28`` through the engine pair.

    Packets with any other ToS byte — and every packet on a disabled
    NIC — bypass untouched.
    """

    def __init__(
        self,
        node_id: int,
        bound: ErrorBound,
        enabled: bool = True,
        num_blocks: int = WORDS_PER_BURST,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.node_id = node_id
        self.bound = bound
        self.enabled = enabled
        #: Nullable tracer: records per-packet engine calls + tag classes.
        self.tracer = tracer
        self.compressor = CompressionEngine(bound, num_blocks)
        self.decompressor = DecompressionEngine(bound, num_blocks)
        self.counters = NicCounters()

    # -- aggregate accounting (WireMessage pipeline) -----------------------------

    def account_tx(
        self,
        packets: int,
        engine_packets: int,
        payload_bytes_in: int,
        payload_bytes_out: int,
    ) -> None:
        """Tick TX counters for one wire traversal of a packet train.

        Equivalent to running :meth:`transmit` over the train, but
        at message granularity so size-only (paper-scale) sends never
        walk per-packet objects.  Payload bytes count only the
        engine-processed stream, matching the per-packet path.
        """
        self.counters.tx_packets += packets
        self.counters.tx_compressed += engine_packets
        self.counters.tx_bypassed += packets - engine_packets
        self.counters.tx_payload_bytes_in += payload_bytes_in
        self.counters.tx_payload_bytes_out += payload_bytes_out

    def account_rx(self, packets: int, engine_packets: int) -> None:
        """Tick RX counters for one delivered packet train."""
        self.counters.rx_packets += packets
        self.counters.rx_decompressed += engine_packets
        self.counters.rx_bypassed += packets - engine_packets

    # -- bit-exact datapath ------------------------------------------------------

    def _engages(self, packet: Packet) -> bool:
        """The per-packet comparator: does this packet enter the engines?"""
        return self.enabled and packet.tos == TOS_COMPRESS

    def _trace_engine_call(
        self, name: str, packet: Packet, out_nbytes: int
    ) -> None:
        """Record one engine pass (and, on transmit, its tag classes).

        The functional NIC model runs outside simulated time, so these
        events carry ``ts=0`` — they order by record sequence, and their
        value is the per-packet achieved ratio and tag-class census.
        """
        assert self.tracer is not None
        in_nbytes = packet.payload_nbytes
        self.tracer.instant(
            name,
            cat=CAT_CODEC,
            ts=0.0,
            node=self.node_id,
            engine="inceptionn",
            seq=packet.seq,
            tos=packet.tos,
            nbytes_in=in_nbytes,
            nbytes_out=out_nbytes,
            ratio=payload_ratio(in_nbytes, out_nbytes),
        )
        metrics = self.tracer.metrics
        metrics.counter(f"{name}_packets", engine="inceptionn").inc()
        if name == "nic.compress" and in_nbytes:
            values = np.frombuffer(packet.payload, dtype=np.float32)
            counts = class_counts(values, self.bound)
            for tag, count in enumerate(counts.tolist()):
                if count:
                    metrics.counter("tag_class_values", tag=tag).inc(count)

    def transmit(self, packets: List[Packet]) -> List[Packet]:
        """TX datapath over a packet train: one engine call for all it engages.

        Bypassed packets come back as the same objects.
        """
        engaged = [slot for slot, pkt in enumerate(packets) if self._engages(pkt)]
        streams, _ = self.compressor.compress_packets(
            [packets[slot].payload for slot in engaged]
        )
        out = list(packets)
        for slot, stream in zip(engaged, streams):
            pkt = packets[slot]
            out[slot] = _reframed(
                pkt, stream, _CompressionContext(pkt.payload_nbytes // 4, pkt.context)
            )
            if self.tracer is not None:
                self._trace_engine_call("nic.compress", pkt, len(stream))
        self.account_tx(
            len(packets),
            len(engaged),
            sum(packets[slot].payload_nbytes for slot in engaged),
            sum(map(len, streams)),
        )
        return out

    def receive(self, packets: List[Packet]) -> List[Packet]:
        """RX datapath over a packet train: one engine call for all it engages.

        A malformed stream raises before any counter or engine total moves.
        """
        engaged = [slot for slot, pkt in enumerate(packets) if self._engages(pkt)]
        # Only a compressing NIC's sidecar says how many values a stream
        # holds; without one it decodes to whole groups.
        contexts = [packets[slot].context for slot in engaged]
        sidecars = [
            context if isinstance(context, _CompressionContext) else None
            for context in contexts
        ]
        payloads, _ = self.decompressor.decompress_packets(
            [packets[slot].payload for slot in engaged],
            [None if sidecar is None else sidecar.num_values for sidecar in sidecars],
        )
        out = list(packets)
        for slot, sidecar, payload in zip(engaged, sidecars, payloads):
            pkt = packets[slot]
            out[slot] = _reframed(
                pkt,
                payload,
                pkt.context if sidecar is None else sidecar.original_context,
            )
            if self.tracer is not None:
                self._trace_engine_call("nic.decompress", pkt, len(payload))
        self.account_rx(len(packets), len(engaged))
        return out

    # -- message-level convenience -------------------------------------------------

    def transmit_message(self, data: bytes, dst: int, tos: int) -> List[Packet]:
        """Segment a byte stream and run the packet train through TX."""
        return self.transmit(segment_bytes(data, src=self.node_id, dst=dst, tos=tos))

    def receive_message(self, packets: List[Packet]) -> bytes:
        """Run a packet train through RX and reassemble in sequence order."""
        restored = sorted(self.receive(packets), key=lambda p: p.seq)
        return b"".join(p.payload for p in restored)
