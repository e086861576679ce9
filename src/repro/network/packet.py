"""TCP/IP-style packets with the ToS compression marker (paper Sec. VI-B).

The INCEPTIONN software stack marks compressible TCP streams by setting
the IP header's Type-of-Service byte to the reserved value ``0x28``;
the NIC's comparator classifies packets on that field.  We model exactly
the fields that behaviour depends on: ToS, header size, payload bytes.
The stack is the testbed's standard one: every message is cut into
``DEFAULT_MSS``-byte payloads behind ``HEADER_BYTES`` of headers.

The codec registry (:mod:`repro.core.registry`) generalizes the paper's
single reserved value into a small ToS code space: every registered
codec claims one ToS byte there, the one table of such bytes.  ``0x28``
stays reserved for the INCEPTIONN codec.

Invariants: ``TOS_DEFAULT`` (0x00) never marks a compressible stream;
segmentation is deterministic — the same payload always yields the
same packet count and sizes (``HEADER_BYTES`` per packet,
``DEFAULT_MSS``-bounded payloads), with no clocks or randomness
involved; tenant traffic classes
(:mod:`repro.network.tenants`) use ToS bytes no codec claims, so
background flows never enter the NIC engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

#: The reserved ToS value marking a packet for NIC (de)compression.
TOS_COMPRESS = 0x28
#: ToS for ordinary traffic.
TOS_DEFAULT = 0x00

#: Ethernet (14) + IPv4 (20) + TCP (20) header bytes.
HEADER_BYTES = 54
#: Standard Ethernet MTU payload budget after IP+TCP headers — the
#: testbed's one segment size.
DEFAULT_MSS = 1460


@dataclass
class Packet:
    """One simulated TCP/IP packet carrying real payload bytes.

    The bit-exact NIC datapath is the only consumer; timing-only paths
    count packets (:func:`packet_count`) instead of building them.
    """

    src: int
    dst: int
    seq: int = 0
    tos: int = TOS_DEFAULT
    payload: bytes = b""
    #: Opaque reference travelling with the packet (e.g. a gradient block).
    context: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.tos <= 0xFF:
            raise ValueError(f"ToS must fit one byte, got {self.tos:#x}")

    @property
    def payload_nbytes(self) -> int:
        """Payload bytes (headers excluded)."""
        return len(self.payload)

    @property
    def wire_nbytes(self) -> int:
        """Total bytes on the wire (headers + payload)."""
        return HEADER_BYTES + self.payload_nbytes


def segment_bytes(
    data: bytes, src: int, dst: int, tos: int = TOS_DEFAULT
) -> List[Packet]:
    """Split a byte string into MSS-sized packets (TCP segmentation).

    A zero-length send still emits one empty packet.
    """
    return [
        Packet(src, dst, seq, tos, data[off : off + DEFAULT_MSS])
        for seq, off in enumerate(range(0, max(1, len(data)), DEFAULT_MSS))
    ]


def packet_count(nbytes: int) -> int:
    """Number of packets a message of ``nbytes`` occupies."""
    return max(1, -(-nbytes // DEFAULT_MSS))


def payload_ratio(raw_nbytes: int, wire_nbytes: int) -> float:
    """Raw payload bytes per wire payload byte — the one ratio rule.

    Zero handling is explicit (``0`` is a value, not "unset"): nothing
    sent as nothing is ratio 1.0, something sent as nothing is infinite.
    """
    if wire_nbytes:
        return raw_nbytes / wire_nbytes
    return float("inf") if raw_nbytes else 1.0


def train_runs(
    num_packets: int, wire_payload: int, raw_payload: int, train_packets: int
) -> List[Tuple[int, Tuple[int, int, int]]]:
    """Divide a message into ``(count, train)`` runs of equal trains.

    A train is ``(packets, wire_bytes, raw_bytes)`` with headers; each
    but the last carries ``train_packets`` packets and draws ``min(left,
    share)`` of each payload, the share its fraction of the packets,
    rounded (the full share, then the rest, then nothing).  The last
    train absorbs the rest and is a run of its own.  The one
    segmentation; both evaluators read it via ``Network.segments``.
    """
    body = -(-num_packets // train_packets) - 1  # trains before the last
    runs: List[Tuple[int, Tuple[int, int, int]]] = []
    wire_left, raw_left = wire_payload, raw_payload
    if body:
        frac = train_packets / num_packets
        wire_share = round(wire_payload * frac)
        raw_share = round(raw_payload * frac)
        ends = {body}
        for total, share in ((wire_payload, wire_share), (raw_payload, raw_share)):
            if share:  # the full share is drawn total // share times
                full = total // share
                ends.update(end for end in (full, full + 1) if end < body)
        headers = train_packets * HEADER_BYTES
        start = 0
        for end in sorted(ends):
            wire, raw = min(wire_left, wire_share), min(raw_left, raw_share)
            wire_left -= (end - start) * wire
            raw_left -= (end - start) * raw
            runs.append((end - start, (train_packets, headers + wire, headers + raw)))
            start = end
    packets = num_packets - body * train_packets
    headers = packets * HEADER_BYTES
    runs.append((1, (packets, headers + wire_left, headers + raw_left)))
    return runs
