"""TCP/IP-style packets with the ToS compression marker (paper Sec. VI-B).

The INCEPTIONN software stack marks compressible TCP streams by setting
the IP header's Type-of-Service byte to the reserved value ``0x28``;
the NIC's comparator classifies packets on that field.  We model exactly
the fields that behaviour depends on: ToS, header size, payload bytes.

The codec registry (:mod:`repro.core.registry`) generalizes the paper's
single reserved value into a small ToS code space: every registered
codec claims one ToS byte via :func:`register_compressible_tos`, and the
NIC/simulator treat any claimed code as "run this stream through the
engines".  ``0x28`` stays reserved for the INCEPTIONN codec.

Invariants: ToS claims are idempotent and ``TOS_DEFAULT`` (0x00) can
never mark a compressible stream; segmentation is deterministic — the
same payload always yields the same packet count and sizes
(``HEADER_BYTES`` per packet, MSS-bounded payloads), with no clocks or
randomness involved; tenant traffic classes
(:mod:`repro.network.tenants`) use ToS bytes no codec claims, so
background flows never enter the NIC engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: The reserved ToS value marking a packet for NIC (de)compression.
TOS_COMPRESS = 0x28
#: ToS for ordinary traffic.
TOS_DEFAULT = 0x00

#: ToS codes currently claimed by (de)compression engines.
_COMPRESSIBLE_TOS = {TOS_COMPRESS}


def register_compressible_tos(tos: int) -> int:
    """Claim a ToS byte as marking engine-processed streams.

    Idempotent; returns the registered code.  ``TOS_DEFAULT`` cannot be
    claimed — ordinary traffic must always bypass the engines.
    """
    if not 0 <= tos <= 0xFF:
        raise ValueError(f"ToS must fit one byte, got {tos:#x}")
    if tos == TOS_DEFAULT:
        raise ValueError("the default ToS cannot mark compressible streams")
    _COMPRESSIBLE_TOS.add(tos)
    return tos


def is_compressible_tos(tos: int) -> bool:
    """True when ``tos`` is claimed by a registered codec/engine."""
    return tos in _COMPRESSIBLE_TOS

#: Ethernet (14) + IPv4 (20) + TCP (20) header bytes.
HEADER_BYTES = 54
#: Standard Ethernet MTU payload budget after IP+TCP headers.
DEFAULT_MSS = 1460


@dataclass
class Packet:
    """One simulated TCP/IP packet.

    ``payload`` may carry real bytes (when the hardware model processes
    them bit-exactly) or be ``None`` with only ``payload_nbytes`` set
    (when only timing matters and materializing hundreds of megabytes
    would be wasteful).
    """

    src: int
    dst: int
    seq: int = 0
    tos: int = TOS_DEFAULT
    payload: Optional[bytes] = None
    payload_nbytes: int = 0
    #: Opaque reference travelling with the packet (e.g. a gradient block).
    context: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.payload is not None:
            actual = len(self.payload)
            if self.payload_nbytes and self.payload_nbytes != actual:
                raise ValueError(
                    f"payload_nbytes={self.payload_nbytes} disagrees with "
                    f"len(payload)={actual}"
                )
            self.payload_nbytes = actual
        if self.payload_nbytes < 0:
            raise ValueError("payload size cannot be negative")
        if not 0 <= self.tos <= 0xFF:
            raise ValueError(f"ToS must fit one byte, got {self.tos:#x}")

    @property
    def wire_nbytes(self) -> int:
        """Total bytes on the wire (headers + payload)."""
        return HEADER_BYTES + self.payload_nbytes

    @property
    def compressible(self) -> bool:
        """True when the NIC should run this packet through the engines."""
        return is_compressible_tos(self.tos)


def segment_bytes(
    data: bytes,
    src: int,
    dst: int,
    tos: int = TOS_DEFAULT,
    mss: int = DEFAULT_MSS,
) -> List[Packet]:
    """Split a byte string into MSS-sized packets (TCP segmentation)."""
    if mss <= 0:
        raise ValueError("mss must be positive")
    packets = [
        Packet(src=src, dst=dst, seq=seq, tos=tos, payload=data[off : off + mss])
        for seq, off in enumerate(range(0, len(data), mss))
    ]
    if not packets:  # zero-length send still emits one empty packet
        packets = [Packet(src=src, dst=dst, seq=0, tos=tos, payload=b"")]
    return packets


def packet_count(nbytes: int, mss: int = DEFAULT_MSS) -> int:
    """Number of packets a message of ``nbytes`` occupies."""
    return max(1, -(-nbytes // mss))


def payload_ratio(raw_nbytes: int, wire_nbytes: int) -> float:
    """Raw payload bytes per wire payload byte — the one ratio rule.

    Zero handling is explicit (``0`` is a value, not "unset"): nothing
    sent as nothing is ratio 1.0, something sent as nothing is infinite.
    """
    if wire_nbytes:
        return raw_nbytes / wire_nbytes
    return float("inf") if raw_nbytes else 1.0


def distribute_payload(nbytes: int, num_packets: int) -> List[int]:
    """Spread ``nbytes`` of payload over ``num_packets`` packets.

    Cumulative rounding: packet ``k`` carries the difference between the
    rounded ``k``-th and ``(k-1)``-th cumulative shares, so the sizes
    always sum to ``nbytes`` exactly and differ by at most one byte.
    Used for the per-packet view of a compressed stream, whose total
    wire size is measured at message granularity.
    """
    if num_packets < 1:
        raise ValueError("need at least one packet")
    if nbytes < 0:
        raise ValueError("nbytes cannot be negative")
    sizes: List[int] = []
    prev = 0
    for k in range(1, num_packets + 1):
        cur = round(nbytes * k / num_packets)
        sizes.append(cur - prev)
        prev = cur
    return sizes


def split_trains(
    num_packets: int, wire_payload: int, raw_payload: int, train_packets: int
) -> List[Tuple[int, int, int]]:
    """Divide a message into packet trains with proportional bytes.

    Returns ``(packets, wire_bytes, raw_bytes)`` per train, byte counts
    including per-packet headers.  The one definition both exchange
    evaluators segment with: the event kernel spawns a process per
    train, the flow evaluator tabulates them per message size.
    """
    trains: List[Tuple[int, int, int]] = []
    remaining_packets = num_packets
    wire_left, raw_left = wire_payload, raw_payload
    while remaining_packets > 0:
        pkts = min(train_packets, remaining_packets)
        frac = pkts / num_packets
        wire = min(wire_left, round(wire_payload * frac))
        raw = min(raw_left, round(raw_payload * frac))
        remaining_packets -= pkts
        if remaining_packets == 0:  # last train absorbs rounding
            wire, raw = wire_left, raw_left
        wire_left -= wire
        raw_left -= raw
        trains.append(
            (pkts, pkts * HEADER_BYTES + wire, pkts * HEADER_BYTES + raw)
        )
    return trains
