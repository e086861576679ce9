"""One message, one wire representation (paper Figs 8–11).

A :class:`WireMessage` is the single artifact every send produces: the
stream's codec runs **at most once per block** through the sender NIC's
engine dispatch, yielding the message's wire size, its ToS tag, its
packet count and the receiver's reconstruction.  Every consumer then
reads from that one object:

* the network simulator clocks ``wire_nbytes`` (timing domain),
* the receiver endpoint hands it to the destination NIC's Tag-Decoder
  path via :meth:`WireMessage.deliver` (functional domain),
* :class:`repro.hardware.nic.NicCounters` and the obs codec spans are
  fed from the same build, not from parallel call sites.

Two build modes share the pipeline: *functional* (``array=``) runs the
real codec and carries the lossy reconstruction; *size-only*
(``nbytes=``) moves bytes for paper-scale timing studies, with the wire
size derived from a caller-measured ratio (see
:func:`measure_stream_ratio`).  Above :func:`build_wire_message` a
size-only gradient is a :class:`SizedPayload`, which the exchange
primitives, endpoints and the switch gather take wherever they take an
array.

Forwards reuse: a node passing a received compressed message on to the
next hop re-addresses it instead of re-encoding its values, when the
codec advertises :data:`~repro.core.registry.CAP_FIXED_POINT` —
re-encoding would give the same values and size
(:meth:`repro.transport.Endpoint.forward`).

A message is described by its totals, never by per-packet objects: the
packet count is ``packet_count(nbytes)`` at the testbed MSS, and the
network cuts the totals into packet trains
(:meth:`repro.network.Network.segments`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.core import StreamProfile
from repro.network.packet import HEADER_BYTES, TOS_DEFAULT, packet_count, payload_ratio

if TYPE_CHECKING:
    from repro.hardware.nic import InceptionnNic

#: Sample size for measuring a stream's compression ratio.  Small enough
#: for the bit-serial Python codecs (sz_like, snappy_like) to stay fast.
RATIO_SAMPLE_VALUES = 1 << 14


@dataclass(frozen=True)
class SizedPayload:
    """A size-only gradient: ``nbytes`` of float32 values, no values.

    Paper-scale timing studies hand one to the exchange primitives
    where a functional run hands an array, so a 525 MB gradient is
    timed without being allocated.  ``ratio`` is the stream's measured
    compression ratio; ``None`` (not 0.0) means unmeasured, the raw
    size.  A ratio must be finite and >= 1: the wire never inflates,
    and an infinite or NaN ratio has no wire size.
    """

    nbytes: int
    ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        ratio = self.ratio
        if not (ratio is None or (math.isfinite(ratio) and ratio >= 1.0)):
            raise ValueError(
                f"compression ratio must be >= 1 and finite (got {ratio!r}); "
                "pass None for uncompressed"
            )

    @property
    def compressed_nbytes(self) -> int:
        """On-wire payload when the stream compresses, at ``ratio``.

        Every size-only consumer (endpoint sends, the switch gather's
        leaf offers, the flow evaluator) rounds here.
        """
        return int(round(self.nbytes / (1.0 if self.ratio is None else self.ratio)))


#: What a send carries: real values, or only their size.
Payload = Union[np.ndarray, SizedPayload]


@dataclass
class WireMessage:
    """A message as the wire sees it: header info plus packet totals."""

    src: int
    dst: int
    tos: int
    codec: Optional[str]
    #: Application (uncompressed) bytes.
    nbytes: int
    #: On-wire payload bytes (post-engine, headers excluded).
    wire_payload_nbytes: int
    num_packets: int
    compressed: bool
    #: Size-only messages move bytes, not values (paper-scale timing).
    size_only: bool
    #: Receiver-side reconstruction (codec output); None when size-only.
    values: Optional[np.ndarray] = None

    @property
    def wire_nbytes(self) -> int:
        """Total bytes clocked on the wire (headers + payload)."""
        return self.num_packets * HEADER_BYTES + self.wire_payload_nbytes

    @property
    def ratio(self) -> float:
        """Achieved payload compression ratio (1.0 for empty messages)."""
        return payload_ratio(self.nbytes, self.wire_payload_nbytes)

    @property
    def payload(self) -> object:
        """What the receiving host observes: the reconstructed values,
        or (size-only) their size as a raw :class:`SizedPayload`."""
        return SizedPayload(self.nbytes) if self.size_only else self.values

    def deliver(self, nic: Optional["InceptionnNic"] = None) -> object:
        """What the destination host observes after the RX pipeline.

        Models the paper's Fig 10 receive path: the train lands in the
        Burst Buffer, the Tag Decoder walks it packet by packet, and the
        host sees the reconstructed values (or, size-only, their
        :class:`SizedPayload`).  ``nic`` is the destination's functional NIC; its RX
        counters tick once per successful delivery regardless of how
        many wire traversals retransmissions needed.
        """
        if nic is not None:
            engine_packets = self.num_packets if self.compressed else 0
            nic.account_rx(self.num_packets, engine_packets)
        return self.payload


def build_wire_message(
    src: int,
    dst: int,
    *,
    stream: Optional[StreamProfile] = None,
    array: Optional[np.ndarray] = None,
    nbytes: Optional[int] = None,
    nic: Optional["InceptionnNic"] = None,
    ratio: Optional[float] = None,
) -> WireMessage:
    """Build the single wire representation of one send.

    Exactly one of ``array`` (functional mode: the codec runs on the
    real values) or ``nbytes`` (size-only mode: the wire size comes
    from ``ratio``) must be given.  ``stream=None`` is a raw send.
    ``nic`` is the *sender's* functional NIC: a stream is compressed,
    under its codec's ToS, exactly when that NIC is enabled, and its TX
    counters tick for the built train.

    ``nbytes`` and ``ratio`` are checked as a :class:`SizedPayload`
    before the compression check — a bad ratio is a caller bug no
    matter what engines are present.
    """
    if (array is None) == (nbytes is None):
        raise ValueError("pass exactly one of array= or nbytes=")
    if ratio is not None and array is not None:
        raise ValueError(
            "ratio= only applies to size-only messages; functional "
            "sends measure their ratio by running the codec"
        )
    sized = None if nbytes is None else SizedPayload(int(nbytes), ratio)
    compressed = stream is not None and nic is not None and nic.enabled
    tos = stream.tos if compressed else TOS_DEFAULT
    codec_name = stream.codec if compressed else None
    values: Optional[np.ndarray] = None

    if array is not None:
        arr = np.ascontiguousarray(array, dtype=np.float32)
        raw_nbytes = arr.nbytes
        if compressed:
            result = stream.compress(arr.reshape(-1))
            wire_payload = result.payload_nbytes
            values = result.values.reshape(arr.shape)
        else:
            wire_payload = raw_nbytes
            values = arr
        size_only = False
    else:
        raw_nbytes = sized.nbytes
        wire_payload = sized.compressed_nbytes if compressed else raw_nbytes
        size_only = True

    num_packets = packet_count(raw_nbytes)
    msg = WireMessage(
        src=src,
        dst=dst,
        tos=tos,
        codec=codec_name,
        nbytes=raw_nbytes,
        wire_payload_nbytes=wire_payload,
        num_packets=num_packets,
        compressed=compressed,
        size_only=size_only,
        values=values,
    )
    if nic is not None:
        account_tx_traversal(nic, msg, num_packets, raw_nbytes, wire_payload)
    return msg


def account_tx_traversal(
    nic: "InceptionnNic",
    msg: WireMessage,
    packets: int,
    raw_nbytes: int,
    wire_nbytes: int,
) -> None:
    """Tick a sender NIC's TX counters for one wire traversal.

    Called once at build time and once more per retransmission — the
    counters see every traversal of the wire, while RX counters (in
    :meth:`WireMessage.deliver`) see only the successful one.
    """
    if msg.compressed:
        nic.account_tx(packets, packets, raw_nbytes, wire_nbytes)
    else:
        nic.account_tx(packets, 0, 0, 0)


def measure_stream_ratio(
    stream: Optional[StreamProfile],
    sample: Optional[np.ndarray] = None,
    seed: int = 0,
) -> float:
    """Compression ratio of a stream's codec on sampled gradients.

    Size-only messages cannot run the codec on real payloads, so
    paper-scale simulations measure the ratio once on a gradient-like
    sample and apply it to every message — the paper's own methodology
    for its Table II/Fig 15 projections.  A raw stream (``None``) is 1.0.
    """
    if stream is None:
        return 1.0
    if sample is None:
        rng = np.random.default_rng(seed)
        sample = (rng.standard_normal(RATIO_SAMPLE_VALUES) * 0.004).astype(
            np.float32
        )
    result = stream.compress(sample)
    # Sized sends reject ratios below 1 (the wire never inflates), so
    # clamp expansion (e.g. lossless LZ on incompressible floats).
    return max(1.0, sample.nbytes / max(1, result.payload_nbytes))


__all__ = [
    "Payload",
    "SizedPayload",
    "WireMessage",
    "account_tx_traversal",
    "build_wire_message",
    "measure_stream_ratio",
]
