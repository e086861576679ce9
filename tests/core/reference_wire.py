"""Scalar BitWriter/BitReader spelling of the group-record wire format.

The oracle the bulk kernels of ``repro.core.container`` are pinned to:
one Python step per lane, no numpy, no shared code with the kernels.
"""

from typing import List, Sequence, Tuple

from hypothesis import strategies as st

from repro.core.bitstream import BitReader, BitWriter
from repro.core.container import GROUP_SIZE, GROUP_TAG_BITS
from repro.core.tags import PAYLOAD_BITS


def pack(tags: Sequence[int], payloads: Sequence[int]) -> Tuple[bytes, List[int]]:
    """The stream and the byte offsets its group records start and end at."""
    writer = BitWriter()
    offsets = [0]
    n = len(tags)
    for first in range(0, n, GROUP_SIZE):
        lanes = range(first, min(first + GROUP_SIZE, n))
        tag_word = 0
        for lane in lanes:
            tag_word |= (int(tags[lane]) & 0b11) << (2 * (lane - first))
        writer.write(tag_word, GROUP_TAG_BITS)
        for lane in lanes:
            # BitWriter keeps the low bits only: garbage above the
            # payload width never reaches the wire.
            writer.write(int(payloads[lane]), PAYLOAD_BITS[int(tags[lane])])
        offsets.append(writer.bit_length // 8)
    return writer.getvalue(), offsets


def unpack(data: bytes) -> Tuple[List[int], List[int], List[int]]:
    """Record offsets, tags and payloads of every whole-group lane.

    Groups are read while a tag vector's worth of bits remains; a record
    that overruns the stream raises :class:`EOFError` (the BitReader's).
    """
    reader = BitReader(data)
    offsets, tags, payloads = [0], [], []
    while reader.bits_remaining >= GROUP_TAG_BITS:
        tag_word = reader.read(GROUP_TAG_BITS)
        group = [(tag_word >> (2 * lane)) & 0b11 for lane in range(GROUP_SIZE)]
        tags += group
        payloads += [reader.read(PAYLOAD_BITS[tag]) for tag in group]
        offsets.append(len(data) - reader.bits_remaining // 8)
    return offsets, tags, payloads


#: Ways to damage a stream, for :func:`damaged`: cut bytes off its end,
#: append bytes, or flip one bit (the index wraps around the stream).
damage = st.one_of(
    st.tuples(st.just("truncate"), st.integers(1, 40)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=40)),
    st.tuples(st.just("flip"), st.integers(0, 10**6)),
)


def damaged(data: bytes, how: Tuple[str, object]) -> bytes:
    """A copy of ``data`` damaged as one draw of :data:`damage` says."""
    kind, arg = how
    if kind == "truncate":
        return data[: max(len(data) - arg, 0)]
    if kind == "extend":
        return data + arg
    if not data:
        return data
    flipped = bytearray(data)
    flipped[(arg // 8) % len(data)] ^= 1 << (arg % 8)
    return bytes(flipped)
