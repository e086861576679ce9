"""Bit-exact pins for the switched-star path across the fabric refactor.

The hex values below were captured from the exchange simulators
immediately *before* the multi-tier fabric subsystem landed.  The star
remains the default topology and the degenerate single-tier case of
``build_topology``; both the implicit default (``topology=None``) and
the explicit ``topology="star"`` spelling must reproduce these numbers
bit-for-bit — any drift means the refactor changed single-tier timing.
"""

import pytest

from repro.core import inceptionn_profile
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

NBYTES = 2_000_000

#: (algorithm, workers, compress) -> (total_s.hex(), sent, wire_payload),
#: captured pre-refactor from fn(workers, 2 MB, iterations=1).
PINS = {
    ("ring", 4, False): ("0x1.4b1c4b1ebe2f6p-9", 12_000_000, 12_000_000),
    ("ring", 4, True): ("0x1.0b68899955d90p-10", 12_000_000, 3_180_912),
    ("ring", 6, False): ("0x1.72a2ce906023dp-9", 20_000_000, 20_000_000),
    ("wa", 4, False): ("0x1.b35a28f91a1e0p-7", 16_000_000, 16_000_000),
    ("wa", 4, True): ("0x1.2ee33d7765da6p-7", 16_000_000, 10_120_604),
    ("wa", 6, False): ("0x1.466991812bc07p-6", 24_000_000, 24_000_000),
}

SIMULATORS = {"ring": simulate_ring_exchange, "wa": simulate_wa_exchange}


@pytest.mark.parametrize("algo,workers,compress", sorted(PINS))
@pytest.mark.parametrize("topology", [None, "star"])
def test_star_path_is_bit_exact(algo, workers, compress, topology):
    pin_hex, sent, wire_payload = PINS[(algo, workers, compress)]
    result = SIMULATORS[algo](
        workers,
        NBYTES,
        iterations=1,
        stream=inceptionn_profile() if compress else None,
        topology=topology,
    )
    assert result.total_s.hex() == pin_hex
    assert result.sent_nbytes == sent
    assert result.wire_payload_nbytes == wire_payload
    assert result.background_messages == 0


def test_default_and_explicit_star_identical_with_codec():
    stream = inceptionn_profile()
    implicit = simulate_ring_exchange(4, NBYTES, stream=stream)
    explicit = simulate_ring_exchange(4, NBYTES, stream=stream, topology="star")
    assert implicit.total_s == explicit.total_s
    assert implicit.wire_payload_nbytes == explicit.wire_payload_nbytes
