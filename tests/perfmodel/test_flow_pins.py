"""Flow-fidelity values pinned bit for bit against a fixed record.

The per-node oracle (:mod:`.reference_flow`) shares the flow
evaluator's send builder, and the packet parity suite compares at a
1e-9 tolerance, so neither notices a change that moves a flow value by
a few ulps.  This table does: ``total_s`` through ``float.hex`` and
the three byte counters, as the flow evaluator computed them when it
still spelled its own stage chain.  Do not edit a row to make a change
pass; a row that moves is a change in what the flow evaluator
computes.

The grid crosses a ring of uneven blocks (5 workers) and an 8-worker
worker-aggregator exchange with raw, INCEPTIONN and ``lossless_hc``
streams, 10 and 1 GbE, and 44- and 4 400-packet trains, over two
iterations.  Compression ratios are fixed so that a codec change does
not move the pins.
"""

import pytest

from repro.core import inceptionn_profile, profile_for
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

#: 250 003 float32 values: blocks of 50 001 and 50 000 on the 5-ring.
NBYTES = 4 * (5 * 50_000 + 3)
#: ``(stream, gradient_ratio)`` by name.
STREAMS = {
    "raw": (None, None),
    "inceptionn": (inceptionn_profile(), 3.9),
    "lossless_hc": (profile_for("lossless_hc"), 1.3),
}
EXCHANGES = {"ring": (simulate_ring_exchange, 5), "wa": (simulate_wa_exchange, 8)}

PINS = [
    # algorithm, stream, Gb/s, train packets, total_s.hex(),
    # sent_nbytes, wire_payload_nbytes, link_payload_nbytes
    ("ring", "raw", 10, 44, "0x1.68fd17e3e47b4p-9", 16000192, 16000192, 32000384),
    ("ring", "raw", 10, 4400, "0x1.68fd17e3e47b0p-9", 16000192, 16000192, 32000384),
    ("ring", "raw", 1, 44, "0x1.b77077bfddae2p-6", 16000192, 16000192, 32000384),
    ("ring", "raw", 1, 4400, "0x1.b77077bfddaecp-6", 16000192, 16000192, 32000384),
    ("ring", "inceptionn", 10, 44, "0x1.314c37c2e3350p-10", 16000192, 4102608, 8205216),
    ("ring", "inceptionn", 10, 4400, "0x1.314c37c2e334fp-10", 16000192, 4102608, 8205216),
    ("ring", "inceptionn", 1, 44, "0x1.fbfa99b10df66p-8", 16000192, 4102608, 8205216),
    ("ring", "inceptionn", 1, 4400, "0x1.d3aee1b2eb82cp-8", 16000192, 4102608, 8205216),
    ("ring", "lossless_hc", 10, 44, "0x1.1a56bc7bfc0cdp-9", 16000192, 12307824, 24615648),
    ("ring", "lossless_hc", 10, 4400, "0x1.0728ad7a1f76ap-9", 16000192, 12307824, 24615648),
    ("ring", "lossless_hc", 1, 44, "0x1.51e9bc2cfda07p-6", 16000192, 12307824, 24615648),
    ("ring", "lossless_hc", 1, 4400, "0x1.3e929c2cfa67bp-6", 16000192, 12307824, 24615648),
    ("wa", "raw", 10, 44, "0x1.54363d47c1ddep-6", 32000384, 32000384, 64000768),
    ("wa", "raw", 10, 4400, "0x1.54363d47c1dd3p-6", 32000384, 32000384, 64000768),
    ("wa", "raw", 1, 44, "0x1.a8e56d68ca563p-3", 32000384, 32000384, 64000768),
    ("wa", "raw", 1, 4400, "0x1.a8e56d68ca552p-3", 32000384, 32000384, 64000768),
    ("wa", "inceptionn", 10, 44, "0x1.09b999e6b1d5fp-6", 32000384, 20102800, 40205600),
    ("wa", "inceptionn", 10, 4400, "0x1.09b999e6b1d57p-6", 32000384, 20102800, 40205600),
    ("wa", "inceptionn", 1, 44, "0x1.3aff52527fa15p-3", 32000384, 20102800, 40205600),
    ("wa", "inceptionn", 1, 4400, "0x1.330358f256ec8p-3", 32000384, 20102800, 40205600),
    ("wa", "lossless_hc", 10, 44, "0x1.38a9b7aca6a89p-6", 32000384, 28308032, 56616064),
    ("wa", "lossless_hc", 10, 4400, "0x1.2e87e10f98dd1p-6", 32000384, 28308032, 56616064),
    ("wa", "lossless_hc", 1, 44, "0x1.8600eccb2b1dep-3", 32000384, 28308032, 56616064),
    ("wa", "lossless_hc", 1, 4400, "0x1.6dd4038907b76p-3", 32000384, 28308032, 56616064),
]


@pytest.mark.parametrize(
    "algorithm, stream, gbps, train_packets, total_hex, sent, wire, link", PINS
)
def test_flow_values_match_the_record(
    algorithm, stream, gbps, train_packets, total_hex, sent, wire, link
):
    simulate, workers = EXCHANGES[algorithm]
    profile, ratio = STREAMS[stream]
    result = simulate(
        workers,
        NBYTES,
        stream=profile,
        gradient_ratio=ratio,
        bandwidth_bps=gbps * 1e9,
        train_packets=train_packets,
        iterations=2,
        fidelity="flow",
    )
    assert (
        result.total_s.hex(),
        result.sent_nbytes,
        result.wire_payload_nbytes,
        result.link_payload_nbytes,
    ) == (total_hex, sent, wire, link)
