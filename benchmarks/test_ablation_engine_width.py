"""Ablation: Compression Engine width (number of CBs).

The reference design uses eight Compression Blocks so one 256-bit burst
retires per 100 MHz cycle (3.2 GB/s) — comfortably above the 10 GbE
line rate, so the engine never throttles the NIC.  Narrower engines
save area but fall below line rate and become the bottleneck; this
bench quantifies where the knee sits, both at the engine level and in
end-to-end message timing.
"""

import numpy as np
import pytest

from conftest import print_header, print_row, run_once
from repro.core import ErrorBound, inceptionn_profile
from repro.hardware import CompressionEngine
from repro.transport import ClusterComm, ClusterConfig, SizedPayload

BOUND = ErrorBound(10)
WIDTHS = (1, 2, 4, 8, 16)
LINE_RATE_BPS = 10e9 / 8  # bytes/second of 10 GbE


def test_engine_width_throughput(benchmark):
    def run():
        out = {}
        payload = (
            np.random.default_rng(0).standard_normal(8 * 500) * 0.05
        ).astype(np.float32).tobytes()
        reference = None
        for width in WIDTHS:
            engine = CompressionEngine(BOUND, num_blocks=width)
            stream, stats = engine.compress(payload)
            if reference is None:
                reference = stream
            assert stream == reference  # width never changes the bits
            out[width] = (engine.throughput_bps(), stats.cycles)
        return out

    results = run_once(benchmark, run)
    print_header("Ablation: engine width vs streaming throughput")
    print_row("CBs", "GB/s", "cycles/500 bursts", "> line rate?")
    for width, (bps, cycles) in results.items():
        print_row(
            str(width),
            f"{bps / 1e9:.2f}",
            str(cycles),
            "yes" if bps >= LINE_RATE_BPS else "NO",
        )
    # 8 CBs (the paper's design point) is the narrowest width that
    # clears the 10 GbE line rate with margin.
    assert results[8][0] >= LINE_RATE_BPS * 2
    assert results[4][0] >= LINE_RATE_BPS
    assert results[2][0] < LINE_RATE_BPS


def test_engine_width_end_to_end(benchmark):
    def run():
        nbytes = 16 * 2**20
        times = {}
        stream = inceptionn_profile()
        for width in WIDTHS:
            comm = ClusterComm(
                ClusterConfig(num_nodes=2, engine_blocks=width, profile=stream)
            )
            sender = comm.endpoints[0]
            msg = sender.build_message(1, SizedPayload(nbytes, 8.0), stream)
            done = {}
            ev = sender.isend_message(msg)
            ev.add_callback(lambda e: done.setdefault("t", comm.sim.now))
            comm.run()
            times[width] = done["t"]
        return times

    times = run_once(benchmark, run)
    print_header("Ablation: engine width vs 16 MB compressed transfer time")
    print_row("CBs", "time (ms)")
    for width, t in times.items():
        print_row(str(width), f"{1e3 * t:.2f}")
    # Narrow engines gate the transfer; 8 and 16 CBs are equivalent
    # because the wire (not the engine) limits them.
    assert times[1] > times[8] * 3
    assert times[16] == pytest.approx(times[8], rel=0.05)
    assert times[8] < times[4] + 1e-9 or times[8] == pytest.approx(times[4], rel=0.3)
