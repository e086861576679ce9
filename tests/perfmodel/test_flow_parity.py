"""Flow-level fast path: parity against the packet simulator.

The flow model (``repro.perfmodel.flowsim``) mirrors the packet
kernel's arithmetic operation for operation, so parity is pinned
*tight*: the ring topology has zero cross-flow contention and is exact,
and the WA gather's whole-message FIFO approximation measures at float
rounding noise (<= 7e-16 relative) across every tested configuration.
The 1e-9 tolerance below leaves three orders of magnitude of headroom
over rounding while still catching any genuine modeling divergence.
"""

import time

import pytest

from repro.core import inceptionn_profile
from repro.network import RetransmitPolicy
from repro.obs import Tracer
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

#: Pinned flow-vs-packet relative tolerance (see module docstring).
TOL = 1e-9

SIMULATORS = [simulate_ring_exchange, simulate_wa_exchange]


def _both(simulate, workers, nbytes, **kwargs):
    packet = simulate(workers, nbytes, **kwargs)
    flow = simulate(workers, nbytes, fidelity="flow", **kwargs)
    return packet, flow


class TestFlowPacketParity:
    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("compress", [False, True])
    def test_single_train_totals_match(self, simulate, workers, compress):
        packet, flow = _both(
            simulate,
            workers,
            2_000_000,
            iterations=2,
            stream=inceptionn_profile() if compress else None,
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes
        assert flow.iterations == packet.iterations

    @pytest.mark.parametrize("simulate", SIMULATORS)
    def test_multi_train_totals_match(self, simulate):
        # > ~6.4 MB splits messages into several 4400-packet trains,
        # exercising the cut-through pipelining arithmetic.
        packet, flow = _both(
            simulate, 3, 20_000_000, stream=inceptionn_profile()
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes

    def test_explicit_stream_matches(self):
        stream = inceptionn_profile()
        packet, flow = _both(simulate_wa_exchange, 4, 2_000_000, stream=stream)
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.wire_ratio == pytest.approx(packet.wire_ratio, rel=TOL)


class TestFlowScaling:
    def test_1024_worker_ring_sweep_is_fast(self):
        # Acceptance criterion: a Fig-15-style point at 1024 workers
        # completes in seconds, not hours.
        t0 = time.perf_counter()
        result = simulate_ring_exchange(
            1024, 100_000_000, stream=inceptionn_profile(), fidelity="flow"
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0
        assert result.total_s > 0.0
        assert result.num_workers == 1024

    def test_flow_scaling_is_monotonic_in_workers(self):
        totals = [
            simulate_wa_exchange(
                p, 10_000_000, stream=inceptionn_profile(), fidelity="flow"
            ).total_s
            for p in (4, 8, 16)
        ]
        assert totals == sorted(totals)


class TestFlowGuards:
    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            simulate_ring_exchange(4, 1000, fidelity="quantum")

    def test_flow_rejects_loss(self):
        with pytest.raises(ValueError, match="loss"):
            simulate_ring_exchange(4, 1000, fidelity="flow", loss_rate=0.1)

    def test_flow_rejects_retransmission(self):
        with pytest.raises(ValueError, match="retransmission"):
            simulate_wa_exchange(
                4, 1000, fidelity="flow", retransmit=RetransmitPolicy()
            )

    def test_flow_rejects_tracer(self):
        with pytest.raises(ValueError, match="tracing"):
            simulate_wa_exchange(4, 1000, fidelity="flow", tracer=Tracer())
