"""Flow-level evaluator: parity against the packet simulator.

Both evaluators read one exchange description (wire sizes, trains, the
ring's block schedule), so parity is pinned *tight*: the ring has zero
cross-flow contention and is exact — uneven blocks and zero-padded
trains included — and WA messages of a few large trains measure at
float rounding noise.  The 1e-9 tolerance below leaves orders of
magnitude of headroom over rounding while still catching any genuine
modeling divergence.  The one real approximation — WA gathers of *many*
small trains, which the packet kernel interleaves round-robin on the
aggregator's downlink and the flow evaluator serves whole-message FIFO —
measures up to 6.4e-5 relative and is pinned separately at 1e-4.
"""

import pytest

from repro.core import inceptionn_profile
from repro.network import RetransmitPolicy
from repro.obs import Tracer
from repro.perfmodel import (
    simulate_exchange,
    simulate_ring_exchange,
    simulate_wa_exchange,
)

#: Pinned flow-vs-packet relative tolerance (see module docstring).
TOL = 1e-9
#: Bound of the whole-message-FIFO approximation on many-train WA gathers.
MANY_TRAIN_TOL = 1e-4

SIMULATORS = [simulate_ring_exchange, simulate_wa_exchange]


def _both(simulate, workers, nbytes, **kwargs):
    packet = simulate(workers, nbytes, **kwargs)
    flow = simulate(workers, nbytes, fidelity="flow", **kwargs)
    return packet, flow


class TestFlowPacketParity:
    @pytest.mark.parametrize("algorithm", ["ring", "wa"])
    @pytest.mark.parametrize("compress", [False, True], ids=["raw", "inc"])
    @pytest.mark.parametrize(
        "workers, nbytes", [(5, 4_000_004), (8, 1_000_000)], ids=["uneven", "even"]
    )
    def test_flow_and_packet_keep_one_ledger(self, algorithm, compress, workers, nbytes):
        # Both evaluators add each send to one TransferSummary with the same
        # ``add``, so every field of the ledger is equal, not just close.
        kwargs = {"stream": inceptionn_profile(), "gradient_ratio": 6.0} if compress else {}
        packet = simulate_exchange(algorithm, workers, nbytes, iterations=2, **kwargs)
        flow = simulate_exchange(
            algorithm, workers, nbytes, iterations=2, fidelity="flow", **kwargs
        )
        assert packet.transfers.messages > 0
        assert flow.transfers == packet.transfers

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
        assert flow.link_payload_nbytes == packet.link_payload_nbytes
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

    @pytest.mark.parametrize("compress", [False, True])
    def test_ring_uneven_blocks_and_padded_trains_are_exact(self, compress):
        # 1096 values over 3 workers: blocks of 1464/1460/1460 bytes, so at
        # one packet per train the first block has 2 trains and the others
        # 1 — every step mixes sizes and pads the shorter messages.
        packet, flow = _both(
            simulate_ring_exchange,
            3,
            4384,
            train_packets=1,
            stream=inceptionn_profile() if compress else None,
        )
        assert flow.total_s == packet.total_s
        assert flow.sent_nbytes == packet.sent_nbytes
        assert flow.wire_payload_nbytes == packet.wire_payload_nbytes
        assert flow.link_payload_nbytes == packet.link_payload_nbytes

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("train_packets", [1, 2])
    @pytest.mark.parametrize("compress", [False, True])
    def test_wa_many_train_gather_bound(self, workers, train_packets, compress):
        packet, flow = _both(
            simulate_wa_exchange,
            workers,
            100_000,
            train_packets=train_packets,
            stream=inceptionn_profile() if compress else None,
        )
        assert flow.total_s == pytest.approx(packet.total_s, rel=MANY_TRAIN_TOL)
        assert flow.link_payload_nbytes == packet.link_payload_nbytes

    def test_link_payload_is_hop_weighted(self):
        # The star's two hops: uplink + downlink.
        packet, flow = _both(
            simulate_ring_exchange, 4, 2_000_000, stream=inceptionn_profile()
        )
        assert packet.link_payload_nbytes == 2 * packet.wire_payload_nbytes
        assert flow.link_payload_nbytes == packet.link_payload_nbytes == 6_361_824

    def test_explicit_stream_matches(self):
        stream = inceptionn_profile()
        packet, flow = _both(simulate_wa_exchange, 4, 2_000_000, stream=stream)
        assert flow.total_s == pytest.approx(packet.total_s, rel=TOL)
        assert flow.wire_ratio == pytest.approx(packet.wire_ratio, rel=TOL)


class TestFlowScaling:
    @pytest.mark.parametrize("workers", [1024, 16_384])
    def test_ring_sweep_steps_runs_not_nodes(self, workers, deliver_widths):
        # Acceptance criterion: a Fig-15-style point completes in
        # seconds, not hours — asserted as a count that repeats exactly,
        # not on the host clock.  100 MB does not divide by either ring,
        # so every step evaluates a few runs of equal blocks: 4 at 1 024
        # workers, a mean of 6.1 (max 9) at 16 384 (the per-node
        # evaluator handed ``deliver`` ``workers`` messages a step and
        # would not finish the 16 384-worker point).
        result = simulate_ring_exchange(
            workers, 100_000_000, stream=inceptionn_profile(), fidelity="flow"
        )
        steps = 2 * workers - 2
        assert len(deliver_widths) == steps
        assert sum(deliver_widths) <= 8 * steps
        assert result.total_s > 0.0
        assert result.num_workers == workers

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

    def test_flow_retransmit_policy_is_inert_without_loss(self):
        # Recovery acts only on a lost train: on a lossless fabric any
        # policy is the default run, bit for bit.
        for simulate in SIMULATORS:
            default = simulate(4, 2_000_000, fidelity="flow")
            tuned = simulate(
                4, 2_000_000, fidelity="flow",
                retransmit=RetransmitPolicy(rto_s=300e-6),
            )
            assert tuned.total_s.hex() == default.total_s.hex()
            assert tuned.phases == default.phases
            assert tuned.wire_payload_nbytes == default.wire_payload_nbytes

    @pytest.mark.parametrize("simulate", SIMULATORS)
    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_zero_iterations_rejected(self, simulate, fidelity):
        with pytest.raises(ValueError, match="at least one iteration"):
            simulate(4, 1000, iterations=0, fidelity=fidelity)

    def test_flow_rejects_ratio_below_one(self):
        # The flow evaluator sizes messages through build_wire_message,
        # so it inherits the packet path's ratio validation.
        with pytest.raises(ValueError, match="ratio must be >= 1"):
            simulate_ring_exchange(
                4,
                1000,
                stream=inceptionn_profile(),
                gradient_ratio=0.5,
                fidelity="flow",
            )

    def test_flow_names_the_options_it_rejected(self):
        from repro.network import parse_tenants

        with pytest.raises(ValueError) as excinfo:
            simulate_ring_exchange(
                4,
                1000,
                fidelity="flow",
                tenants=parse_tenants("train:2"),
                prioritize=True,
            )
        assert str(excinfo.value).startswith(
            "fidelity='flow' does not model: tenants, prioritize;"
        )

    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_ring_rejects_a_fractional_float32_count(self, fidelity):
        # 8 199 999 is what ``int(8.2 * 1e6)`` used to hand over; the ring
        # then dropped three more bytes while WA sent all of them.
        with pytest.raises(ValueError, match="whole number"):
            simulate_ring_exchange(4, 8_199_999, fidelity=fidelity)
        wa = simulate_wa_exchange(4, 1001, fidelity=fidelity)
        assert wa.sent_nbytes == 2 * 4 * 1001

    def test_hierarchy_rejects_a_fractional_float32_count_up_front(self):
        # Its rings split the gradient too; the refusal comes before the
        # ratio is measured, with the ring's message.
        with pytest.raises(ValueError, match="hierarchy exchanges blocks .* whole"):
            simulate_exchange(
                "hierarchy", 4, 1001, stream=inceptionn_profile(),
                options={"group_size": 2},
            )

    def test_flow_rejects_tracer(self):
        with pytest.raises(ValueError, match="tracing"):
            simulate_wa_exchange(4, 1000, fidelity="flow", tracer=Tracer())
