"""Zero-vs-unset regressions: cousins of the sized-send zero-ratio bug.

A falsy check (``x or default``, ``if x:``) once collapsed a legitimate
``0.0`` into "unset".  These tests pin the explicit-zero semantics of
every consumer that used to share the pattern: normalized phase dicts,
breakdown fractions, and the wire-ratio accounting of zero-byte
traffic.
"""

import numpy as np

from repro.core import profile_for
from repro.distributed import DistributedRunResult
from repro.obs import PhaseTimes
from repro.hardware import NicCounters
from repro.network.packet import payload_ratio
from repro.transport import ClusterComm, ClusterConfig, TransferSummary


def _zero_run():
    return DistributedRunResult(
        algorithm="ring",
        num_workers=2,
        iterations=0,
        losses=[],
        final_top1=0.0,
        final_top5=0.0,
        virtual_time_s=0.0,
        phases=PhaseTimes(),
    )


class TestZeroTotals:
    def test_all_zero_phases_normalize_to_zero(self):
        run = _zero_run()
        assert run.communication_fraction == 0.0
        assert set(run.phases.normalized().values()) == {0.0}

    def test_zero_breakdown_normalizes_without_nan(self):
        assert all(v == 0.0 for v in PhaseTimes().normalized().values())
        assert PhaseTimes().communication_fraction == 0.0


class TestZeroByteWireAccounting:
    def test_empty_summary_is_ratio_one(self):
        summary = TransferSummary()
        assert summary == TransferSummary(0, 0, 0, 0)
        assert summary.wire_ratio == 1.0

    def test_zero_byte_transfer_is_ratio_one_not_inf(self):
        summary = TransferSummary().add(0, 0, compressed=False, hops=1)
        assert summary.messages == 1
        assert summary.wire_ratio == 1.0

    def test_zero_byte_send_flows_through_pipeline(self):
        comm = ClusterComm(ClusterConfig(num_nodes=2))
        got = []

        def sender():
            ep = comm.endpoints[0]
            yield ep.isend(1, np.zeros(0, dtype=np.float32))

        def receiver():
            got.append((yield comm.endpoints[1].recv(0)))

        comm.sim.process(sender())
        comm.sim.process(receiver())
        comm.run()
        (received,) = got
        assert received.size == 0
        summary = comm.transfers
        assert summary.messages == 1
        assert summary.nbytes == 0
        assert summary.wire_ratio == 1.0

    def test_nonzero_payload_of_zero_wire_is_infinite_ratio(self):
        # The inverse corner: bytes sent but nothing on the wire is an
        # infinite ratio, never a silent 1.0.
        summary = TransferSummary().add(100, 0, compressed=True, hops=1)
        assert summary.wire_ratio == float("inf")


class TestOneRatioRule:
    """Every ratio property answers through ``packet.payload_ratio``."""

    def test_rule_corners(self):
        assert payload_ratio(0, 0) == 1.0
        assert payload_ratio(100, 0) == float("inf")
        assert payload_ratio(100, 25) == 4.0

    def test_empty_codec_result_is_ratio_one_not_inf(self):
        result = profile_for("identity").compress(np.zeros(0, np.float32))
        assert result.payload_nbytes == 0
        assert result.compression_ratio == 1.0

    def test_nic_counters_nonzero_in_zero_out_is_infinite_not_one(self):
        counters = NicCounters(tx_payload_bytes_in=64, tx_payload_bytes_out=0)
        assert counters.tx_compression_ratio == float("inf")
        assert NicCounters().tx_compression_ratio == 1.0
