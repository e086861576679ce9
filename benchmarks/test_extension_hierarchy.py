"""Extension bench: hierarchical worker groups (Fig 1c) at scale.

The paper presents the worker group as the building block and sketches
hierarchical composition.  This bench measures the two-level exchange
against the flat ring and the WA tree as the cluster grows, at paper
message sizes.
"""

import pytest

from conftest import print_header, print_row, run_once

MB = 2**20
MODEL_BYTES = 98 * MB  # ResNet-50


def _flat_ring_time(num_nodes, nbytes):
    from repro.perfmodel import simulate_ring_exchange

    return simulate_ring_exchange(num_nodes, nbytes).total_s


def _wa_time(num_nodes, nbytes):
    from repro.perfmodel import simulate_wa_exchange

    return simulate_wa_exchange(num_nodes, nbytes).total_s


def _hier_time(num_nodes, group_size, nbytes):
    from repro.perfmodel import simulate_exchange

    return simulate_exchange(
        "hierarchy", num_nodes, nbytes, options={"group_size": group_size}
    ).total_s


@pytest.fixture(scope="module")
def times():
    out = {}
    for nodes in (8, 16):
        out[("WA", nodes)] = _wa_time(nodes, MODEL_BYTES)
        out[("flat ring", nodes)] = _flat_ring_time(nodes, MODEL_BYTES)
        out[("hier 4x" + str(nodes // 4), nodes)] = _hier_time(
            nodes, 4, MODEL_BYTES
        )
    return out


def test_hierarchy_vs_flat(benchmark, times):
    results = run_once(benchmark, lambda: times)
    print_header("Extension: hierarchical groups vs flat ring (ResNet-50)")
    print_row("scheme / nodes", "time (s)")
    for (scheme, nodes), t in results.items():
        print_row(f"{scheme} @ {nodes}", f"{t:.3f}")


def test_both_ring_schemes_beat_wa(times):
    for nodes in (8, 16):
        wa = times[("WA", nodes)]
        assert times[("flat ring", nodes)] < wa
        assert times[(f"hier 4x{nodes // 4}", nodes)] < wa


def test_flat_ring_wins_at_this_scale(times):
    # The flat ring is bandwidth-optimal; the hierarchy's downstream
    # full-vector broadcast costs extra.  Hierarchy pays off only when
    # ring latency terms (2(p-1) alpha) dominate — far beyond 16 nodes
    # at these message sizes.  Recording the crossover's direction here.
    for nodes in (8, 16):
        assert times[("flat ring", nodes)] <= times[(f"hier 4x{nodes // 4}", nodes)]
