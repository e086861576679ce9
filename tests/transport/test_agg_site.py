"""End-to-end aggregation-site parity: switch vs endpoint reduction.

The acceptance property of the aggregation-site refactor: moving the
gradient sum from the aggregating endpoint into the fabric's switches
changes *where* bytes flow (fewer link-level bytes, engine cycles on
the switches) but not *what* the model learns — final weights must be
bit-exact between the two sites for every homomorphic codec.
"""

import numpy as np
import pytest

from repro.core import profile_for
from repro.distributed import run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.transport import (
    AGG_ENDPOINT,
    AGG_SITES,
    AGG_SWITCH,
    ClusterConfig,
    validate_agg_site,
)


def _run(agg_site, codec="lossless_hc", topology="fat-tree:k=4",
         iterations=2, workers=4):
    stream = profile_for(codec) if codec else None
    return run_strategy(
        "wa",
        build_net=lambda s: build_hdc(seed=s),
        make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
        dataset=hdc_dataset(train_size=120, test_size=40, seed=0),
        num_workers=workers,
        iterations=iterations,
        batch_size=10,
        cluster=ClusterConfig(
            num_nodes=workers + 1,
            profile=stream,
            topology=topology,
            agg_site=agg_site,
        ),
        seed=0,
    )


def test_validate_agg_site():
    for site in AGG_SITES:
        validate_agg_site(site)
    assert AGG_SITES == (AGG_ENDPOINT, AGG_SWITCH)
    with pytest.raises(ValueError, match="agg_site"):
        validate_agg_site("nic")


@pytest.mark.parametrize("codec", ["lossless_hc", "thc"])
def test_switch_site_is_bit_exact_with_endpoint(codec):
    endpoint = _run(AGG_ENDPOINT, codec=codec)
    switch = _run(AGG_SWITCH, codec=codec)
    np.testing.assert_array_equal(
        endpoint.final_weights, switch.final_weights
    )
    assert endpoint.losses == switch.losses
    assert endpoint.final_top1 == switch.final_top1


def test_switch_site_reduces_link_level_bytes():
    endpoint = _run(AGG_ENDPOINT)
    switch = _run(AGG_SWITCH)
    assert endpoint.transfers is not None and switch.transfers is not None
    # In-network partial sums stop fan-in traffic from riding every hop
    # to the root: strictly fewer bytes cross the fabric's links.
    assert (
        switch.transfers.link_payload_nbytes
        < endpoint.transfers.link_payload_nbytes
    )


def test_link_bytes_count_every_hop_on_the_route():
    # On the default switched star every message crosses exactly two
    # links (host -> switch -> host).
    result = _run(AGG_ENDPOINT, topology=None, iterations=1)
    summary = result.transfers
    assert summary is not None
    assert summary.link_payload_nbytes == 2 * summary.wire_payload_nbytes


class TestRejections:
    def test_star_topology_has_no_reduction_tree(self):
        with pytest.raises(ValueError, match="multi-tier"):
            _run(AGG_SWITCH, topology=None)

    def test_non_homomorphic_codec(self):
        with pytest.raises(ValueError, match="homomorphic"):
            _run(AGG_SWITCH, codec="inceptionn")

    def test_raw_stream_needs_engines(self):
        with pytest.raises(ValueError):
            _run(AGG_SWITCH, codec=None)

    def test_ring_strategy_has_no_root(self):
        stream = profile_for("lossless_hc")
        with pytest.raises(ValueError, match="reduction root"):
            run_strategy(
                "ring",
                build_net=lambda s: build_hdc(seed=s),
                make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
                dataset=hdc_dataset(train_size=120, test_size=40, seed=0),
                num_workers=4,
                iterations=1,
                batch_size=10,
                cluster=ClusterConfig(
                    num_nodes=4,
                    profile=stream,
                    topology="fat-tree:k=4",
                    agg_site=AGG_SWITCH,
                ),
                seed=0,
            )

    def test_bogus_site_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="agg_site"):
            ClusterConfig(num_nodes=4, agg_site="bogus")
