"""Bit-exact pins for the non-star wirings, plus the topology x algorithm net.

``test_star_parity.py`` pins the switched star; the values below do the
same for the other four wirings of ``repro.network.topology`` and for
the paths only they exercise (ECMP + ``PriorityLink`` queues, tenants,
the switch aggregation site), and one lossy star run — loss seeds are
salted by ``all_links()`` order, so that order is part of the model.
All were captured at the commit *before* the five topology classes were
folded onto one routing graph (PR 15); any drift means the fold changed
routing, link order or port arbitration.  Re-record with
``python tests/perfmodel/test_fabric_parity.py`` (prints every table).
"""

import pytest

from repro.core import inceptionn_profile, profile_for
from repro.network import Link, Simulation, build_topology, parse_tenants, simulator
from repro.perfmodel import simulate_ring_exchange, simulate_wa_exchange

NBYTES = 2_000_000
SIMULATORS = {"ring": simulate_ring_exchange, "wa": simulate_wa_exchange}
SPEC_KINDS = ("star", "ring", "two-tier", "fat-tree:k=4", "leaf-spine")


def _exchange(algo, topology, compress=False, workers=4, **kwargs):
    return SIMULATORS[algo](
        workers,
        NBYTES,
        iterations=1,
        stream=inceptionn_profile() if compress else None,
        topology=topology,
        **kwargs,
    )


#: (topology, algorithm, compress) ->
#: (total_s.hex(), sent, wire_payload, link_payload); 4 workers, 2 MB.
FABRIC_PINS = {
    ("ring", "ring", False): ("0x1.47cc778657192p-9", 12_000_000, 12_000_000, 12_000_000),
    ("ring", "ring", True): ("0x1.04c8e26887ac5p-10", 12_000_000, 3_180_912, 3_180_912),
    ("two-tier", "ring", False): ("0x1.46fcfe3dbf1a9p-8", 12_000_000, 12_000_000, 36_000_000),
    ("two-tier", "ring", True): ("0x1.7f56d11ecb5a3p-10", 12_000_000, 3_180_912, 9_542_736),
    ("two-tier", "wa", False): ("0x1.983b2a0a860eep-6", 16_000_000, 16_000_000, 64_000_000),
    ("two-tier", "wa", True): ("0x1.1419e15ce4a2fp-6", 16_000_000, 10_120_604, 40_482_416),
    ("fat-tree:k=4", "ring", False): ("0x1.4e6c1eb72545bp-9", 12_000_000, 12_000_000, 36_000_000),
    ("fat-tree:k=4", "ring", True): ("0x1.120830ca2405ap-10", 12_000_000, 3_180_912, 9_542_736),
    ("fat-tree:k=4", "wa", False): ("0x1.b474c4d691d01p-7", 16_000_000, 16_000_000, 96_000_000),
    ("fat-tree:k=4", "wa", True): ("0x1.2ffdd954dd8c9p-7", 16_000_000, 10_120_604, 60_723_624),
    ("leaf-spine", "ring", False): ("0x1.4e6c1eb72545bp-9", 12_000_000, 12_000_000, 36_000_000),
    ("leaf-spine", "ring", True): ("0x1.120830ca2405ap-10", 12_000_000, 3_180_912, 9_542_736),
    ("leaf-spine", "wa", False): ("0x1.b3e776e7d5f71p-7", 16_000_000, 16_000_000, 64_000_000),
    ("leaf-spine", "wa", True): ("0x1.2f708b6621b37p-7", 16_000_000, 10_120_604, 40_482_416),
}


def _fabric_observed(topology, algo, compress):
    r = _exchange(algo, topology, compress)
    return (r.total_s.hex(), r.sent_nbytes, r.wire_payload_nbytes, r.link_payload_nbytes)


@pytest.mark.parametrize("topology,algo,compress", sorted(FABRIC_PINS))
def test_non_star_wirings_are_bit_exact(topology, algo, compress):
    assert _fabric_observed(topology, algo, compress) == FABRIC_PINS[(topology, algo, compress)]


#: Lossy star (2 % train loss, seed 7, 44-packet trains):
#: algorithm -> (total_s.hex(), trains retransmitted).
LOSSY_STAR_PINS = {
    "ring": ("0x1.e4233a1db160cp-9", 8),
    "wa": ("0x1.bdd43b9ff6ff3p-7", 10),
}


def _lossy_observed(algo):
    r = _exchange(algo, "star", loss_rate=0.02, loss_seed=7, train_packets=44)
    return (r.total_s.hex(), r.trains_retransmitted)


@pytest.mark.parametrize("algo", sorted(LOSSY_STAR_PINS))
def test_lossy_star_is_bit_exact(algo):
    assert _lossy_observed(algo) == LOSSY_STAR_PINS[algo]


#: 6-worker ring on the fat-tree beside two tenants (seed 3):
#: prioritize -> (total_s.hex(), background messages, background bytes).
TENANT_PINS = {
    False: ("0x1.4c216d6d53b10p-8", 40, 34_526_000),
    True: ("0x1.99fc9957d02c9p-9", 23, 18_016_000),
}


def _tenant_observed(prioritize):
    r = _exchange(
        "ring",
        "fat-tree:k=4",
        workers=6,
        train_packets=128,
        tenants=parse_tenants("train:4,infer:4"),
        tenant_seed=3,
        prioritize=prioritize,
    )
    return (r.total_s.hex(), r.background_messages, r.background_nbytes)


@pytest.mark.parametrize("prioritize", [False, True])
def test_fat_tree_tenant_contention_is_bit_exact(prioritize):
    assert _tenant_observed(prioritize) == TENANT_PINS[prioritize]


#: A 4 MB 6-worker ring on the fat-tree beside two tenants (seed 0),
#: recorded before express plans admitted the tenants' trains:
#: prioritize -> (total_s.hex(), wire payload, link payload, background
#: messages, background bytes).
ADMITTED_PINS = {
    False: ("0x1.23aecc54d9806p-7", 40_000_000, 146_666_672, 55, 50_534_000),
    True: ("0x1.829e6171b8694p-8", 40_000_000, 146_666_672, 39, 32_526_000),
}


def _stage_requests(monkeypatch, prioritize, per_train):
    """The tenant-crossed ring's results and how many requests its
    trains staged themselves (``per_train``: with every plan refused)."""
    staged = []
    stage = Link._stage

    def counting(link, *request):
        staged.append(link)
        stage(link, *request)

    with monkeypatch.context() as patch:
        patch.setattr(Link, "_stage", counting)
        if per_train:
            patch.setattr(simulator._Run, "start", lambda run: False)
        r = simulate_ring_exchange(
            6,
            4_000_000,
            train_packets=128,
            topology="fat-tree:k=4",
            tenants=parse_tenants("train:4,infer:4"),
            tenant_seed=0,
            prioritize=prioritize,
        )
    observed = (
        r.total_s.hex(), r.wire_payload_nbytes, r.link_payload_nbytes,
        r.background_messages, r.background_nbytes,
    )
    return observed, len(staged)


@pytest.mark.parametrize("prioritize", [False, True])
def test_tenant_crossed_ring_is_planned(monkeypatch, prioritize):
    # Tenant trains that reach a plan's path are planned with it, so at
    # least nine in ten of the per-train kernel's stage requests are not
    # made (0.65 when a plan refused them and dissolved on contact);
    # what stays per train is the one-train inference requests.
    observed, staged = _stage_requests(monkeypatch, prioritize, False)
    reference, per_train = _stage_requests(monkeypatch, prioritize, True)
    assert observed == reference == ADMITTED_PINS[prioritize]
    assert 1 - staged / per_train >= 0.9


#: 4-way ``lossless_hc`` gather on the fat-tree: agg_site ->
#: (total_s.hex(), link_payload, engine cycles, switch reductions).
AGG_SITE_PINS = {
    "endpoint": ("0x1.9362239b169a9p-7", 96_000_000, 0, 0),
    "switch": ("0x1.aecb2ece2fdf7p-7", 68_000_024, 375_014, 3),
}


def _agg_observed(site):
    r = simulate_wa_exchange(
        4,
        NBYTES,
        iterations=1,
        stream=profile_for("lossless_hc"),
        topology="fat-tree:k=4",
        agg_site=site,
    )
    return (r.total_s.hex(), r.link_payload_nbytes, r.agg_engine_cycles, r.switch_reductions)


@pytest.mark.parametrize("site", sorted(AGG_SITE_PINS))
def test_lossless_hc_agg_site_is_bit_exact(site):
    assert _agg_observed(site) == AGG_SITE_PINS[site]


#: 8-worker, 4 MB worker-aggregator exchanges at 128-packet trains: the
#: incast and fan-out shapes the kernel plans as groups.  Recorded on
#: the commit before messages sharing a resource were planned together.
#: (topology, stream, agg_site) -> (total_s.hex(), sent, wire_payload,
#: link_payload).
GROUP_PINS = {
    ("star", "inceptionn", "endpoint"): (
        "0x1.2e89fc257c7dep-5", 64_000_000, 40_482_424, 80_964_848,
    ),
    ("fat-tree:k=4", "lossless_hc", "switch"): (
        "0x1.83ac7e7a63b06p-5", 92_000_000, 92_000_028, 260_000_036,
    ),
    ("fat-tree:k=4", "lossless_hc", "endpoint"): (
        "0x1.b305deb031dd4p-5", 64_000_000, 64_000_000, 384_000_000,
    ),
}


def _group_observed(topology, stream, site):
    r = simulate_wa_exchange(
        8,
        4_000_000,
        iterations=1,
        stream=profile_for(stream),
        topology=topology,
        agg_site=site,
        train_packets=128,
    )
    return (r.total_s.hex(), r.sent_nbytes, r.wire_payload_nbytes, r.link_payload_nbytes)


@pytest.mark.parametrize("topology,stream,site", sorted(GROUP_PINS))
def test_worker_aggregator_incast_and_fan_out_are_bit_exact(topology, stream, site):
    assert _group_observed(topology, stream, site) == GROUP_PINS[(topology, stream, site)]


@pytest.mark.parametrize("topology,stream,site", sorted(GROUP_PINS))
def test_worker_aggregator_exchange_builds_no_per_train_objects(
    monkeypatch, topology, stream, site
):
    # Every message of these exchanges is planned in one pass with the
    # others its instant sends into the same resources (an express
    # group), so no packet train is ever walked stage by stage.  With
    # one express message per instant and resource, 352 trains were
    # built here (176 at the switch site).
    built = []
    init = simulator._Train.__init__

    def counting(train, *args):
        built.append(train)
        init(train, *args)

    monkeypatch.setattr(simulator._Train, "__init__", counting)
    assert _group_observed(topology, stream, site) == GROUP_PINS[(topology, stream, site)]
    assert built == []


# -- topology x algorithm matrix (ROADMAP item 1, network slice) ---------------

#: Combinations that must fail loudly, with the message they must carry.
REJECTED = {("ring", "wa"): r"no route \d+ -> \d+"}


def _hop_weighted_payload(topology, algo, result, workers=4):
    """Sum of wire payload x route length over the exchange's messages.

    Message sizes are uniform per direction: the ring sends ``2(n-1)``
    equal blocks per worker; worker-aggregator gathers one compressed
    gradient per worker and scatters it back raw.
    """
    fabric = build_topology(topology, Simulation(), workers + (algo == "wa"))

    def hops(src, dst):
        return len(fabric.route(src, dst).links)

    if algo == "ring":
        steps = 2 * (workers - 1)
        block = result.wire_payload_nbytes // (workers * steps)
        return block * steps * sum(hops(i, (i + 1) % workers) for i in range(workers))
    gathered = result.wire_payload_nbytes // workers - NBYTES
    return sum(
        gathered * hops(i, workers) + NBYTES * hops(workers, i)
        for i in range(workers)
    )


@pytest.mark.parametrize("algo", sorted(SIMULATORS))
@pytest.mark.parametrize("topology", SPEC_KINDS)
def test_every_wiring_runs_and_conserves_bytes_or_rejects(topology, algo):
    if (topology, algo) in REJECTED:
        # The aggregator is not every worker's ring successor, and
        # hosts never forward.
        with pytest.raises(ValueError, match=REJECTED[(topology, algo)]):
            _exchange(algo, topology)
        return
    r = _exchange(algo, topology, compress=True)
    assert r.total_s > 0
    assert 0 < r.wire_payload_nbytes < r.sent_nbytes
    assert r.link_payload_nbytes >= r.wire_payload_nbytes
    assert r.link_payload_nbytes == _hop_weighted_payload(topology, algo, r)


if __name__ == "__main__":
    for key in sorted(FABRIC_PINS):
        print("FABRIC", key, _fabric_observed(*key))
    for algo in sorted(LOSSY_STAR_PINS):
        print("LOSSY", algo, _lossy_observed(algo))
    for prioritize in (False, True):
        print("TENANT", prioritize, _tenant_observed(prioritize))
    for site in sorted(AGG_SITE_PINS):
        print("AGG", site, _agg_observed(site))
    for key in sorted(GROUP_PINS):
        print("GROUP", key, _group_observed(*key))
