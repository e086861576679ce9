"""Packet-loss and retransmission tests."""

import pytest

from repro.network import (
    DeliveryFailure,
    LossModel,
    Network,
    RetransmitPolicy,
    Simulation,
    SwitchedStar,
)


def _net(drop, max_attempts=16, rto=200e-6, seed=0):
    sim = Simulation()
    topo = SwitchedStar(sim, 2)
    net = Network(
        sim,
        topo,
        loss=LossModel(drop_probability=drop, seed=seed) if drop else None,
        retransmit=RetransmitPolicy(rto_s=rto, max_attempts=max_attempts),
    )
    return sim, net


def _deliver(sim, net, nbytes=2**20):
    out = {}
    ev = net.send(0, 1, nbytes)
    ev.add_callback(lambda e: out.setdefault("t", sim.now))
    sim.run()
    return out.get("t")


def test_lossless_by_default():
    sim, net = _net(0.0)
    assert _deliver(sim, net) is not None
    assert net.trains_retransmitted == 0


def test_loss_triggers_retransmission_and_still_delivers():
    sim, net = _net(0.05, seed=3)
    t = _deliver(sim, net, nbytes=4 * 2**20)
    assert t is not None
    assert net.trains_retransmitted > 0


def test_loss_slows_transfer():
    t_clean = _deliver(*_net(0.0), nbytes=4 * 2**20)
    t_lossy = _deliver(*_net(0.10, seed=1), nbytes=4 * 2**20)
    assert t_lossy > t_clean


def test_higher_loss_costs_more():
    t_low = _deliver(*_net(0.02, seed=2), nbytes=8 * 2**20)
    t_high = _deliver(*_net(0.20, seed=2), nbytes=8 * 2**20)
    assert t_high > t_low


def test_retry_budget_exhaustion_raises():
    sim, net = _net(0.95, max_attempts=2, seed=0)
    net.send(0, 1, 2**20)
    with pytest.raises(DeliveryFailure):
        sim.run()


def test_loss_determinism():
    results = [_deliver(*_net(0.1, seed=7), nbytes=2**20) for _ in range(2)]
    assert results[0] == results[1]


def test_loss_model_validation():
    with pytest.raises(ValueError):
        LossModel(drop_probability=1.0)
    with pytest.raises(ValueError):
        RetransmitPolicy(rto_s=0)
    with pytest.raises(ValueError):
        RetransmitPolicy(max_attempts=0)
    # A dropped train hands off one RTO late, unchecked by the link.
    with pytest.raises(ValueError, match="RTO"):
        RetransmitPolicy(rto_s=float("nan"))


def test_drop_counters_on_links():
    sim, net = _net(0.2, seed=5)
    _deliver(sim, net, nbytes=8 * 2**20)
    dropped = sum(l.trains_dropped for l in net.topology.all_links())
    assert dropped == net.trains_retransmitted
