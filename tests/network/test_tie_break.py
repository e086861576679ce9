"""Equal-timestamp ordering: FIFO stability, seeded perturbation, and
deterministic same-instant link arbitration."""

import numpy as np
import pytest

from repro.network import (
    FIFO_TIE_BREAK,
    Link,
    SeededTieBreak,
    Simulation,
    TieBreak,
)


def run_schedule(tie_break):
    """Schedule 8 same-instant callbacks plus a later one; return order."""
    sim = Simulation(tie_break=tie_break)
    order = []
    for i in range(8):
        sim.timeout(0.5).add_callback(lambda _, i=i: order.append(i))
    sim.timeout(1.0).add_callback(lambda _: order.append("late"))
    sim.run()
    return order


class TestFifoStability:
    def test_equal_timestamps_run_in_insertion_order(self):
        assert run_schedule(None) == [0, 1, 2, 3, 4, 5, 6, 7, "late"]

    def test_default_policy_is_fifo(self):
        sim = Simulation()
        assert sim.tie_break is FIFO_TIE_BREAK
        assert isinstance(sim.tie_break, TieBreak)
        assert sim.tie_break.key(123) == 0

    def test_fifo_order_independent_of_hash_seed(self):
        """FIFO ordering never consults hash(); two runs agree exactly."""
        assert run_schedule(FIFO_TIE_BREAK) == run_schedule(FIFO_TIE_BREAK)

    def test_store_pairing_fifo_under_perturbation(self):
        """Store item->getter pairing is FIFO regardless of tie-break.

        Only the *callback delivery* order is scheduler-territory; which
        getter receives which item is decided synchronously at put()
        time and must never change.
        """
        from repro.network.events import Store

        for tie_break in (None, SeededTieBreak(7)):
            sim = Simulation(tie_break=tie_break)
            store = Store(sim)
            got = []
            for tag in ("a", "b", "c"):
                store.get().add_callback(lambda e, t=tag: got.append((t, e.value)))
            for item in (1, 2, 3):
                store.put(item)
            sim.run()
            assert sorted(got) == [("a", 1), ("b", 2), ("c", 3)]


class TestSeededTieBreak:
    def test_same_seed_same_order(self):
        assert run_schedule(SeededTieBreak(5)) == run_schedule(
            SeededTieBreak(5)
        )

    def test_perturbs_equal_timestamps_only(self):
        order = run_schedule(SeededTieBreak(1))
        # the later event still runs last...
        assert order[-1] == "late"
        # ...and the simultaneous ones are a permutation of 0..7.
        assert sorted(order[:-1]) == list(range(8))

    def test_some_seed_actually_reorders(self):
        fifo = run_schedule(None)
        assert any(
            run_schedule(SeededTieBreak(seed)) != fifo for seed in (1, 2, 3)
        )

    def test_key_is_hash_seed_independent(self):
        """splitmix64 keys are pure integer math — pinnable."""
        policy = SeededTieBreak(1)
        assert [policy.key(seq) for seq in range(4)] == [
            policy.key(seq) for seq in range(4)
        ]
        assert policy.key(0) != SeededTieBreak(2).key(0)

    def test_negative_delay_still_rejected(self):
        sim = Simulation(tie_break=SeededTieBreak(1))
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestInstantEndHooks:
    def test_hook_runs_after_instant_drains(self):
        sim = Simulation()
        order = []
        sim.timeout(0.0).add_callback(lambda _: order.append("event-a"))
        sim.at_instant_end(lambda: order.append("hook"))
        sim.timeout(0.0).add_callback(lambda _: order.append("event-b"))
        sim.timeout(1.0).add_callback(lambda _: order.append("later"))
        sim.run()
        assert order == ["event-a", "event-b", "hook", "later"]

    def test_hook_may_schedule_same_instant_work(self):
        sim = Simulation()
        order = []

        def hook():
            sim.timeout(0.0).add_callback(lambda _: order.append("from-hook"))

        sim.at_instant_end(hook)
        sim.timeout(2.0).add_callback(lambda _: order.append("later"))
        sim.run()
        assert order == ["from-hook", "later"]

    @pytest.mark.parametrize("tie_break", [None, SeededTieBreak(3)])
    def test_planner_runs_between_the_first_round_and_its_hooks(self, tie_break):
        # Every first-round entry has run, no hook has; what the planner
        # queues at ``now`` still runs in the first round.
        sim = Simulation(tie_break=tie_break)
        order = []

        def plan():
            order.append(("plan", sim.first_round()))
            sim.timeout(0.0).add_callback(
                lambda _: order.append(("planned", sim.first_round()))
            )

        sim.timeout(1.0).add_callback(lambda _: sim.before_arbitration(plan))
        sim.timeout(1.0).add_callback(
            lambda _: sim.at_instant_end(lambda: order.append(("hook", None)))
        )
        sim.timeout(1.0).add_callback(lambda _: order.append(("event", None)))
        sim.run()
        assert order == [
            ("event", None), ("plan", True), ("planned", True), ("hook", None),
        ]

    def test_call_at_rejects_past_times(self):
        sim = Simulation()
        sim.timeout(1.0).add_callback(lambda _: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(0.5, lambda: None)


class TestLinkArbitration:
    def make_contention(self, tie_break, keys):
        """Two same-instant requests on one link, issued in listed order."""
        sim = Simulation(tie_break=tie_break)
        link = Link(sim, bandwidth_bps=8e6, latency_s=0.0, name="dut")
        finished = {}

        def requester(tag, key):
            delivered = link.request(1000, 1000, key=key)
            delivered.add_callback(lambda _: finished.setdefault(tag, sim.now))

        for tag, key in keys:
            sim.timeout(0.0).add_callback(
                lambda _, t=tag, k=key: requester(t, k)
            )
        sim.run()
        return finished

    def test_grants_follow_key_order_not_call_order(self):
        # "second" holds the lower key yet is requested last.
        finished = self.make_contention(
            None, [("first", (9, 0, 0, 0)), ("second", (1, 0, 0, 0))]
        )
        assert finished["second"] < finished["first"]

    def test_outcome_invariant_under_perturbed_scheduling(self):
        keys = [("a", (2, 0, 0, 0)), ("b", (1, 0, 0, 0)), ("c", (3, 0, 0, 0))]
        baseline = self.make_contention(None, keys)
        for seed in (1, 2, 3):
            assert self.make_contention(SeededTieBreak(seed), keys) == baseline

    def test_unkeyed_transmits_are_granted_in_call_order(self):
        sim = Simulation()
        link = Link(sim, bandwidth_bps=8e6, latency_s=0.0)
        first = link.request(1000, 1000)
        second = link.request(1000, 1000)
        times = {}
        first.add_callback(lambda _: times.setdefault("first", sim.now))
        second.add_callback(lambda _: times.setdefault("second", sim.now))
        sim.run()
        # unkeyed requests share the empty key: call order is grant order
        assert times["first"] == pytest.approx(1e-3)
        assert times["second"] == pytest.approx(2e-3)

    def test_keyed_plain_transmit_arbitrated(self):
        sim = Simulation()
        link = Link(sim, bandwidth_bps=8e6, latency_s=0.0)
        times = {}

        def requester(tag, key):
            # Zero latency: delivery is the instant the last bit left.
            sent = link.request(1000, 1000, key=key)
            sent.add_callback(lambda _: times.setdefault(tag, sim.now))

        sim.timeout(0.0).add_callback(lambda _: requester("hi", (5,)))
        sim.timeout(0.0).add_callback(lambda _: requester("lo", (1,)))
        sim.run()
        assert times["lo"] < times["hi"]


def test_cluster_tie_break_threads_to_simulation():
    from repro.transport import ClusterConfig, ClusterComm

    policy = SeededTieBreak(3)
    comm = ClusterComm(ClusterConfig(num_nodes=2, tie_break=policy))
    assert comm.sim.tie_break is policy
    default = ClusterComm(ClusterConfig(num_nodes=2))
    assert default.sim.tie_break is FIFO_TIE_BREAK


def test_strategy_run_bit_identical_across_tie_breaks():
    """Synchronous strategies produce identical weights under any policy."""
    from repro.distributed import get_strategy, run_strategy
    from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
    from repro.transport import ClusterConfig

    def run(policy):
        result = run_strategy(
            get_strategy("ring"),
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
            dataset=hdc_dataset(train_size=60, test_size=20, seed=0),
            num_workers=2,
            iterations=1,
            batch_size=10,
            cluster=ClusterConfig(num_nodes=2, tie_break=policy),
            seed=0,
        )
        return result.final_weights

    baseline = run(None)
    perturbed = run(SeededTieBreak(2))
    assert np.array_equal(baseline, perturbed)
