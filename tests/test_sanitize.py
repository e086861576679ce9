"""The runtime determinism sanitizer: replay check, injected races,
and clean passes over every registered strategy."""

import json

import pytest

from repro.network import SeededTieBreak, Simulation
from repro.obs import Tracer, diff_traces, trace_fingerprint
from repro.sanitize import (
    Sanitizable,
    ScenarioOutcome,
    StrategyScenario,
    outcome_fingerprint,
    sanitize,
)


class RacyScenario(Sanitizable):
    """Deliberate equal-timestamp race: outcome = callback arrival order.

    Several processes append their id at the same simulated instant;
    the 'result' is that order.  FIFO replays are identical, but the
    order is pure event-queue accident — a seeded tie-break flips it.
    """

    name = "injected-race"

    def __init__(self, actors=6):
        self.actors = actors

    def execute(self, tie_break, tracer):
        sim = Simulation(tie_break=tie_break)
        arrivals = []
        for actor in range(self.actors):
            sim.timeout(1.0).add_callback(
                lambda _, a=actor: arrivals.append(a)
            )
        sim.run()
        events = []
        if tracer is not None:
            for index, actor in enumerate(arrivals):
                tracer.instant("apply", cat="async", ts=1.0, node=actor, seq=index)
            events = list(tracer.events)
        return ScenarioOutcome(
            fingerprint=outcome_fingerprint(tuple(arrivals)),
            details={"order": list(arrivals)},
            events=events,
            virtual_time_s=sim.now,
        )


class OrderInsensitiveScenario(RacyScenario):
    """Same racy arrivals, but the outcome reduces order-insensitively."""

    name = "order-insensitive"

    def execute(self, tie_break, tracer):
        outcome = super().execute(tie_break, Tracer())
        total = sum(outcome.details["order"])
        return ScenarioOutcome(
            fingerprint=outcome_fingerprint(total),
            details={"total": total},
            events=[],
            virtual_time_s=outcome.virtual_time_s,
        )


class TestInjectedRace:
    def test_race_detected(self):
        report = sanitize(RacyScenario())
        assert report.replay_clean  # identical seeds still replay
        assert report.race_detected
        assert report.racy_seed in (1, 2, 3)
        assert not report.passed

    def test_race_diff_points_at_first_divergent_event(self):
        report = sanitize(RacyScenario())
        assert report.race_diff is not None
        assert not report.race_diff.identical
        diverged = report.race_diff.a_event
        assert diverged["name"] == "apply"
        # the diff index is the first reordered apply, not the stream end
        assert report.race_diff.divergence_index < 6

    def test_report_renders_and_serializes(self):
        report = sanitize(RacyScenario())
        text = report.render()
        assert "RACE" in text and "FAIL" in text
        blob = json.dumps(report.to_dict(), default=str)
        assert "injected-race" in blob

    def test_order_insensitive_outcome_passes(self):
        """The same scheduling nondeterminism is fine if the semantic
        outcome does not depend on it."""
        report = sanitize(OrderInsensitiveScenario())
        assert report.passed


class NonReplayableScenario(Sanitizable):
    """Replay nondeterminism: carries state across execute() calls."""

    name = "impure"

    def __init__(self):
        self.calls = 0

    def execute(self, tie_break, tracer):
        self.calls += 1
        tracer = tracer if tracer is not None else Tracer()
        tracer.instant("step", cat="phase", ts=0.0, call=self.calls)
        return ScenarioOutcome(
            fingerprint=outcome_fingerprint(self.calls),
            details={"calls": self.calls},
            events=list(tracer.events),
            virtual_time_s=0.0,
        )


def test_replay_nondeterminism_detected():
    report = sanitize(NonReplayableScenario(), perturb_seeds=(1,))
    assert not report.replay_clean
    assert report.replay_diff is not None
    assert not report.passed
    assert "NONDETERMINISTIC" in report.render()


class ObservedScenario(Sanitizable):
    """An observer effect: the outcome depends on whether a tracer is on.

    ``shift`` is added to the simulated duration, or ``weight`` to the
    outcome, only when the run is traced; replays and tie-break
    perturbations (all traced) agree with each other.
    """

    name = "observed"

    def __init__(self, shift=0.0, weight=0):
        self.shift, self.weight = shift, weight

    def execute(self, tie_break, tracer):
        sim = Simulation(tie_break=tie_break)
        sim.timeout(1.0)
        end = sim.run()
        outcome = 7
        if tracer is not None:
            end += self.shift
            outcome += self.weight
            tracer.instant("done", cat="phase", ts=end)
        return ScenarioOutcome(
            fingerprint=outcome_fingerprint(outcome),
            details={"outcome": outcome, "virtual_time_s": end},
            events=list(tracer.events) if tracer is not None else [],
            virtual_time_s=end,
        )


@pytest.mark.parametrize(
    "shift, weight",
    [(2.0**-40, 0), (0.0, 1)],
    ids=["one-ulp-later", "other-outcome"],
)
def test_observer_effect_detected(shift, weight):
    report = sanitize(ObservedScenario(shift, weight), perturb_seeds=(1,))
    assert report.replay_clean and not report.race_detected
    assert not report.tracing_clean and not report.passed
    assert report.untraced == {"outcome": 7, "virtual_time_s": 1.0}
    text = report.render()
    assert "untraced    DIVERGES" in text and "FAIL" in text
    assert json.loads(json.dumps(report.to_dict()))["tracing_clean"] is False


def test_tracing_without_effect_passes():
    report = sanitize(ObservedScenario(), perturb_seeds=(1,))
    assert report.tracing_clean and report.untraced is None and report.passed
    assert "untraced    OK" in report.render()


class TestFingerprints:
    def test_outcome_fingerprint_is_bit_exact_on_arrays(self):
        import numpy as np

        a = np.ones(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        assert outcome_fingerprint(a) == outcome_fingerprint(b)
        b[0] = np.nextafter(np.float32(1.0), np.float32(2.0))
        assert outcome_fingerprint(a) != outcome_fingerprint(b)
        # dtype and shape are part of the identity
        assert outcome_fingerprint(a) != outcome_fingerprint(
            a.astype(np.float64)
        )
        assert outcome_fingerprint(a) != outcome_fingerprint(a.reshape(2, 2))

    def test_trace_fingerprint_orders_matter(self):
        t1, t2 = Tracer(), Tracer()
        t1.instant("x", cat="phase", ts=0.0)
        t1.instant("y", cat="phase", ts=0.0)
        t2.instant("y", cat="phase", ts=0.0)
        t2.instant("x", cat="phase", ts=0.0)
        assert trace_fingerprint(t1.events) != trace_fingerprint(t2.events)

    def test_diff_traces_prefix_and_context(self):
        t1, t2 = Tracer(), Tracer()
        for i in range(5):
            t1.instant(f"e{i}", cat="phase", ts=float(i))
            t2.instant(f"e{i}", cat="phase", ts=float(i))
        t1.instant("extra", cat="phase", ts=9.0)
        diff = diff_traces(t1.events, t2.events, context=2)
        assert not diff.identical
        assert diff.divergence_index == 5  # strict prefix
        assert diff.b_event is None
        assert len(diff.context_a) <= 5

        same = diff_traces(t1.events, t1.events)
        assert same.identical and same.divergence_index is None

    def test_diff_rejects_negative_context(self):
        with pytest.raises(ValueError):
            diff_traces([], [], context=-1)


# Strategy smokes: every registered schedule must pass the sanitizer.
# Kept tiny (2 workers, 1 iteration) so the whole matrix stays cheap;
# the CI sanitize job runs the larger 4-worker scenarios.
@pytest.mark.parametrize(
    "strategy", ["ring", "wa", "hierarchy", "async_ps", "local_sgd", "stale_async"]
)
def test_strategy_scenarios_pass(strategy):
    report = sanitize(
        StrategyScenario(
            strategy=strategy,
            workers=2,
            iterations=1,
            train_size=60,
            test_size=20,
        ),
        perturb_seeds=(1, 2),
    )
    assert report.replay_clean, report.render()
    assert not report.race_detected, report.render()
    assert report.tracing_clean, report.render()


def test_lossy_scenario_passes_with_timing_notes_allowed():
    report = sanitize(
        StrategyScenario(
            strategy="ring",
            workers=2,
            iterations=1,
            cluster={"loss_rate": 0.05},
            train_size=60,
            test_size=20,
        ),
        perturb_seeds=(1,),
    )
    assert report.passed, report.render()
    # timing shifts, if any, are informational — never a failure
    for shift in report.timing_shifts:
        assert report.passed
