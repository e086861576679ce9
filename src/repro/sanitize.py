"""Runtime determinism sanitizer: replay check + event-order race detector.

The reproduction's results are pinned sha256-exact, which only holds if
every run is a pure function of its seeds.  Three failure classes break
that silently:

* *replay nondeterminism* — wall-clock reads, unseeded RNG draws, or
  hash-ordered iteration leaking into the simulation.  Detected by
  running the scenario twice with identical seeds and comparing both
  the semantic outcome and the full trace fingerprint.
* *event-order races* — outcomes that depend on which of two
  equal-timestamp events the kernel happens to run first.  Today's FIFO
  tie-breaking makes such runs reproducible, but the result is then an
  accident of insertion order and will shift under any scheduling
  change (fault injection, flow-level fast paths, topology rework).
  Detected by re-running under :class:`~repro.network.SeededTieBreak`,
  which perturbs exactly the equal-timestamp ordering and nothing else,
  and comparing semantic outcomes.
* *observer effects* — an outcome that changes when a tracer is
  attached.  The untraced event kernel takes faster paths than the
  traced one (an uncontended message's trains are reserved in one
  pass), so the check also compares the two kernels.  Detected by
  running once more without a tracer and comparing the outcome and the
  simulated duration bit for bit.

On divergence the report carries a postmortem built from the PR 3
tracer: :func:`repro.obs.diff_traces` locates the first event where the
two runs part ways.

``repro sanitize`` (see :mod:`repro.cli`) drives this over the strategy
scenarios; tests inject synthetic racy scenarios through the same
:class:`Sanitizable` interface.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.distributed import Scenario
from repro.network import SeededTieBreak, TieBreak
from repro.obs import TraceDiff, Tracer, diff_traces, trace_fingerprint

#: Perturbation seeds tried by default: each reshuffles equal-timestamp
#: ties differently, so a race that survives one shuffle by luck is
#: caught by the next.
DEFAULT_PERTURB_SEEDS = (1, 2, 3)


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one execution of a scenario produced.

    ``fingerprint`` hashes the *semantic* result (final weights, loss
    trajectory, simulated duration) — the quantity that must be
    invariant under equal-timestamp reordering.  ``events`` is the full
    trace, used for replay fingerprinting and divergence postmortems.
    """

    fingerprint: str
    details: Dict[str, object]
    events: List[object]
    virtual_time_s: float

    @property
    def trace_fingerprint(self) -> str:
        return trace_fingerprint(self.events)


def outcome_fingerprint(*parts: object) -> str:
    """sha256 over the repr of each semantic result component.

    NumPy arrays hash their raw bytes (dtype/shape included) so two
    outcomes match only when bit-exactly equal.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(str(part.shape).encode())
            digest.update(part.tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class Sanitizable:
    """One sanitizable workload: run it under a given tie-break policy.

    Subclasses implement :meth:`execute`; every call must build a fresh
    simulation from the same seeds, so consecutive calls are replays.
    """

    name: str = "scenario"

    def execute(
        self, tie_break: Optional[TieBreak], tracer: Optional[Tracer]
    ) -> ScenarioOutcome:
        """Run once; ``tracer=None`` runs untraced (no events)."""
        raise NotImplementedError


class StrategyScenario(Scenario, Sanitizable):
    """A :class:`~repro.distributed.Scenario` the sanitizer can execute.

    The semantic outcome is the final parameter vector (bit-exact), the
    per-iteration loss trajectory, and the simulated duration — exactly
    the quantities the parity suites pin.
    """

    @property
    def name(self) -> str:
        tag = self.strategy
        if self.cluster.get("loss_rate"):
            tag = f"{tag}+loss"
        if self.cluster.get("topology") is not None:
            tag = f"{tag}@{self.cluster['topology']}"
        if self.cluster.get("agg_site", "endpoint") != "endpoint":
            tag = f"{tag}%{self.cluster['agg_site']}"
        if self.cluster.get("tenants"):
            tag = f"{tag}+tenants"
        if self.cluster.get("prioritize"):
            tag = f"{tag}+prioritize"
        return f"{tag} x{self.workers}"

    def execute(
        self, tie_break: Optional[TieBreak], tracer: Optional[Tracer]
    ) -> ScenarioOutcome:
        result = self.run(tracer=tracer, tie_break=tie_break)
        losses = [round(loss, 12) for loss in result.losses]
        details: Dict[str, object] = {
            "weights_sha256": outcome_fingerprint(result.final_weights),
            "losses": losses,
            "virtual_time_s": result.virtual_time_s,
            "final_top1": result.final_top1,
        }
        # The fingerprint pins the *functional* outcome: final weights
        # bit-exact plus the per-iteration mean losses (rounded — the
        # accumulation order over simultaneous workers is
        # schedule-dependent at the last-ulp level).  Simulated duration
        # stays out: reordering simultaneous trains on a shared link
        # legally changes FCFS interleaving and hence the makespan;
        # sanitize() reports such shifts informationally instead.
        return ScenarioOutcome(
            fingerprint=outcome_fingerprint(result.final_weights, losses),
            details=details,
            events=list(tracer.events) if tracer is not None else [],
            virtual_time_s=result.virtual_time_s,
        )


@dataclass
class SanitizeReport:
    """Everything one sanitizer pass learned about a scenario."""

    scenario: str
    #: Identical-seed rerun matched the baseline bit-for-bit.
    replay_clean: bool
    #: Some perturbed tie-break changed the semantic outcome.
    race_detected: bool
    #: The untraced run matched the traced baseline bit for bit
    #: (outcome and simulated duration).
    tracing_clean: bool
    #: Tie-break seed that exposed the race (None when clean).
    racy_seed: Optional[int] = None
    #: First-divergence postmortems (replay: baseline vs rerun;
    #: race: baseline vs the racy perturbed run).
    replay_diff: Optional[TraceDiff] = None
    race_diff: Optional[TraceDiff] = None
    baseline: Optional[Dict[str, object]] = None
    divergent: Optional[Dict[str, object]] = None
    perturb_seeds: Sequence[int] = field(default_factory=tuple)
    events_traced: int = 0
    #: Perturbed runs whose functional outcome matched but whose
    #: simulated duration shifted — legal FCFS re-interleaving, reported
    #: so schedule-sensitive makespans stay visible.
    timing_shifts: List[Dict[str, float]] = field(default_factory=list)

    #: The untraced run's details, when they differ from the baseline.
    untraced: Optional[Dict[str, object]] = None

    @property
    def passed(self) -> bool:
        return self.replay_clean and not self.race_detected and self.tracing_clean

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "replay_clean": self.replay_clean,
            "race_detected": self.race_detected,
            "tracing_clean": self.tracing_clean,
            "untraced": self.untraced,
            "racy_seed": self.racy_seed,
            "perturb_seeds": list(self.perturb_seeds),
            "events_traced": self.events_traced,
            "baseline": self.baseline,
            "divergent": self.divergent,
            "timing_shifts": list(self.timing_shifts),
            "replay_diff": self.replay_diff.to_dict()
            if self.replay_diff
            else None,
            "race_diff": self.race_diff.to_dict() if self.race_diff else None,
        }

    def render(self) -> str:
        lines = [f"sanitize {self.scenario}:"]
        if self.replay_clean:
            lines.append(
                f"  replay      OK ({self.events_traced} events bit-identical)"
            )
        else:
            lines.append("  replay      NONDETERMINISTIC with identical seeds")
            if self.replay_diff is not None:
                lines.extend(
                    "  " + line for line in self.replay_diff.render().splitlines()
                )
        if self.race_detected:
            lines.append(
                f"  tie-break   RACE under SeededTieBreak({self.racy_seed}): "
                "outcome depends on equal-timestamp event order"
            )
            if self.baseline and self.divergent:
                lines.append(f"    baseline:  {self.baseline}")
                lines.append(f"    perturbed: {self.divergent}")
            if self.race_diff is not None:
                lines.extend(
                    "  " + line for line in self.race_diff.render().splitlines()
                )
        else:
            seeds = ",".join(str(s) for s in self.perturb_seeds)
            lines.append(f"  tie-break   OK (perturbation seeds {seeds})")
        if self.tracing_clean:
            lines.append("  untraced    OK (outcome and duration bit-identical)")
        else:
            lines.append(
                "  untraced    DIVERGES: attaching a tracer changed the outcome"
            )
            lines.append(f"    traced:    {self.baseline}")
            lines.append(f"    untraced:  {self.untraced}")
        for shift in self.timing_shifts:
            lines.append(
                f"  note        makespan shifted under "
                f"SeededTieBreak({shift['seed']:.0f}): "
                f"{shift['baseline_s']:.6g}s -> {shift['perturbed_s']:.6g}s "
                "(functional outcome unchanged)"
            )
        lines.append(f"  verdict     {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def sanitize(
    scenario: Sanitizable,
    perturb_seeds: Sequence[int] = DEFAULT_PERTURB_SEEDS,
    context: int = 3,
) -> SanitizeReport:
    """Run the three determinism checks over ``scenario``.

    1. *Replay*: execute twice with identical seeds and FIFO ordering;
       semantic outcome **and** trace fingerprint must match exactly.
    2. *Race*: execute once per perturbation seed with shuffled
       equal-timestamp ordering; the semantic outcome must match the
       baseline (the trace event *order* may legitimately differ — only
       the outcome is pinned).  The first seed that changes the outcome
       stops the scan and yields a first-divergence postmortem.
    3. *Untraced*: execute once more with FIFO ordering and no tracer;
       the semantic outcome and the simulated duration must equal the
       baseline's bit for bit.
    """
    baseline = scenario.execute(None, Tracer())
    replay = scenario.execute(None, Tracer())

    replay_clean = (
        baseline.fingerprint == replay.fingerprint
        and baseline.trace_fingerprint == replay.trace_fingerprint
    )
    replay_diff = None
    if not replay_clean:
        replay_diff = diff_traces(
            baseline.events, replay.events, context=context
        )

    untraced = scenario.execute(None, None)
    tracing_clean = (
        untraced.fingerprint == baseline.fingerprint
        and float(untraced.virtual_time_s).hex()
        == float(baseline.virtual_time_s).hex()
    )

    race_detected = False
    racy_seed: Optional[int] = None
    race_diff: Optional[TraceDiff] = None
    divergent: Optional[Dict[str, object]] = None
    timing_shifts: List[Dict[str, float]] = []
    for seed in perturb_seeds:
        perturbed = scenario.execute(SeededTieBreak(seed), Tracer())
        if perturbed.fingerprint != baseline.fingerprint:
            race_detected = True
            racy_seed = seed
            divergent = dict(perturbed.details)
            race_diff = diff_traces(
                baseline.events, perturbed.events, context=context
            )
            break
        if perturbed.virtual_time_s != baseline.virtual_time_s:
            timing_shifts.append(
                {
                    "seed": float(seed),
                    "baseline_s": baseline.virtual_time_s,
                    "perturbed_s": perturbed.virtual_time_s,
                }
            )

    return SanitizeReport(
        scenario=scenario.name,
        replay_clean=replay_clean,
        race_detected=race_detected,
        tracing_clean=tracing_clean,
        untraced=None if tracing_clean else dict(untraced.details),
        racy_seed=racy_seed,
        replay_diff=replay_diff,
        race_diff=race_diff,
        baseline=dict(baseline.details),
        divergent=divergent,
        perturb_seeds=tuple(perturb_seeds),
        events_traced=len(baseline.events),
        timing_shifts=timing_shifts,
    )
