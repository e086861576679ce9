"""End-to-end training-time estimation (Fig 12 / Fig 13).

Per-iteration times come from the exchange simulator plus the calibrated
compute profiles; multiplying by iteration/epoch counts yields the
training-time comparisons of Fig 12 and the equal-accuracy speedups of
Fig 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core import inceptionn_profile
from repro.dnn.models import PAPER_MODELS
from repro.network import DEFAULT_BANDWIDTH_BPS
from repro.transport.wire import measure_stream_ratio

from .calibration import FIG13_EPOCHS, compute_profile_for, iterations_per_epoch
from .exchange import simulate_exchange

#: The four system configurations of Fig 12.
CONFIGURATIONS = ("WA", "WA+C", "INC", "INC+C")
#: Iterations simulated per estimate (the per-iteration time is their mean).
SIM_ITERATIONS = 3
#: Synthetic gradient values the compressed configurations' ratio is
#: measured on; large enough for the ratio to be stable to three digits.
MODEL_RATIO_SAMPLE = 1 << 18


@dataclass(frozen=True)
class SystemEstimate:
    """Per-iteration and per-training-run times of one configuration."""

    model: str
    configuration: str
    iteration_s: float
    computation_s: float

    @property
    def communication_s(self) -> float:
        return max(0.0, self.iteration_s - self.computation_s)


def estimate_iteration_time(
    model_name: str,
    configuration: str,
    num_workers: int = 4,
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
) -> SystemEstimate:
    """Simulate a few iterations of one Fig 12 configuration."""
    if configuration not in CONFIGURATIONS:
        raise ValueError(
            f"unknown configuration {configuration!r}; options {CONFIGURATIONS}"
        )
    spec = PAPER_MODELS[model_name]
    stream = ratio = None
    if configuration.endswith("+C"):
        stream = inceptionn_profile()
        ratio = measure_stream_ratio(
            stream,
            sample=spec.synthetic_gradients(
                np.random.default_rng(0), size=MODEL_RATIO_SAMPLE
            ),
        )
    result = simulate_exchange(
        "wa" if configuration.startswith("WA") else "ring",
        num_workers=num_workers,
        nbytes=spec.nbytes,
        iterations=SIM_ITERATIONS,
        bandwidth_bps=bandwidth_bps,
        profile=compute_profile_for(model_name),
        stream=stream,
        gradient_ratio=ratio,
    )
    return SystemEstimate(
        model=model_name,
        configuration=configuration,
        iteration_s=result.per_iteration_s,
        computation_s=(result.total_s - result.phases.communicate) / SIM_ITERATIONS,
    )


def fig12_estimates(
    model_name: str, num_workers: int = 4
) -> Dict[str, SystemEstimate]:
    """All four configurations for one model (one Fig 12 group)."""
    return {
        conf: estimate_iteration_time(model_name, conf, num_workers)
        for conf in CONFIGURATIONS
    }


@dataclass(frozen=True)
class SpeedupEstimate:
    """Fig 13: equal-accuracy speedup of INC+C over WA."""

    model: str
    wa_epochs: int
    inc_epochs: int
    final_accuracy: float
    wa_training_s: float
    inc_training_s: float

    @property
    def speedup(self) -> float:
        return self.wa_training_s / self.inc_training_s


def equal_accuracy_speedup(
    model_name: str, epochs: Optional["tuple[int, int]"] = None
) -> SpeedupEstimate:
    """Fig 13's speedup: per-epoch times x epochs-to-equal-accuracy.

    Epoch counts default to the paper's measured convergence (the
    lossy system needs one or two extra epochs); pass ``epochs`` to use
    counts measured on your own runs.
    """
    wa_epochs, inc_epochs, accuracy = FIG13_EPOCHS[model_name]
    if epochs is not None:
        wa_epochs, inc_epochs = epochs
    iters_per_epoch = iterations_per_epoch(model_name)
    wa = estimate_iteration_time(model_name, "WA")
    inc = estimate_iteration_time(model_name, "INC+C")
    return SpeedupEstimate(
        model=model_name,
        wa_epochs=wa_epochs,
        inc_epochs=inc_epochs,
        final_accuracy=accuracy,
        wa_training_s=wa.iteration_s * iters_per_epoch * wa_epochs,
        inc_training_s=inc.iteration_s * iters_per_epoch * inc_epochs,
    )
