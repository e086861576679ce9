"""Performance models: α/β/γ analytics, Table II calibration, estimators."""

from .analytical import (
    CostParameters,
    exchange_speedup,
    ring_exchange_time,
    wa_exchange_time,
)
from .breakdown import paper_breakdown, simulated_breakdown
from .calibration import (
    FIG13_EPOCHS,
    TABLE2,
    TABLE2_ITERATIONS,
    TABLE2_NUM_WORKERS,
    compute_profile_for,
    iterations_per_epoch,
)
from .estimator import (
    CONFIGURATIONS,
    SpeedupEstimate,
    SystemEstimate,
    equal_accuracy_speedup,
    estimate_iteration_time,
    fig12_estimates,
)
from .exchange import (
    ExchangeResult,
    simulate_exchange,
    simulate_ring_exchange,
    simulate_wa_exchange,
)

__all__ = [
    "CostParameters",
    "exchange_speedup",
    "ring_exchange_time",
    "wa_exchange_time",
    "paper_breakdown",
    "simulated_breakdown",
    "FIG13_EPOCHS",
    "TABLE2",
    "TABLE2_ITERATIONS",
    "TABLE2_NUM_WORKERS",
    "compute_profile_for",
    "iterations_per_epoch",
    "CONFIGURATIONS",
    "SpeedupEstimate",
    "SystemEstimate",
    "equal_accuracy_speedup",
    "estimate_iteration_time",
    "fig12_estimates",
    "ExchangeResult",
    "simulate_exchange",
    "simulate_ring_exchange",
    "simulate_wa_exchange",
]
