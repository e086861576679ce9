"""Table II reproduction: full-iteration time breakdown per model.

Combines the Table II-calibrated compute profiles with the simulated
worker-aggregator exchange to regenerate the paper's breakdown — the
compute rows are calibrated (they come from the authors' GPUs), the
Communicate row is *simulated* and validated against the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.dnn.models import PAPER_MODELS
from repro.obs import PhaseTimes, Tracer

from .calibration import TABLE2, TABLE2_ITERATIONS, compute_profile_for
from .exchange import simulate_wa_exchange


def simulated_breakdown(
    model_name: str,
    num_workers: int = 4,
    iterations: int = TABLE2_ITERATIONS,
    tracer: Optional[Tracer] = None,
) -> PhaseTimes:
    """Regenerate one Table II column on the simulated cluster.

    The row is the exchange's closed phase ledger: compute, sum and
    update as attributed at the simulation sites, Communicate the
    residual of the run's total.  A ``tracer`` only observes the run
    (message/link/codec events and the ledger's ``phase`` spans).
    """
    return simulate_wa_exchange(
        num_workers=num_workers,
        nbytes=PAPER_MODELS[model_name].nbytes,
        iterations=iterations,
        profile=compute_profile_for(model_name),
        tracer=tracer,
    ).phases


def paper_breakdown(model_name: str) -> PhaseTimes:
    """Table II verbatim (seconds per ``TABLE2_ITERATIONS`` iterations)."""
    return TABLE2[model_name]
