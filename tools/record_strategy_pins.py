"""Record strategy-parity pins from the current tree.

Prints the constants ``tests/distributed/test_strategy_parity.py``
compares against — wire accounting and virtual time (the exact half),
weights sum and final loss (the numerical half) — together with the
python/numpy/BLAS versions they were produced under, so a drift in the
numerical half can be traced to its environment in one line.

Usage: PYTHONPATH=src python tools/record_strategy_pins.py
"""

from __future__ import annotations

import json
import platform

import numpy as np

from repro.distributed import (
    ComputeProfile,
    DistributedRunResult,
    GroupLayout,
    Scenario,
)

PROFILE = ComputeProfile(
    forward_s=1e-4,
    backward_s=3e-4,
    gpu_copy_s=5e-5,
    update_s=2e-4,
    sum_bandwidth_bps=10.4e9,
)
ITERATIONS = 8
WORKERS = 4

#: strategy -> ``Scenario.options``.
SCENARIOS = {
    "ring": {},
    "wa": {},
    "hierarchy": {"layout": GroupLayout.even(WORKERS, 2)},
    "async_ps": {"compute_jitter": 0.5, "max_staleness": 2},
    "stale_async": {"compute_jitter": 0.5, "staleness_bound": 1},
}


def run_scenario(strategy: str, compressed: bool) -> DistributedRunResult:
    """The pinned scenario — the parity test runs exactly this."""
    return Scenario(
        strategy=strategy,
        workers=WORKERS,
        iterations=ITERATIONS,
        codec="inceptionn" if compressed else None,
        train_size=400,
        test_size=100,
        batch_size=16,
        options=SCENARIOS[strategy],
        compute=PROFILE,
    ).run()


def final_loss(strategy: str, result: DistributedRunResult) -> float:
    # Parameter-server workers drift, so their pin is the last loss in
    # completion order rather than a per-iteration mean.
    ps = strategy in ("async_ps", "stale_async")
    losses = result.loss_order if ps else result.losses
    return float(losses[-1])


def _pin(strategy: str, compressed: bool) -> dict:
    result = run_scenario(strategy, compressed)
    summary = result.transfers
    return {
        "weights_sum": float(result.final_weights.sum()),
        "final_loss": final_loss(strategy, result),
        "virtual_time_s": result.virtual_time_s,
        "messages": summary.messages,
        "nbytes": summary.nbytes,
        "wire_payload_nbytes": summary.wire_payload_nbytes,
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_vendor,
    }


def record() -> dict:
    return {
        f"{strategy}_{mode}": _pin(strategy, mode == "compressed")
        for mode in ("raw", "compressed")
        for strategy in SCENARIOS
    }


if __name__ == "__main__":
    print(json.dumps({"environment": environment(), "pins": record()}, indent=2))
