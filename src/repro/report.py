"""Programmatic experiment reports (JSON-friendly).

The benches print human tables; downstream tooling often wants the same
numbers as data.  ``full_report`` runs the key paper experiments at a
configurable scale and returns one nested dict, which the CLI-adjacent
script ``tools/regenerate_report.py`` serializes to JSON.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Sequence

import numpy as np

from repro.core import ErrorBound, bitwidth_distribution, compression_ratio
from repro.dnn import PAPER_MODELS
from repro.perfmodel import (
    CONFIGURATIONS,
    equal_accuracy_speedup,
    fig12_estimates,
    simulate_ring_exchange,
    simulate_wa_exchange,
    simulated_breakdown,
)

#: Models used in the timing experiments.
TIMING_MODELS = ("AlexNet", "HDC", "ResNet-50", "VGG-16")


def json_safe(obj: Any) -> Any:
    """Recursively replace non-finite floats with ``None``.

    ``wire_ratio`` (and friends) legitimately evaluate to ``inf`` on
    zero-byte transfers, but ``json.dumps`` would emit the non-standard
    ``Infinity`` token that strict parsers reject.  All report
    JSON is routed through here so non-finite values become ``null``.
    Numpy scalars are converted to native Python numbers on the way.
    """
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def dumps_strict(obj: Any, **kwargs: Any) -> str:
    """``json.dumps`` with ``allow_nan=False`` after :func:`json_safe`."""
    return json.dumps(json_safe(obj), allow_nan=False, **kwargs)


def fig12_report(num_workers: int = 4) -> Dict:
    """Normalized training time per configuration per model."""
    out: Dict = {}
    for model in TIMING_MODELS:
        est = fig12_estimates(model, num_workers=num_workers)
        base = est["WA"].iteration_s
        out[model] = {
            conf: est[conf].iteration_s / base for conf in CONFIGURATIONS
        }
    return out


def fig13_report() -> Dict:
    """Equal-accuracy speedups."""
    out: Dict = {}
    for model in TIMING_MODELS:
        est = equal_accuracy_speedup(model)
        out[model] = {
            "speedup": est.speedup,
            "wa_epochs": est.wa_epochs,
            "inc_epochs": est.inc_epochs,
        }
    return out


def fig15_report(node_counts: Sequence[int] = (4, 6, 8)) -> Dict:
    """Gradient-exchange scaling, normalized to 4-node WA.

    Alongside the normalized times, each configuration reports the
    achieved wire-level compression of the largest run — straight from
    the WireMessage pipeline's transfer accounting.
    """
    out: Dict = {}
    for model in TIMING_MODELS:
        nbytes = PAPER_MODELS[model].nbytes
        wa = {p: simulate_wa_exchange(p, nbytes) for p in node_counts}
        inc = {p: simulate_ring_exchange(p, nbytes) for p in node_counts}
        base = wa[node_counts[0]].total_s
        largest = node_counts[-1]
        out[model] = {
            "WA": {p: r.total_s / base for p, r in wa.items()},
            "INC": {p: r.total_s / base for p, r in inc.items()},
            "wire": {
                "WA": {
                    "sent_nbytes": wa[largest].sent_nbytes,
                    "wire_payload_nbytes": wa[largest].wire_payload_nbytes,
                    "wire_ratio": wa[largest].wire_ratio,
                },
                "INC": {
                    "sent_nbytes": inc[largest].sent_nbytes,
                    "wire_payload_nbytes": inc[largest].wire_payload_nbytes,
                    "wire_ratio": inc[largest].wire_ratio,
                },
            },
        }
    return out


def table2_report(iterations: int = 5) -> Dict:
    """Simulated Table II breakdown fractions."""
    out: Dict = {}
    for model in TIMING_MODELS:
        bd = simulated_breakdown(model, iterations=iterations)
        out[model] = bd.normalized()
    return out


def table3_report(sample: int = 1 << 17, seed: int = 42) -> Dict:
    """Bitwidth distributions of shell-model gradients."""
    rng = np.random.default_rng(seed)
    out: Dict = {}
    for model in TIMING_MODELS:
        grads = PAPER_MODELS[model].synthetic_gradients(rng, size=sample)
        out[model] = {
            f"2^-{b}": {
                "classes": {
                    k: float(v)
                    for k, v in bitwidth_distribution(
                        grads, ErrorBound(b)
                    ).as_row.items()
                },
                "ratio": compression_ratio(grads, ErrorBound(b)),
            }
            for b in (10, 8, 6)
        }
    return out


def full_report(num_workers: int = 4, table2_iterations: int = 5) -> Dict:
    """Every timing/statistics experiment as one nested dict."""
    return {
        "fig12_normalized_time": fig12_report(num_workers),
        "fig13_speedup": fig13_report(),
        "fig15_scaling": fig15_report(),
        "table2_fractions": table2_report(table2_iterations),
        "table3_bitwidths": table3_report(),
    }
