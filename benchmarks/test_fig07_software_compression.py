"""Fig 7: software-based compression makes training *slower* overall.

Running Snappy or SZ (or even simple truncation packing) on the host
CPU reduces communication but adds (de)compression time that swamps the
saving for communication-bound models.  Uses the calibrated software
cost model plus our measured from-scratch codec ratios.
"""

import numpy as np
import pytest

from conftest import print_header, print_row, run_once
from repro.baselines import (
    SOFTWARE_CODECS,
    baseline_training_time,
    snappy_like,
    software_training_time,
    sz_like,
)
from repro.dnn import PAPER_MODELS
from repro.perfmodel import TABLE2, TABLE2_ITERATIONS

SCHEMES = ("base", "snappy", "sz", "truncation")


def _per_iteration_times(model_name):
    row = TABLE2[model_name]
    compute = (row.forward + row.backward + row.gpu_copy + row.gradient_sum
               + row.update) / TABLE2_ITERATIONS
    comm = row.communicate / TABLE2_ITERATIONS
    nbytes = PAPER_MODELS[model_name].nbytes
    times = {"base": baseline_training_time(compute, comm)}
    for name in ("snappy", "sz", "truncation"):
        times[name] = software_training_time(
            compute, comm, nbytes, SOFTWARE_CODECS[name]
        )
    return times


def test_fig7_software_compression_normalized_times(benchmark):
    results = run_once(
        benchmark,
        lambda: {m: _per_iteration_times(m) for m in ("AlexNet", "HDC")},
    )
    print_header("Fig 7: normalized training time with software compression")
    print_row("model", *SCHEMES)
    for model, times in results.items():
        base = times["base"]
        print_row(model, *[f"{times[s] / base:.2f}" for s in SCHEMES])

    alexnet = results["AlexNet"]
    # Software compression increases AlexNet's training time (paper: 2-4x).
    assert alexnet["snappy"] > alexnet["base"] * 1.3
    assert alexnet["sz"] > alexnet["base"] * 1.5
    # Truncation packing saves little at best.
    assert alexnet["truncation"] > alexnet["base"] * 0.8


def test_fig7_measured_ratios_justify_cost_model(benchmark):
    """Cross-check the cost model's ratios against our real codecs."""

    def run():
        rng = np.random.default_rng(0)
        grads = (rng.standard_normal(100_000) * 0.01).astype(np.float32)
        return {
            "snappy": grads.nbytes / len(snappy_like.compress(grads.tobytes())),
            "sz": grads.nbytes / len(sz_like.compress(grads, 2**-8)),
        }

    measured = run_once(benchmark, run)
    print_header("Fig 7 (support): measured software codec ratios")
    print_row("codec", "measured", "modelled")
    for name, ratio in measured.items():
        print_row(name, f"{ratio:.2f}", f"{SOFTWARE_CODECS[name].ratio:.2f}")
    # Lossless stays poor; error-bounded lossy does better.
    assert measured["snappy"] < 2.0
    assert measured["sz"] > measured["snappy"]
