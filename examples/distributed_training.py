"""Train a real DNN across a simulated cluster: WA vs INCEPTIONN.

Trains the paper's HDC network (five FC layers) on a synthetic
handwritten-digit task across four simulated workers, under all four
Fig 12 configurations, and prints accuracy plus simulated wall-clock.

Run:  python examples/distributed_training.py
"""

from repro.core import inceptionn_profile
from repro.distributed import run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.perfmodel import compute_profile_for
from repro.transport import ClusterConfig

CONFIGS = (
    ("WA", "wa", False),
    ("WA+C", "wa", True),
    ("INC", "ring", False),
    ("INC+C", "ring", True),
)


def main() -> None:
    dataset = hdc_dataset(train_size=800, test_size=200, seed=0)
    profile = compute_profile_for("HDC")
    iterations = 60

    print(f"training HDC for {iterations} iterations on 4 workers\n")
    print(f"{'config':<8}{'final top-1':>12}{'sim time (s)':>14}{'comm %':>8}")
    baseline_time = None
    for label, algorithm, compressed in CONFIGS:
        num_nodes = 5 if algorithm == "wa" else 4
        stream = inceptionn_profile() if compressed else None
        result = run_strategy(
            algorithm,
            build_net=lambda s: build_hdc(seed=s),
            make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
            dataset=dataset,
            num_workers=4,
            iterations=iterations,
            batch_size=25,
            cluster=ClusterConfig(num_nodes=num_nodes, profile=stream),
            profile=profile,
        )
        if baseline_time is None:
            baseline_time = result.virtual_time_s
        print(
            f"{label:<8}{result.final_top1:>12.3f}"
            f"{result.virtual_time_s:>14.3f}"
            f"{100 * result.communication_fraction:>7.1f}%"
            f"   ({baseline_time / result.virtual_time_s:.2f}x vs WA)"
        )

    print(
        "\nINC+C reaches the same accuracy with every hop compressed and\n"
        "no aggregator — the paper's 2.2-3.1x speedup pattern at HDC scale."
    )


if __name__ == "__main__":
    main()
