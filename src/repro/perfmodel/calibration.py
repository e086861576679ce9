"""Calibration constants taken from the paper's measurements.

The reproduction cannot rerun the authors' Titan XP + 10 GbE testbed, so
the *local-computation* side of the timing experiments is calibrated to
the paper's own Table II (absolute seconds per 100 iterations of the
five-node worker-aggregator cluster).  The *communication* side is
simulated, not calibrated — reproducing it is the point — and we verify
in tests/benchmarks that the simulated WA communication times land near
Table II's "Communicate" row.
"""

from __future__ import annotations

from typing import Dict

from repro.obs import ComputeProfile, PhaseTimes

#: Workers in the paper's measurement cluster (plus one aggregator).
TABLE2_NUM_WORKERS = 4
#: Table II reports totals over this many iterations.
TABLE2_ITERATIONS = 100


#: Table II verbatim (seconds per 100 iterations, 4 workers + aggregator).
TABLE2: Dict[str, PhaseTimes] = {
    "AlexNet": PhaseTimes(3.13, 16.22, 5.68, 8.94, 148.71, 13.67),
    "HDC": PhaseTimes(0.08, 0.07, 0.0, 0.09, 1.36, 0.09),
    "ResNet-50": PhaseTimes(2.63, 4.87, 2.24, 3.68, 60.58, 1.55),
    "VGG-16": PhaseTimes(32.25, 142.34, 12.09, 19.89, 583.58, 30.50),
}


def compute_profile_for(model_name: str) -> ComputeProfile:
    """Per-iteration compute profile calibrated from Table II.

    ``gradient_sum`` in Table II is the aggregator summing
    ``TABLE2_NUM_WORKERS - 1`` incoming vectors of the model size, which
    fixes the memory-bound summation bandwidth; forward/backward/copy/
    update divide by the iteration count directly.

    ResNet-152 has no Table II column (it appears only in Fig 3); its
    profile is synthesized from ResNet-50's by scaling compute with
    depth (x3) and copy/update with model size (x2.35).
    """
    from repro.dnn.models import PAPER_MODELS

    if model_name == "ResNet-152":
        base = compute_profile_for("ResNet-50")
        size_scale = (
            PAPER_MODELS["ResNet-152"].size_mb / PAPER_MODELS["ResNet-50"].size_mb
        )
        return ComputeProfile(
            forward_s=base.forward_s * 3.0,
            backward_s=base.backward_s * 3.0,
            gpu_copy_s=base.gpu_copy_s * size_scale,
            update_s=base.update_s * size_scale,
            sum_bandwidth_bps=base.sum_bandwidth_bps,
        )

    row = TABLE2[model_name]
    spec = PAPER_MODELS[model_name]
    summed_bytes = (TABLE2_NUM_WORKERS - 1) * spec.nbytes * TABLE2_ITERATIONS
    sum_bandwidth = summed_bytes / row.gradient_sum if row.gradient_sum else 0.0
    return ComputeProfile(
        forward_s=row.forward / TABLE2_ITERATIONS,
        backward_s=row.backward / TABLE2_ITERATIONS,
        gpu_copy_s=row.gpu_copy / TABLE2_ITERATIONS,
        update_s=row.update / TABLE2_ITERATIONS,
        sum_bandwidth_bps=sum_bandwidth,
    )


#: Fig 13's convergence data: epochs to reach the same final accuracy
#: under the lossless baseline (WA) and the compressed system (INC+C),
#: plus that accuracy.  Used by the Fig 13 bench to weight per-epoch
#: times; the "one or two extra epochs" effect is the paper's finding,
#: and our small-model runs in the accuracy benches confirm the shape.
FIG13_EPOCHS: Dict[str, "tuple[int, int, float]"] = {
    "AlexNet": (64, 65, 0.572),
    "HDC": (17, 18, 0.985),
    "ResNet-50": (90, 92, 0.753),
    "VGG-16": (74, 75, 0.715),
}

#: Iterations per epoch implied by the paper's total-iteration counts
#: and epoch counts (approximate; used to convert per-iteration times
#: into the per-epoch scale Fig 12/13 quote).
def iterations_per_epoch(model_name: str) -> float:
    from repro.dnn.models import PAPER_MODELS

    spec = PAPER_MODELS[model_name]
    epochs_lossless = FIG13_EPOCHS[model_name][0]
    return spec.hyper.training_iterations / epochs_lossless
