"""Fig 13: speedup at *equal final accuracy*.

Lossy compression costs a modest number of extra epochs (one or two in
the paper); even so INC+C trains 2.2-3.1x faster than WA.  The paper's
epoch counts calibrate the paper-scale estimate; a functional run on
the HDC proxy measures epochs-to-target-accuracy with and without
compression to confirm the "small extra epochs" effect.
"""

import pytest

from conftest import print_header, print_row, run_once
from repro.core import inceptionn_profile
from repro.distributed import run_strategy
from repro.dnn import LRSchedule, SGD, build_hdc, hdc_dataset
from repro.perfmodel import FIG13_EPOCHS, equal_accuracy_speedup
from repro.transport import ClusterConfig

MODELS = ("AlexNet", "HDC", "ResNet-50", "VGG-16")
PAPER_SPEEDUP = {"AlexNet": 3.1, "HDC": 2.7, "ResNet-50": 3.0, "VGG-16": 2.2}


def test_fig13_speedups(benchmark):
    results = run_once(
        benchmark, lambda: {m: equal_accuracy_speedup(m) for m in MODELS}
    )
    print_header("Fig 13: speedup at the same final accuracy")
    print_row("model", "epochs WA", "epochs INC+C", "acc", "ours", "paper")
    for model in MODELS:
        sp = results[model]
        print_row(
            model,
            str(sp.wa_epochs),
            str(sp.inc_epochs),
            f"{sp.final_accuracy:.3f}",
            f"{sp.speedup:.2f}x",
            f"{PAPER_SPEEDUP[model]:.1f}x",
        )
    for model in MODELS:
        sp = results[model]
        # Band: within ~45% of the paper's speedup, and >1.5x always.
        # (Tiny models over-speed-up slightly in simulation: per-message
        # host software overheads the model omits damp the real system.)
        assert sp.speedup > 1.5
        assert sp.speedup == pytest.approx(PAPER_SPEEDUP[model], rel=0.45)


def test_fig13_epoch_counts_match_paper():
    for model, (wa, inc, acc) in FIG13_EPOCHS.items():
        # The lossy system needs at most 2 extra epochs in the paper.
        assert 0 <= inc - wa <= 2
        assert 0 < acc <= 1


def test_fig13_functional_epochs_to_accuracy(benchmark):
    """Measure iterations-to-target with and without lossy compression.

    Trains the real HDC net on 4 ring workers; the compressed run may
    need a few more iterations to hit the same test accuracy, but the
    overhead stays small (paper: 1-2 extra epochs out of ~17-90).
    """

    def run():
        target = 0.90
        out = {}
        for compressed in (False, True):
            stream = inceptionn_profile() if compressed else None
            result = run_strategy(
                "ring",
                build_net=lambda s: build_hdc(seed=s),
                make_optimizer=lambda: SGD(LRSchedule(0.02), momentum=0.9),
                dataset=hdc_dataset(train_size=600, test_size=150, seed=0),
                num_workers=4,
                iterations=60,
                batch_size=25,
                cluster=ClusterConfig(num_nodes=4, profile=stream),
                eval_every=5,
            )
            reached = next(
                (
                    (idx + 1) * 5
                    for idx, acc in enumerate(result.eval_top1)
                    if acc >= target
                ),
                None,
            )
            out[compressed] = (reached, result.final_top1)
        return out

    results = run_once(benchmark, run)
    print_header("Fig 13 (functional): iterations to reach 90% top-1, HDC")
    print_row("system", "iters to 90%", "final top-1")
    for compressed, (reached, final) in results.items():
        label = "INC+C" if compressed else "INC"
        print_row(label, str(reached), f"{final:.3f}")
    plain_reached, plain_final = results[False]
    comp_reached, comp_final = results[True]
    assert plain_reached is not None and comp_reached is not None
    # Compression costs at most a modest convergence delay...
    assert comp_reached <= plain_reached * 2.0
    # ...and the same final accuracy regime (within 5 points).
    assert comp_final > plain_final - 0.05
