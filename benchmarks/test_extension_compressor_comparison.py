"""Extension bench: INCEPTIONN's codec vs related-work compressors.

Runs the codec (with and without error feedback) next to 1-bit SGD,
TernGrad, QSGD and Deep Gradient Compression on the same training task:
compression ratio on live gradients, plus final accuracy after equal
iterations.  This is the comparison the paper's Sec. IX discusses
qualitatively; here it is measured.
"""

import numpy as np
import pytest

from conftest import print_header, print_row, run_once
from repro.baselines import OneBitCodec, qsgd, terngrad
from repro.core import (
    ErrorBound,
    ErrorFeedbackCompressor,
    get_codec,
    gradient_hook,
    profile_for,
)
from repro.dnn import LRSchedule, SGD, LocalTrainer, build_hdc, hdc_dataset

ITERATIONS = 100


def _train_with(compress):
    ds = hdc_dataset(train_size=600, test_size=150, seed=0)
    net = build_hdc(seed=0)
    # 0.02: the noisier quantizers (TernGrad scales by max|g|) diverge
    # at the 0.05 used elsewhere; all schemes are stable here.
    opt = SGD(LRSchedule(0.02), momentum=0.9, weight_decay=5e-5)
    trainer = LocalTrainer(net, opt, ds, batch_size=25, seed=0)
    ratios = []

    def measured(grad):
        result = compress(grad)
        ratios.append(result.compression_ratio)
        return result

    hook = gradient_hook(measured)
    for iteration in range(ITERATIONS):
        _, grad = trainer.local_gradient()
        trainer.apply_gradient(hook(iteration, grad))
    top1, _ = trainer.evaluate()
    return top1, float(np.mean(ratios))


def _seeded(kernel, seed, **params):
    rng = np.random.default_rng(seed)
    return lambda grad: kernel(grad, rng, **params)


def _schemes():
    """Name -> zero-argument factory of a fresh (maybe stateful)
    ``compress``: gradient -> CodecResult."""
    return {
        "lossless": lambda: profile_for("identity").compress,
        "INC(2^-10)": lambda: profile_for("inceptionn", bound=10).compress,
        "INC(2^-6)": lambda: profile_for("inceptionn", bound=6).compress,
        "INC(2^-6)+EF": lambda: ErrorFeedbackCompressor(ErrorBound(6)).compress,
        "1-bit SGD": lambda: ErrorFeedbackCompressor(OneBitCodec()).compress,
        "TernGrad": lambda: _seeded(terngrad, 11),
        "QSGD(4b)": lambda: _seeded(qsgd, 13, bits=4),
        "DGC(99%)": lambda: ErrorFeedbackCompressor(
            get_codec("sparsification"), sparsity=0.99
        ).compress,
    }


@pytest.fixture(scope="module")
def comparison():
    return {name: _train_with(factory()) for name, factory in _schemes().items()}


def test_compressor_comparison(benchmark, comparison):
    results = run_once(benchmark, lambda: comparison)
    print_header(
        f"Extension: compressor comparison (HDC, {ITERATIONS} iterations)"
    )
    print_row("scheme", "top-1", "avg ratio")
    for name, (top1, ratio) in results.items():
        print_row(name, f"{top1:.3f}", f"{ratio:.1f}")


def test_all_schemes_train(comparison):
    base = comparison["lossless"][0]
    for name, (top1, _) in comparison.items():
        assert top1 > base - 0.25, name


def test_inc_competitive_with_quantizers(comparison):
    inc_top1, inc_ratio = comparison["INC(2^-10)"]
    for rival in ("TernGrad", "QSGD(4b)"):
        rival_top1, _ = comparison[rival]
        assert inc_top1 > rival_top1 - 0.1


def test_error_feedback_recovers_aggressive_bound(comparison):
    plain_top1, _ = comparison["INC(2^-6)"]
    ef_top1, _ = comparison["INC(2^-6)+EF"]
    assert ef_top1 >= plain_top1 - 0.02


def test_dgc_highest_ratio_inc_highest_fidelity(comparison):
    # DGC trades delay for extreme sparsity; INC keeps every value fresh
    # within the bound.  Both character points should show.
    assert comparison["DGC(99%)"][1] > comparison["INC(2^-10)"][1]
