"""Residual network + error-feedback compression (extension demo).

Trains the mini-ResNet (batch norm, skip connections) with the codec at
its most aggressive bound (2^-6), with and without the error-feedback
extension, and compares learning curves — showing how the extension
recovers the accuracy the paper buys back with extra epochs.

Run:  python examples/resnet_error_feedback.py
"""

import numpy as np

from repro.core import (
    ErrorBound,
    ErrorFeedbackCompressor,
    compression_ratio,
    gradient_hook,
    roundtrip,
)
from repro.dnn import (
    LRSchedule,
    SGD,
    LocalTrainer,
    build_mini_resnet,
    cnn_dataset,
)

BOUND = ErrorBound(6)
ITERATIONS = 80


def train(label, hook):
    dataset = cnn_dataset(train_size=400, test_size=100, seed=0)
    net = build_mini_resnet(seed=0)
    optimizer = SGD(LRSchedule(0.02), momentum=0.9, weight_decay=5e-5)
    trainer = LocalTrainer(net, optimizer, dataset, batch_size=32, seed=0)
    ratios = []
    for iteration in range(ITERATIONS):
        loss, grad = trainer.local_gradient()
        ratios.append(compression_ratio(grad, BOUND))
        trainer.apply_gradient(hook(iteration, grad))
        if (iteration + 1) % 20 == 0:
            top1, _ = trainer.evaluate()
            print(f"  {label:<12} iter {iteration + 1:>3}: "
                  f"loss {loss:.3f}, top-1 {top1:.3f}")
    top1, _ = trainer.evaluate()
    return top1, float(np.mean(ratios))


def main() -> None:
    print(f"mini-ResNet, codec bound {BOUND} ({BOUND.bound:.4f} abs error)\n")

    print("lossless baseline:")
    base, _ = train("lossless", lambda i, g: g)

    print("codec, no feedback:")
    plain, ratio = train("codec", lambda i, g: roundtrip(g, BOUND))

    print("codec + error feedback:")
    ef, _ = train("codec+EF", gradient_hook(ErrorFeedbackCompressor(BOUND).compress))

    print(f"\nfinal top-1:  lossless {base:.3f}  codec {plain:.3f}  "
          f"codec+EF {ef:.3f}   (avg ratio {ratio:.1f}x)")
    print(
        "error feedback carries the codec's residual into the next\n"
        "iteration, so even the most aggressive bound loses no gradient\n"
        "mass — the stateless NIC stays unchanged, the state lives at\n"
        "the sender."
    )


if __name__ == "__main__":
    main()
