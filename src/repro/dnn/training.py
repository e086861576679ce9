"""Single-node training loop and gradient-trace capture.

The local computation of one distributed iteration (Algorithm 1 lines
3–5): draw a minibatch, forward, backward, produce the flat local
gradient.  Distributed algorithms wrap this; the trace capture feeds the
gradient-distribution and compression-statistics experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .data import Dataset
from .metrics import top1_accuracy, top5_accuracy
from .network import Sequential
from .optim import Optimizer


@dataclass
class TrainResult:
    """History of a training run."""

    losses: List[float] = field(default_factory=list)
    test_top1: List[float] = field(default_factory=list)
    test_top5: List[float] = field(default_factory=list)

    @property
    def final_top1(self) -> float:
        if not self.test_top1:
            raise ValueError("no evaluations recorded")
        return self.test_top1[-1]


class LocalTrainer:
    """Compute-side of one worker: minibatch -> local gradient -> update."""

    def __init__(
        self,
        net: Sequential,
        optimizer: Optimizer,
        dataset: Dataset,
        batch_size: int,
        seed: "int | Sequence[int]" = 0,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        self.net = net
        self.optimizer = optimizer
        self.dataset = dataset
        self.batch_size = batch_size
        self.rng = np.random.default_rng(seed)

    def local_gradient(self) -> "tuple[float, np.ndarray]":
        """Lines 3–5 of Algorithm 1: loss and flat local gradient."""
        x, y = self.dataset.sample_batch(self.batch_size, self.rng)
        loss = self.net.compute_loss(x, y, training=True)
        self.net.backward()
        return loss, self.net.gradient_vector()

    def apply_gradient(self, gradient: np.ndarray) -> None:
        """Line 21 of Algorithm 1: ``w <- w - lr * g``."""
        self.optimizer.step_with_vector(self.net, gradient)

    def evaluate(self) -> "tuple[float, float]":
        """Top-1/top-5 accuracy on the shared test set."""
        logits = self.net.predict(self.dataset.test_x)
        return (
            top1_accuracy(logits, self.dataset.test_y),
            top5_accuracy(logits, self.dataset.test_y),
        )


def train_single_node(
    net: Sequential,
    optimizer: Optimizer,
    dataset: Dataset,
    batch_size: int,
    iterations: int,
    seed: int = 0,
    eval_every: Optional[int] = None,
    gradient_hook: Optional[Callable[[int, np.ndarray], np.ndarray]] = None,
) -> TrainResult:
    """Plain (non-distributed) SGD training.

    ``gradient_hook(iteration, g) -> g'`` lets experiments perturb the
    gradient before the update — the mechanism behind the truncation and
    lossy-compression accuracy studies (Fig 4 / Fig 14).
    """
    trainer = LocalTrainer(net, optimizer, dataset, batch_size, seed=seed)
    result = TrainResult()
    for iteration in range(iterations):
        loss, grad = trainer.local_gradient()
        if gradient_hook is not None:
            grad = gradient_hook(iteration, grad)
        trainer.apply_gradient(grad)
        result.losses.append(loss)
        if eval_every and (iteration + 1) % eval_every == 0:
            top1, top5 = trainer.evaluate()
            result.test_top1.append(top1)
            result.test_top5.append(top5)
    if not result.test_top1:
        top1, top5 = trainer.evaluate()
        result.test_top1.append(top1)
        result.test_top5.append(top5)
    return result


def capture_gradient_trace(
    net: Sequential,
    optimizer: Optimizer,
    dataset: Dataset,
    batch_size: int,
    iterations: int,
    capture_at: List[int],
    seed: int = 0,
) -> "dict[int, np.ndarray]":
    """Train and snapshot the gradient vector at chosen iterations.

    Feeds Fig 5 (gradient value distributions over training stages) and
    Table III (bitwidth distributions of compressed gradients).
    """
    snapshots: "dict[int, np.ndarray]" = {}
    wanted = set(capture_at)

    def hook(iteration: int, grad: np.ndarray) -> np.ndarray:
        if iteration in wanted:
            snapshots[iteration] = grad.copy()
        return grad

    train_single_node(
        net,
        optimizer,
        dataset,
        batch_size,
        iterations,
        seed=seed,
        gradient_hook=hook,
    )
    return snapshots
