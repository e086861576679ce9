"""SGD with momentum, weight decay and stepped learning-rate reduction.

Matches the training recipe of the paper's Table I: per-model learning
rate, momentum 0.9, weight decay, and a learning-rate reduction by a
constant factor every fixed number of iterations.

Both update a network's parameter arena in place, one ``_BLOCK`` at a
time, from state arenas of the same layout, repeating the float32
operations of the textbook expressions in their order
(``lr * (g + wd * w)``, ``((1 - b2) * g) * g``): no rounding changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Tuple

import numpy as np

from .network import Sequential

#: Elements per in-place update pass: the optimisers walk the arenas in
#: blocks this long, so their scratch rows stay cache-sized.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class LRSchedule:
    """Step schedule: divide the base LR by ``factor`` every ``every`` iters.

    ``warmup`` iterations of linear ramp-up precede the step schedule —
    the standard large-batch recipe (Goyal et al. [7], which the paper
    cites) that distributed training with summed gradients benefits
    from.
    """

    base_lr: float
    factor: float = 1.0
    every: int = 0  # 0 disables reduction
    warmup: int = 0  # 0 disables warm-up

    def lr_at(self, iteration: int) -> float:
        if iteration < 0:
            raise ValueError("iteration cannot be negative")
        if self.warmup > 0 and iteration < self.warmup:
            return self.base_lr * (iteration + 1) / self.warmup
        if self.every <= 0 or self.factor <= 1.0:
            return self.base_lr
        return self.base_lr / (self.factor ** (iteration // self.every))


class Optimizer(Protocol):
    """What trainers and the strategy driver need of an optimiser.

    ``step_with_vector`` is line 21 of Algorithm 1, ``w <- w - lr * g``.
    """

    iteration: int

    @property
    def lr(self) -> float: ...

    def step(self, net: Sequential) -> None: ...

    def step_with_vector(self, net: Sequential, gradient: np.ndarray) -> None: ...


class _ArenaOptimizer(Optimizer):
    """Schedule, iteration count and block walk shared by SGD and Adam."""

    def __init__(self, schedule: LRSchedule, weight_decay: float) -> None:
        if weight_decay < 0.0:
            raise ValueError("weight decay cannot be negative")
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.iteration = 0
        #: ``(moments, num_parameters)`` float32, zeroed at the first step.
        self.state: Optional[np.ndarray] = None

    @property
    def lr(self) -> float:
        return self.schedule.lr_at(self.iteration)

    def step(self, net: Sequential) -> None:
        """Apply one update from the network's own last gradients."""
        self.step_with_vector(net, net.gradient_vector())

    def _blocks(
        self, net: Sequential, gradient: np.ndarray, rows: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """``(param, g + wd * param, state, scratch)`` block by block, with
        ``rows`` moments of state and scratch rows; a decayed gradient
        lives in scratch row 0."""
        grad, params = net.check_vector(gradient), net.param_arena
        if self.state is None:
            self.state = np.zeros((rows, params.size), dtype=np.float32)
        scratch = np.empty((rows, min(params.size, _BLOCK)), dtype=np.float32)
        for start in range(0, params.size, _BLOCK):
            span = slice(start, start + _BLOCK)
            param, g, tmp = params[span], grad[span], scratch[:, : params[span].size]
            if self.weight_decay:
                np.multiply(param, self.weight_decay, out=tmp[0])
                g = np.add(g, tmp[0], out=tmp[0])
            yield param, g, self.state[:, span], tmp


class SGD(_ArenaOptimizer):
    """Momentum SGD over a :class:`Sequential` network."""

    def __init__(
        self,
        schedule: LRSchedule,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        super().__init__(schedule, weight_decay)
        self.momentum = momentum

    def step_with_vector(self, net: Sequential, gradient: np.ndarray) -> None:
        """``v <- momentum * v - lr * (g + wd * w)``, then ``w <- w + v``."""
        lr, momentum = self.lr, self.momentum
        for param, grad, (vel,), (tmp,) in self._blocks(net, gradient, 1):
            np.multiply(grad, lr, out=tmp)
            np.multiply(vel, momentum, out=vel)
            np.subtract(vel, tmp, out=vel)
            np.add(param, vel, out=param)
        self.iteration += 1


class Adam(_ArenaOptimizer):
    """Adam optimizer — the modern counterpart for comparison runs.

    ``state`` holds the first moment in row 0 and the second in row 1.
    """

    def __init__(
        self,
        schedule: LRSchedule,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        super().__init__(schedule, weight_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step_with_vector(self, net: Sequential, gradient: np.ndarray) -> None:
        """``w <- w - lr * m_hat / (sqrt(v_hat) + eps)`` on ``g + wd * w``."""
        lr, beta1, beta2 = self.lr, self.beta1, self.beta2
        t = self.iteration + 1
        correction1 = 1.0 - beta1**t
        correction2 = 1.0 - beta2**t
        for param, grad, (m, v), (g, tmp) in self._blocks(net, gradient, 2):
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1 - beta1, out=tmp)
            np.add(m, tmp, out=m)
            np.multiply(v, beta2, out=v)
            np.multiply(grad, 1 - beta2, out=tmp)
            np.multiply(tmp, grad, out=tmp)
            np.add(v, tmp, out=v)
            np.divide(m, correction1, out=tmp)
            np.multiply(tmp, lr, out=tmp)
            np.divide(v, correction2, out=g)
            np.sqrt(g, out=g)
            np.add(g, self.eps, out=g)
            np.divide(tmp, g, out=tmp)
            np.subtract(param, tmp, out=param)
        self.iteration += 1
