"""The per-layer network and optimisers, kept verbatim as the test-side oracle.

This is ``repro.dnn``'s ``Sequential``, ``SGD`` and ``Adam`` as they
stood before parameters moved into one flat arena: flattening is an
``np.concatenate`` of every layer's arrays, scattering rebinds each
layer's dict entry to a fresh ``chunk.copy()``, and the optimisers keep
one state array per parameter and rebind ``layer.params[name]`` to the
result of the textbook expression.  Nothing is shared between
parameters, nothing is updated in place — which is what makes it a
reference: ``test_arena_oracle`` trains the same model through both and
requires the same float32 bits.

It runs on the production layers: they read ``params[name]`` afresh on
every forward and write gradients into whatever ``grads[name]`` holds,
so rebinding either entry is all this oracle needs of them.  Only the
composite needs help — :class:`ReferenceResidualBlock` carries the two
sync helpers the residual block had while parameters were rebound.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.dnn import (
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    LRSchedule,
    MaxPool2D,
    ReLU,
    ResidualBlock,
    SoftmaxCrossEntropy,
    build_hdc,
    build_mini_cnn,
)


class Sequential:
    """A stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: Sequence[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss = SoftmaxCrossEntropy()
        self._param_index: List[Tuple[Layer, str]] = [
            (layer, name) for layer in self.layers for name in sorted(layer.params)
        ]

    # -- passes -----------------------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def compute_loss(
        self, x: np.ndarray, labels: np.ndarray, training: bool = True
    ) -> float:
        return self.loss.forward(self.forward(x, training=training), labels)

    def backward(self) -> None:
        """Backpropagate from the last ``compute_loss`` call."""
        grad = self.loss.backward()
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class logits in evaluation mode."""
        return self.forward(x, training=False)

    # -- flat views --------------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        return sum(layer.params[name].size for layer, name in self._param_index)

    @property
    def nbytes(self) -> int:
        """Model size in bytes (float32 storage)."""
        return self.num_parameters * 4

    def parameter_vector(self) -> np.ndarray:
        """All parameters flattened into one float32 vector."""
        if not self._param_index:
            return np.empty(0, dtype=np.float32)
        return np.concatenate(
            [layer.params[name].reshape(-1) for layer, name in self._param_index]
        ).astype(np.float32, copy=False)

    def set_parameter_vector(self, vec: np.ndarray) -> None:
        """Scatter a flat vector back into the layer parameters."""
        self._scatter(vec, into_grads=False)

    def gradient_vector(self) -> np.ndarray:
        """All gradients (from the last backward) flattened."""
        parts = []
        for layer, name in self._param_index:
            if name not in layer.grads:
                raise RuntimeError(
                    f"gradient for {type(layer).__name__}.{name} missing; "
                    "call backward() first"
                )
            parts.append(layer.grads[name].reshape(-1))
        if not parts:
            return np.empty(0, dtype=np.float32)
        return np.concatenate(parts).astype(np.float32, copy=False)

    def set_gradient_vector(self, vec: np.ndarray) -> None:
        """Scatter a flat gradient vector into the layers' grads."""
        self._scatter(vec, into_grads=True)

    def _scatter(self, vec: np.ndarray, into_grads: bool) -> None:
        flat = np.asarray(vec, dtype=np.float32).reshape(-1)
        if flat.size != self.num_parameters:
            raise ValueError(
                f"vector has {flat.size} values, model has {self.num_parameters}"
            )
        offset = 0
        for layer, name in self._param_index:
            shape = layer.params[name].shape
            size = layer.params[name].size
            chunk = flat[offset : offset + size].reshape(shape)
            if into_grads:
                layer.grads[name] = chunk.copy()
            else:
                layer.params[name] = chunk.copy()
            offset += size


class SGD:
    """Momentum SGD over a :class:`Sequential` network."""

    def __init__(
        self,
        schedule: LRSchedule,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0.0:
            raise ValueError("weight decay cannot be negative")
        self.schedule = schedule
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.iteration = 0
        self._velocity: Dict[int, np.ndarray] = {}

    @property
    def lr(self) -> float:
        return self.schedule.lr_at(self.iteration)

    def step(self, net: Sequential) -> None:
        """Apply one update from the network's current gradients."""
        lr = self.lr
        for index, (layer, name) in enumerate(net._param_index):
            param = layer.params[name]
            grad = layer.grads.get(name)
            if grad is None:
                raise RuntimeError(
                    f"no gradient for {type(layer).__name__}.{name}"
                )
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            vel = self._velocity.get(index)
            if vel is None:
                vel = np.zeros_like(param)
            vel = self.momentum * vel - lr * grad
            self._velocity[index] = vel
            layer.params[name] = (param + vel).astype(np.float32)
        self.iteration += 1

    def step_with_vector(self, net: Sequential, gradient: np.ndarray) -> None:
        """Scatter an (aggregated) flat gradient, then update.

        This is line 21 of Algorithm 1: ``w <- w - lr * g`` where ``g``
        arrived from the ring exchange.
        """
        net.set_gradient_vector(gradient)
        self.step(net)


class Adam:
    """Adam optimizer — the modern counterpart for comparison runs.

    Same interface as :class:`SGD` so trainers accept either.
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
        if weight_decay < 0.0:
            raise ValueError("weight decay cannot be negative")
        self.schedule = schedule
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.iteration = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}

    @property
    def lr(self) -> float:
        return self.schedule.lr_at(self.iteration)

    def step(self, net: Sequential) -> None:
        lr = self.lr
        t = self.iteration + 1
        correction1 = 1.0 - self.beta1**t
        correction2 = 1.0 - self.beta2**t
        for index, (layer, name) in enumerate(net._param_index):
            param = layer.params[name]
            grad = layer.grads.get(name)
            if grad is None:
                raise RuntimeError(
                    f"no gradient for {type(layer).__name__}.{name}"
                )
            if self.weight_decay:
                grad = grad + self.weight_decay * param
            m = self._m.get(index)
            v = self._v.get(index)
            if m is None:
                m = np.zeros_like(param)
                v = np.zeros_like(param)
            m = self.beta1 * m + (1 - self.beta1) * grad
            v = self.beta2 * v + (1 - self.beta2) * grad * grad
            self._m[index], self._v[index] = m, v
            m_hat = m / correction1
            v_hat = v / correction2
            layer.params[name] = (
                param - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            ).astype(np.float32)
        self.iteration += 1

    def step_with_vector(self, net: Sequential, gradient: np.ndarray) -> None:
        net.set_gradient_vector(gradient)
        self.step(net)


class ReferenceResidualBlock(ResidualBlock):
    """The residual block with the sync helpers rebinding once needed."""

    def _sync_params_down(self) -> None:
        for index, layer in enumerate(self._sublayers):
            for name in layer.params:
                layer.params[name] = self.params[f"{index}:{name}"]

    def _sync_grads_up(self) -> None:
        for index, layer in enumerate(self._sublayers):
            for name, grad in layer.grads.items():
                self.grads[f"{index}:{name}"] = grad

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._sync_params_down()
        return super().forward(x, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_in = super().backward(grad_out)
        self._sync_grads_up()
        return grad_in


def reference_hdc(seed: int = 0) -> Sequential:
    return Sequential(build_hdc(seed).layers)


def reference_mini_cnn(seed: int = 0) -> Sequential:
    return Sequential(build_mini_cnn(seed).layers)


def reference_mini_resnet(seed: int = 0, num_classes: int = 10) -> Sequential:
    """``build_mini_resnet`` with :class:`ReferenceResidualBlock`."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(3, 16, kernel_size=3, rng=rng, padding=1),
            BatchNorm2D(16),
            ReLU(),
            ReferenceResidualBlock(16, 16, rng),
            MaxPool2D(2),
            ReferenceResidualBlock(16, 32, rng),
            MaxPool2D(2),
            Flatten(),
            Dense(32 * 4 * 4, num_classes, rng),
        ]
    )
