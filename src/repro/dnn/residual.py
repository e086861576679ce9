"""Batch normalization and residual blocks — the ResNet ingredients.

The paper evaluates ResNet-50/152; at laptop scale we provide a genuine
residual network (skip connections + batch norm), both to make the
accuracy experiments representative of that model family and because a
reproduction a ResNet paper leans on should contain one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from .network import Sequential


class BatchNorm2D(Layer):
    """Per-channel batch normalization over (N, C, H, W) tensors."""

    def __init__(
        self, channels: int, momentum: float = 0.9, eps: float = 1e-5
    ) -> None:
        super().__init__()
        if channels < 1:
            raise ValueError("channels must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.eps = eps
        self.momentum = momentum
        self.bind("gamma", np.ones(channels, dtype=np.float32))
        self.bind("beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError("BatchNorm2D expects (N, C, H, W)")
        axes = (0, 2, 3)
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean, var = self.running_mean, self.running_var
        shape = (1, -1, 1, 1)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        out = (
            self.params["gamma"].reshape(shape) * normalized
            + self.params["beta"].reshape(shape)
        ).astype(np.float32)
        if training:
            self._cache = (normalized, inv_std, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward (training)")
        normalized, inv_std, x_shape = self._cache
        n = x_shape[0] * x_shape[2] * x_shape[3]
        axes = (0, 2, 3)
        shape = (1, -1, 1, 1)
        np.sum(grad_out * normalized, axis=axes, out=self.grads["gamma"])
        np.sum(grad_out, axis=axes, out=self.grads["beta"])
        gamma = self.params["gamma"].reshape(shape)
        grad_norm = grad_out * gamma
        # Standard batch-norm input gradient.
        grad_x = (
            inv_std.reshape(shape)
            / n
            * (
                n * grad_norm
                - grad_norm.sum(axis=axes).reshape(shape)
                - normalized * (grad_norm * normalized).sum(axis=axes).reshape(shape)
            )
        )
        return grad_x.astype(np.float32)


class ResidualBlock(Layer):
    """Two 3x3 convolutions with batch norm and an identity skip.

    When ``out_channels != in_channels`` the skip path uses a 1x1
    convolution projection, as in ResNet's dimension-matching blocks.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2D(in_channels, out_channels, 3, rng, padding=1)
        self.bn1 = BatchNorm2D(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2D(out_channels, out_channels, 3, rng, padding=1)
        self.bn2 = BatchNorm2D(out_channels)
        self.relu2 = ReLU()
        self.projection: Optional[Conv2D] = None
        if in_channels != out_channels:
            self.projection = Conv2D(in_channels, out_channels, 1, rng)
        self._sublayers = [
            layer
            for layer in (
                self.conv1,
                self.bn1,
                self.conv2,
                self.bn2,
                self.projection,
            )
            if layer is not None
        ]
        # Expose sub-layer parameters under prefixed names so the flat
        # parameter/gradient vectors see through the composite.
        for index, layer in enumerate(self._sublayers):
            for name in layer.params:
                self.bind(f"{index}:{name}", layer.params[name], layer.grads[name])

    def bind(
        self, name: str, param: np.ndarray, grad: Optional[np.ndarray] = None
    ) -> None:
        """Bind the prefixed entry and the sub-layer parameter it names."""
        super().bind(name, param, grad)
        index, sub_name = name.split(":", 1)
        self._sublayers[int(index)].bind(sub_name, param, self.grads[name])

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = self.conv1.forward(x, training)
        out = self.bn1.forward(out, training)
        out = self.relu1.forward(out, training)
        out = self.conv2.forward(out, training)
        out = self.bn2.forward(out, training)
        skip = x if self.projection is None else self.projection.forward(x, training)
        return self.relu2.forward(out + skip, training)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_out)
        grad_main = self.bn2.backward(grad_sum)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        if self.projection is None:
            grad_skip = grad_sum
        else:
            grad_skip = self.projection.backward(grad_sum)
        return grad_main + grad_skip


def build_mini_resnet(seed: int = 0, num_classes: int = 10) -> Sequential:
    """A small but genuine residual network for 3x16x16 inputs."""
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Conv2D(3, 16, kernel_size=3, rng=rng, padding=1),
            BatchNorm2D(16),
            ReLU(),
            ResidualBlock(16, 16, rng),
            MaxPool2D(2),
            ResidualBlock(16, 32, rng),
            MaxPool2D(2),
            Flatten(),
            Dense(32 * 4 * 4, num_classes, rng),
        ]
    )
