"""Neural-network layers with explicit forward/backward passes.

A small, from-scratch substrate standing in for the paper's
CUDA/MKL-based training framework (Sec. VII-B).  Everything is float32
NumPy; each layer holds its parameters and writes the gradients of the
last backward pass in place, into storage a network binds to views of
the flat vectors the distributed algorithms exchange.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .initializers import he_normal


class Layer:
    """Base layer: stateless unless it declares parameters."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    def bind(
        self, name: str, param: np.ndarray, grad: Optional[np.ndarray] = None
    ) -> None:
        """Store ``name`` in ``param``, its gradient in ``grad`` (zeros if omitted)."""
        self.params[name] = param
        self.grads[name] = np.zeros_like(param) if grad is None else grad

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: ``y = x W + b``."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.bind("W", he_normal(rng, (in_features, out_features), in_features))
        self.bind("b", np.zeros(out_features, dtype=np.float32))
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._x = x
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        np.matmul(self._x.T, grad_out, out=self.grads["W"])
        np.sum(grad_out, axis=0, out=self.grads["b"])
        return grad_out @ self.params["W"].T


class ReLU(Layer):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0).astype(np.float32)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._mask


class Dropout(Layer):
    """Inverted dropout; identity at evaluation time."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(np.float32) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Collapse all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into (N*OH*OW, C*kh*kw) patches."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, -1), oh, ow


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Fold patch gradients back onto the (padded) input."""
    n, c, h, w = x_shape
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


class Conv2D(Layer):
    """2-D convolution (NCHW) implemented with im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ) -> None:
        super().__init__()
        if stride < 1 or kernel_size < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.stride = stride
        self.padding = padding
        self.kernel_size = kernel_size
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.bind("W", he_normal(rng, shape, in_channels * kernel_size * kernel_size))
        self.bind("b", np.zeros(out_channels, dtype=np.float32))
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        k = self.kernel_size
        cols, oh, ow = _im2col(x, k, k, self.stride, self.padding)
        w_flat = self.params["W"].reshape(self.params["W"].shape[0], -1)
        out = cols @ w_flat.T + self.params["b"]
        n = x.shape[0]
        self._cache = (x.shape, cols, oh, ow)
        return out.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols, oh, ow = self._cache
        oc = grad_out.shape[1]
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)
        w_flat = self.params["W"].reshape(oc, -1)
        np.matmul(grad_flat.T, cols, out=self.grads["W"].reshape(oc, -1))
        np.sum(grad_flat, axis=0, out=self.grads["b"])
        grad_cols = grad_flat @ w_flat
        k = self.kernel_size
        return _col2im(
            grad_cols, x_shape, k, k, self.stride, self.padding, oh, ow
        )


class MaxPool2D(Layer):
    """Non-overlapping max pooling (window == stride)."""

    def __init__(self, size: int) -> None:
        super().__init__()
        if size < 1:
            raise ValueError("pool size must be positive")
        self.size = size
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        s = self.size
        if h % s or w % s:
            raise ValueError(f"spatial dims {(h, w)} not divisible by pool {s}")
        reshaped = x.reshape(n, c, h // s, s, w // s, s)
        out = reshaped.max(axis=(3, 5))
        mask = reshaped == out[:, :, :, None, :, None]
        self._cache = (x.shape, mask)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, mask = self._cache
        s = self.size
        expanded = grad_out[:, :, :, None, :, None] * mask
        # Ties split the gradient; normalize by the tie count.
        counts = mask.sum(axis=(3, 5), keepdims=True)
        expanded = expanded / counts
        return expanded.reshape(x_shape)
