"""Sequential network container over one flat parameter arena.

Distributed training exchanges *vectors* (the ``g`` of Algorithm 1), so
the network keeps parameters and gradients in two contiguous float32
arenas and every layer's ``params[name]`` / ``grads[name]`` is a view of
one, bound at construction and never rebound: flattening and scattering
are no-ops.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .layers import Layer
from .losses import SoftmaxCrossEntropy


class Sequential:
    """A stack of layers trained with softmax cross-entropy."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss = SoftmaxCrossEntropy()
        self._param_index: List[Tuple[Layer, str]] = [
            (layer, name) for layer in self.layers for name in sorted(layer.params)
        ]
        total = sum(layer.params[name].size for layer, name in self._param_index)
        #: Every parameter, flattened in ``_param_index`` order.
        self.param_arena = np.empty(total, dtype=np.float32)
        #: The gradients of the last ``backward()``, same layout.
        self.grad_arena = np.zeros(total, dtype=np.float32)
        for layer, name, param, grad in self._views(self.param_arena, self.grad_arena):
            param[...] = layer.params[name]
            layer.bind(name, param, grad)
        self._has_gradient = False

    def _views(
        self, params: np.ndarray, grads: np.ndarray
    ) -> Iterator[Tuple[Layer, str, np.ndarray, np.ndarray]]:
        """Each parameter's slices of two arenas, shaped like it."""
        offset = 0
        for layer, name in self._param_index:
            shape = layer.params[name].shape
            span = slice(offset, offset + layer.params[name].size)
            yield layer, name, params[span].reshape(shape), grads[span].reshape(shape)
            offset = span.stop

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Sequential":
        """A replica on fresh arenas, its layers bound to views of them.

        (A plain deepcopy would detach every view from the arena.)
        """
        params, grads = self.param_arena.copy(), self.grad_arena.copy()
        memo[id(self.param_arena)], memo[id(self.grad_arena)] = params, grads
        for layer, name, param, grad in self._views(params, grads):
            memo[id(layer.params[name])], memo[id(layer.grads[name])] = param, grad
        clone = object.__new__(type(self))
        memo[id(self)] = clone
        clone.__dict__.update(copy.deepcopy(self.__dict__, memo))
        return clone

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
        self._has_gradient = True

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class logits in evaluation mode."""
        return self.forward(x, training=False)

    # -- flat views --------------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        return self.param_arena.size

    @property
    def nbytes(self) -> int:
        """Model size in bytes (float32 storage)."""
        return self.num_parameters * 4

    def check_vector(self, vec: np.ndarray) -> np.ndarray:
        """``vec`` as a flat float32 array of this model's size."""
        flat = np.asarray(vec, dtype=np.float32).reshape(-1)
        if flat.size != self.num_parameters:
            raise ValueError(
                f"vector has {flat.size} values, model has {self.num_parameters}"
            )
        return flat

    def parameter_vector(self) -> np.ndarray:
        """All parameters as one float32 vector — a copy, as senders ship
        it by reference while this model keeps training."""
        return self.param_arena.copy()

    def set_parameter_vector(self, vec: np.ndarray) -> None:
        """Overwrite every parameter from a flat vector."""
        self.param_arena[...] = self.check_vector(vec)

    def gradient_vector(self) -> np.ndarray:
        """The gradient arena itself (no copy) after a ``backward()``; the
        next ``backward()`` overwrites it, so a caller keeping it copies."""
        if not self._has_gradient:
            raise RuntimeError("no gradient yet; call backward() first")
        return self.grad_arena

    def set_gradient_vector(self, vec: np.ndarray) -> None:
        """Overwrite every gradient from a flat vector."""
        self.grad_arena[...] = self.check_vector(vec)
        self._has_gradient = True
