"""Error feedback around any codec that can use it (extension).

The paper notes its lossy compression costs "one or two extra epochs" at
relaxed bounds.  A standard remedy from the gradient-compression
literature (1-bit SGD's trick, later formalized as EF-SGD) is to carry
the compression residual into the next iteration so no gradient mass is
ever lost, only delayed.  This module is that *correct* step, once, for
every codec advertising :data:`CAP_ERROR_FEEDBACK` — the paper's codec,
1-bit SGD's sign quantiser, DGC's top-k, the FFT sparsifier.  It
composes cleanly because codecs are stateless — the feedback state lives
at the *sender*, exactly where a NIC-offloaded design would keep it (in
host memory, added before DMA).
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional, Union

import numpy as np

from .bounds import ErrorBound
from .registry import (
    CAP_ERROR_FEEDBACK,
    CodecResult,
    GradientCodec,
    flat32,
    get_codec,
)


class ErrorFeedbackCompressor:
    """Compress gradients while accumulating the residual locally.

    ``codec`` is any :class:`GradientCodec` with the ``error-feedback``
    capability, ``params`` its parameters; a bare :class:`ErrorBound`
    is short for the INCEPTIONN codec at that bound.
    """

    def __init__(
        self, codec: Union[GradientCodec, ErrorBound], **params: object
    ) -> None:
        if isinstance(codec, ErrorBound):
            codec, params = get_codec("inceptionn"), {"bound": codec}
        if CAP_ERROR_FEEDBACK not in codec.capabilities():
            raise ValueError(
                f"codec {codec.name!r} does not advertise the "
                f"{CAP_ERROR_FEEDBACK!r} capability"
            )
        self.codec = codec
        self.params = params
        #: What the receivers have not seen yet; ``None`` before the first call.
        self.residual: Optional[np.ndarray] = None

    def compress(self, gradient: np.ndarray) -> CodecResult:
        """Compress ``gradient + residual``.

        The result's ``values`` are what the receivers will see; the
        new residual is what they did not.

        If the gradient length changes between calls (a different model,
        or a re-partitioned shard) the held-back residual is no longer
        addressable — it is dropped *explicitly*, with a
        ``RuntimeWarning``, rather than silently ignored.
        """
        grad = flat32(gradient)
        if self.residual is not None and self.residual.shape != grad.shape:
            warnings.warn(
                "gradient length changed from "
                f"{self.residual.shape[0]} to {grad.shape[0]}; "
                "dropping the accumulated error-feedback residual "
                f"(norm {float(np.linalg.norm(self.residual)):.3g})",
                RuntimeWarning,
                stacklevel=2,
            )
            self.residual = None
        if self.residual is not None:
            grad = (grad + self.residual).astype(np.float32)
        result = self.codec.compress(grad, **self.params)
        self.residual = (grad - result.values).astype(np.float32)
        return result

    def reset(self) -> None:
        self.residual = None


def gradient_hook(
    compress: Callable[[np.ndarray], CodecResult],
) -> Callable[[int, np.ndarray], np.ndarray]:
    """A ``gradient_hook`` for training loops from any ``compress``: a
    kernel, ``StreamProfile.compress``, ``ErrorFeedbackCompressor.compress``."""

    def hook(iteration: int, grad: np.ndarray) -> np.ndarray:
        return compress(grad).values.reshape(grad.shape)

    return hook
