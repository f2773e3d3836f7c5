"""Tensor conventions and numeric guard rails.

Tensors are plain numpy ndarrays: row-major, float32 on the production
data plane (uint8 for stored images). These helpers centralize
construction, the output-extent rule shared by convolution and pooling
(layer math and model shape inference alike), the numerically stable
sigmoid and log-softmax shared by the loss heads, evaluation and ROC
export, and the finiteness contract every public operation upholds.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

DTYPE = np.float32


def ensure_finite(op: str, *arrays: np.ndarray) -> None:
    """Raise NumericError if any array contains NaN or Inf."""
    for arr in arrays:
        if arr.size == 0:
            continue
        # min/max propagate NaN and surface infinities without allocating
        # an isfinite mask; two reductions beat one mask + all() here
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise NumericError(f"{op}: non-finite values in result")


def out_extent(size: int, kernel: int, stride: int, padding: int, axis: str) -> int:
    """Output extent (size + 2*padding - kernel)/stride + 1.

    Raises ShapeError unless the division is exact and the result positive.
    """
    span = size + 2 * padding - kernel
    if span < 0 or span % stride != 0:
        raise ShapeError(
            f"{axis}: extent {size} with kernel {kernel}, stride {stride}, "
            f"padding {padding} gives a non-integer output extent"
        )
    return span // stride + 1


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Element-wise logistic function in the input dtype; never overflows,
    since ``exp`` only ever sees non-positive arguments."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of 2-d logits via the log-sum-exp shift, so
    extreme logits do not overflow."""
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
