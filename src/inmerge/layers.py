"""Forward/backward math for every layer kind the engine supports.

This module holds the math and the ``*_spec`` constructors, which are the
one place each kind's fields are checked. How a kind is wired into a
model - field check, shape rule, parameter init, forward and backward -
is one entry of the kind table in ``model``. The output-extent rule and
the stable sigmoid / log-softmax used by the loss heads live in
``tensor``.

All functions are pure: they allocate fresh outputs and never mutate
their inputs, so identical inputs give bit-identical outputs. Backward
functions return exact analytic gradients of the forward contracts;
tests cross-check them against central finite differences.

Conventions:

- conv2d computes cross-correlation (no kernel flip), the prevailing
  deep-learning convention. Checkpoint consumers must agree on this.
- max-pool ties resolve to the first index in row-major window order,
  which fixes the backward routing deterministically.
- relu's subgradient at exactly 0 is 0.
- scalar losses are accumulated in float64 and then narrowed to the
  input precision, keeping large-batch sums stable.

Arrays flow through in the caller's dtype; the production data plane is
float32, while gradient-checking tests may pass float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LabelDomainError, ShapeError
from .tensor import ensure_finite, log_softmax, out_extent, sigmoid


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    Only the fields relevant to ``kind`` are meaningful. The
    ``conv_spec``/``pool_spec``/``dense_spec``/``relu_spec``/``flatten_spec``
    constructors validate them; a spec built directly is checked by the
    same constructors when a model is built from it.
    """

    kind: str
    out_channels: int = 0
    in_channels: int = 0
    kernel_h: int = 0
    kernel_w: int = 0
    stride: int = 1
    padding: int = 0
    window: int = 0
    in_features: int = 0
    out_features: int = 0


def conv_spec(
    out_channels: int,
    in_channels: int,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> LayerSpec:
    if min(out_channels, in_channels, kernel_h, kernel_w) < 1:
        raise ShapeError("conv2d: channels and kernel extents must be >= 1")
    if stride < 1 or padding < 0:
        raise ShapeError("conv2d: stride must be >= 1 and padding >= 0")
    return LayerSpec(
        kind="conv2d",
        out_channels=out_channels,
        in_channels=in_channels,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        stride=stride,
        padding=padding,
    )


def pool_spec(window: int, stride: int) -> LayerSpec:
    if window < 1 or stride < 1:
        raise ShapeError("maxpool2d: window and stride must be >= 1")
    return LayerSpec(kind="maxpool2d", window=window, stride=stride)


def dense_spec(in_features: int, out_features: int) -> LayerSpec:
    if in_features < 1 or out_features < 1:
        raise ShapeError("dense: feature extents must be >= 1")
    return LayerSpec(kind="dense", in_features=in_features, out_features=out_features)


def relu_spec() -> LayerSpec:
    return LayerSpec(kind="relu")


def flatten_spec() -> LayerSpec:
    return LayerSpec(kind="flatten")


# ---------------------------------------------------------------------------
# conv2d


def _im2col(
    padded: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int
) -> np.ndarray:
    """Patch matrix (C*kh*kw, N*h_out*w_out) from a padded NCHW batch.

    Keeping the spatial axes minor makes the gather run over long
    contiguous spans of the input, which dominates conv throughput here.
    """
    n, c = padded.shape[:2]
    win = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (N, C, h_out, w_out, kh, kw) -> (C, kh, kw, N, h_out, w_out)
    gathered = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    return gathered.reshape(c * kh * kw, n * h_out * w_out)


def _padable(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = x
    return out


def _conv_geometry(x, weight, bias, stride, padding):
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input/weight, got {x.ndim}-d/{weight.ndim}-d")
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, weight expects {c_in}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    h_out = out_extent(x.shape[2], kh, stride, padding, "conv2d height")
    w_out = out_extent(x.shape[3], kw, stride, padding, "conv2d width")
    return h_out, w_out


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    _cols_out: list | None = None,
) -> np.ndarray:
    """Cross-correlate an NCHW batch with OIHW kernels, zero padding.

    ``_cols_out``, when given, receives the internal patch matrix so a
    following ``conv2d_backward`` can skip regathering it.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    n = x.shape[0]
    c_out, _, kh, kw = weight.shape
    cols = _im2col(_padable(x, padding), kh, kw, stride, h_out, w_out)
    if _cols_out is not None:
        _cols_out.append(cols)
    out = weight.reshape(c_out, -1) @ cols
    out += bias[:, None]
    out = np.ascontiguousarray(out.reshape(c_out, n, h_out, w_out).transpose(1, 0, 2, 3))
    ensure_finite("conv2d_forward", out)
    return out


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    cols: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weight, d_bias) of the conv2d contract.

    ``cols`` may pass back the patch matrix captured by the forward call;
    otherwise it is regathered from ``x``.
    """
    c_out, c_in, kh, kw = weight.shape
    bias_probe = np.zeros(c_out, dtype=weight.dtype)
    h_out, w_out = _conv_geometry(x, weight, bias_probe, stride, padding)
    if grad_out.shape != (x.shape[0], c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d_backward: grad shape {grad_out.shape} != "
            f"{(x.shape[0], c_out, h_out, w_out)}"
        )
    n, _, h_pad, w_pad = x.shape[0], x.shape[1], x.shape[2] + 2 * padding, x.shape[3] + 2 * padding
    if cols is None:
        cols = _im2col(_padable(x, padding), kh, kw, stride, h_out, w_out)
    g = np.ascontiguousarray(grad_out.transpose(1, 0, 2, 3)).reshape(c_out, -1)

    grad_bias = g.sum(axis=1)
    grad_weight = (g @ cols.T).reshape(weight.shape)

    dcols = weight.reshape(c_out, -1).T @ g
    dwin = dcols.reshape(c_in, kh, kw, n, h_out, w_out)
    # scatter in channel-major layout (matches dwin), transpose once at the end
    dpad = np.zeros((c_in, n, h_pad, w_pad), dtype=grad_out.dtype)
    for i in range(kh):
        for j in range(kw):
            dpad[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                dwin[:, i, j]
            )
    if padding:
        dpad = dpad[:, :, padding:-padding, padding:-padding]
    grad_x = np.ascontiguousarray(dpad.transpose(1, 0, 2, 3))
    ensure_finite("conv2d_backward", grad_x, grad_weight, grad_bias)
    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# relu


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise ShapeError(f"relu_backward: grad shape {grad_out.shape} != {x.shape}")
    return grad_out * (x > 0)


# ---------------------------------------------------------------------------
# maxpool2d


@dataclass(frozen=True)
class PoolCache:
    """What maxpool2d_backward needs: argmaxes plus the forward geometry."""

    argmax: np.ndarray  # (N, C, h_out, w_out), flat index into the window
    input_shape: tuple[int, int, int, int]
    window: int
    stride: int


def maxpool2d(x: np.ndarray, window: int, stride: int) -> tuple[np.ndarray, PoolCache]:
    """Per-window maxima; ties go to the first row-major window position."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: need 4-d input, got {x.ndim}-d")
    h_out = out_extent(x.shape[2], window, stride, 0, "maxpool2d height")
    w_out = out_extent(x.shape[3], window, stride, 0, "maxpool2d width")
    win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(*win.shape[:4], window * window)
    argmax = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
    out = np.ascontiguousarray(out)
    ensure_finite("maxpool2d", out)
    return out, PoolCache(argmax, x.shape, window, stride)


def maxpool2d_backward(grad_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route each output gradient to its argmax input position."""
    n, c, h, w = cache.input_shape
    h_out, w_out = cache.argmax.shape[2:]
    if grad_out.shape != cache.argmax.shape:
        raise ShapeError(
            f"maxpool2d_backward: grad shape {grad_out.shape} != {cache.argmax.shape}"
        )
    iy = np.arange(h_out)[:, None] * cache.stride + cache.argmax // cache.window
    ix = np.arange(w_out)[None, :] * cache.stride + cache.argmax % cache.window
    plane = np.arange(n * c).reshape(n, c, 1, 1)
    flat_idx = (plane * (h * w) + iy * w + ix).ravel()
    grad_x = np.bincount(flat_idx, weights=grad_out.ravel(), minlength=n * c * h * w)
    return grad_x.reshape(n, c, h, w).astype(grad_out.dtype)


# ---------------------------------------------------------------------------
# dense / flatten


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x[N,F_in] @ weight[F_out,F_in]^T + bias."""
    if x.ndim != 2 or weight.ndim != 2:
        raise ShapeError(f"dense: need 2-d input/weight, got {x.ndim}-d/{weight.ndim}-d")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"dense: input features {x.shape[1]} != weight's {weight.shape[1]}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"dense: bias shape {bias.shape} != ({weight.shape[0]},)")
    out = x @ weight.T + bias
    ensure_finite("dense_forward", out)
    return out


def dense_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if grad_out.shape != (x.shape[0], weight.shape[0]):
        raise ShapeError(
            f"dense_backward: grad shape {grad_out.shape} != {(x.shape[0], weight.shape[0])}"
        )
    grad_x = grad_out @ weight
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0)
    ensure_finite("dense_backward", grad_x, grad_weight, grad_bias)
    return grad_x, grad_weight, grad_bias


def flatten_forward(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).reshape(x.shape[0], -1)


def flatten_backward(grad_out: np.ndarray, input_shape: tuple[int, ...]) -> np.ndarray:
    return grad_out.reshape(input_shape)


# ---------------------------------------------------------------------------
# loss heads


def _narrow(acc: float, dtype: np.dtype) -> float:
    """Narrow a float64 accumulation to the data-plane precision."""
    if dtype == np.float32:
        return float(np.float32(acc))
    return float(acc)


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(logits) at integer class labels.

    Returns (loss, d_loss/d_logits). Uses the log-sum-exp shift, so
    extreme logits do not overflow.
    """
    if logits.ndim != 2:
        raise ShapeError(f"softmax_ce_loss: need 2-d logits, got {logits.ndim}-d")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"softmax_ce_loss: labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise LabelDomainError(f"softmax_ce_loss: labels must lie in [0, {k})")
    log_p = log_softmax(logits)
    loss = _narrow(-log_p[np.arange(n), labels].astype(np.float64).mean(), logits.dtype)
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1
    grad /= n
    grad = grad.astype(logits.dtype, copy=False)
    ensure_finite("softmax_ce_loss", grad)
    return loss, grad


def sigmoid_bce_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean element-wise binary cross-entropy on sigmoid(logits).

    Labels must be exactly 0 or 1. The max(z,0) - z*y + log1p(exp(-|z|))
    form stays finite for |logit| far beyond 100.
    """
    if logits.ndim != 2:
        raise ShapeError(f"sigmoid_bce_loss: need 2-d logits, got {logits.ndim}-d")
    labels = np.asarray(labels)
    if labels.shape != logits.shape:
        raise ShapeError(f"sigmoid_bce_loss: labels shape {labels.shape} != {logits.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise LabelDomainError("sigmoid_bce_loss: labels must be exactly 0 or 1")
    y = labels.astype(logits.dtype)
    z = logits
    per_elem = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = _narrow(per_elem.astype(np.float64).mean(), logits.dtype)
    grad = (sigmoid(z) - y) / z.size
    ensure_finite("sigmoid_bce_loss", grad)
    return loss, grad
