"""Shared test oracles.

These deliberately re-derive results through independent routes (finite
differences, brute-force pair counting) rather than re-using the
production code paths they check.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from inmerge.layers import (
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    sigmoid_bce_loss,
    softmax_ce_loss,
)

FD_STEP = 1e-3
REL_TOL = 1e-3


def numeric_grad(scalar_fn, x: np.ndarray, eps: float = FD_STEP) -> np.ndarray:
    """Central finite differences of ``scalar_fn()`` w.r.t. the entries of
    ``x`` (mutated in place during probing, restored afterwards)."""
    grad = np.zeros(x.shape, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = scalar_fn()
        x[idx] = orig - eps
        f_minus = scalar_fn()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _relu_safe(rng, shape):
    """Random values bounded away from the relu kink at 0."""
    return (rng.uniform(0.05, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape))


def _pool_safe(rng, shape, window, stride, tries=50):
    """Random input whose per-window top-2 gap exceeds the probe step, so
    finite differences never flip an argmax."""
    for t in range(tries):
        x = rng.uniform(0.0, 1.0, size=shape)
        from numpy.lib.stride_tricks import sliding_window_view

        win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = np.sort(win.reshape(-1, window * window), axis=1)
        if window * window == 1 or (flat[:, -1] - flat[:, -2]).min() > 3 * FD_STEP:
            return x
    raise AssertionError("could not draw a tie-safe pooling input")


def gradcheck_case(kind: str, seed: int) -> float:
    """One finite-difference check of ``kind``; returns the relative error.

    All math runs in float64 so the probe step dominates the error.
    """
    rng = np.random.default_rng(seed)
    if kind == "conv2d":
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        c_in, c_out, n = int(rng.integers(1, 3)), int(rng.integers(1, 4)), 2
        h = kh + stride * int(rng.integers(1, 4)) - 2 * padding
        w = kw + stride * int(rng.integers(1, 4)) - 2 * padding
        x = rng.normal(size=(n, c_in, h, w))
        wt = rng.normal(size=(c_out, c_in, kh, kw))
        b = rng.normal(size=c_out)
        proj = rng.normal(size=conv2d_forward(x, wt, b, stride, padding).shape)
        fn = lambda: float((conv2d_forward(x, wt, b, stride, padding) * proj).sum())
        gx, gw, gb = conv2d_backward(proj, x, wt, stride, padding)
        return max(
            rel_err(gx, numeric_grad(fn, x)),
            rel_err(gw, numeric_grad(fn, wt)),
            rel_err(gb, numeric_grad(fn, b)),
        )
    if kind == "dense":
        n, f_in, f_out = 3, int(rng.integers(1, 6)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, f_in))
        wt = rng.normal(size=(f_out, f_in))
        b = rng.normal(size=f_out)
        proj = rng.normal(size=(n, f_out))
        fn = lambda: float((dense_forward(x, wt, b) * proj).sum())
        gx, gw, gb = dense_backward(proj, x, wt)
        return max(
            rel_err(gx, numeric_grad(fn, x)),
            rel_err(gw, numeric_grad(fn, wt)),
            rel_err(gb, numeric_grad(fn, b)),
        )
    if kind == "relu":
        x = _relu_safe(rng, (3, int(rng.integers(2, 8))))
        proj = rng.normal(size=x.shape)
        fn = lambda: float((relu(x) * proj).sum())
        return rel_err(relu_backward(proj, x), numeric_grad(fn, x))
    if kind == "maxpool2d":
        window = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        h = window + stride * int(rng.integers(1, 4))
        x = _pool_safe(rng, (2, 2, h, h), window, stride)
        proj = rng.normal(size=maxpool2d(x, window, stride)[0].shape)

        def fn():
            out, _ = maxpool2d(x, window, stride)
            return float((out * proj).sum())

        _, cache = maxpool2d(x, window, stride)
        return rel_err(maxpool2d_backward(proj, cache), numeric_grad(fn, x))
    if kind == "softmax_ce":
        n, k = 4, int(rng.integers(2, 6))
        logits = rng.normal(size=(n, k))
        labels = rng.integers(0, k, size=n)
        fn = lambda: softmax_ce_loss(logits, labels)[0]
        _, grad = softmax_ce_loss(logits, labels)
        return rel_err(grad, numeric_grad(fn, logits))
    if kind == "sigmoid_bce":
        n, k = 4, int(rng.integers(1, 6))
        logits = rng.normal(size=(n, k))
        labels = rng.integers(0, 2, size=(n, k))
        fn = lambda: sigmoid_bce_loss(logits, labels)[0]
        _, grad = sigmoid_bce_loss(logits, labels)
        return rel_err(grad, numeric_grad(fn, logits))
    raise ValueError(f"unknown kind {kind}")


GRADCHECK_KINDS = ("conv2d", "dense", "relu", "maxpool2d", "softmax_ce", "sigmoid_bce")


def maxpool_loop_oracle(x: np.ndarray, window: int, stride: int, grad_out: np.ndarray):
    """Pure-Python max-pool: (output, argmax, input gradient of ``grad_out``).

    Scans each window in row-major order and keeps the first maximum, so
    ties go to the first position; the gradient of each output lands on
    its argmax position and overlapping windows add up.
    """
    n, c, h, w = x.shape
    h_out, w_out = (h - window) // stride + 1, (w - window) // stride + 1
    out = np.zeros((n, c, h_out, w_out), dtype=x.dtype)
    argmax = np.zeros((n, c, h_out, w_out), dtype=np.int64)
    grad_x = np.zeros(x.shape, dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for oy in range(h_out):
                for ox in range(w_out):
                    best, best_pos = None, 0
                    for dy in range(window):
                        for dx in range(window):
                            v = x[b, ch, oy * stride + dy, ox * stride + dx]
                            if best is None or v > best:
                                best, best_pos = v, dy * window + dx
                    out[b, ch, oy, ox] = best
                    argmax[b, ch, oy, ox] = best_pos
                    dy, dx = divmod(best_pos, window)
                    grad_x[b, ch, oy * stride + dy, ox * stride + dx] += grad_out[b, ch, oy, ox]
    return out, argmax, grad_x.astype(grad_out.dtype)


def _im2col_oracle(x, kh, kw, stride, padding):
    """(C*kh*kw, n*h_out*w_out) patch matrix of an NCHW batch."""
    pads = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    win = sliding_window_view(np.pad(x, pads), (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].transpose(1, 4, 5, 0, 2, 3)
    return np.ascontiguousarray(win).reshape(x.shape[1] * kh * kw, -1)


def conv_forward_oracle(x, weight, bias, stride, padding, chunks):
    """conv2d's output computed as the engine first did: per (lo, hi) chunk
    of ``chunks``, ``w2 @ patches`` over the chunk's im2col patches, plus
    the bias."""
    c_out, _, kh, kw = weight.shape
    h_out = (x.shape[2] + 2 * padding - kh) // stride + 1
    w_out = (x.shape[3] + 2 * padding - kw) // stride + 1
    out = np.empty((len(x), c_out, h_out, w_out), np.result_type(x, weight))
    for lo, hi in chunks:
        part = weight.reshape(c_out, -1) @ _im2col_oracle(x[lo:hi], kh, kw, stride, padding)
        part += bias[:, None]
        out[lo:hi] = part.reshape(c_out, hi - lo, h_out, w_out).transpose(1, 0, 2, 3)
    return out


def conv_backward_oracle(grad_out, x, weight, stride, padding, chunks):
    """conv2d's gradients (d_input, d_weight, d_bias), computed as the engine
    first did, one (lo, hi) chunk of ``chunks`` at a time.

    The input gradient scatters ``w2.T @ g`` into a zeroed padded buffer
    with kh*kw strided adds in (i, j) order. The weight and bias gradients
    are ``g @ patches.T`` and ``g.sum(axis=1)`` of each chunk, summed over
    the chunks in order; a kept batch is the one chunk (0, n).
    """
    c_out, c_in, kh, kw = weight.shape
    n, _, h, w = x.shape
    h_out, w_out = grad_out.shape[2:]
    w2 = weight.reshape(c_out, -1)
    grad_x = np.empty(x.shape, grad_out.dtype)
    grad_w = grad_b = None
    for lo, hi in chunks:
        g = np.ascontiguousarray(grad_out[lo:hi].transpose(1, 0, 2, 3)).reshape(c_out, -1)
        patches = _im2col_oracle(x[lo:hi], kh, kw, stride, padding)
        part_w, part_b = g @ patches.T, g.sum(axis=1)
        if grad_w is None:
            grad_w, grad_b = part_w, part_b
        else:
            grad_w, grad_b = grad_w + part_w, grad_b + part_b
        dwin = (w2.T @ g).reshape(c_in, kh, kw, hi - lo, h_out, w_out)
        d = np.zeros((c_in, hi - lo, h + 2 * padding, w + 2 * padding), grad_out.dtype)
        span_h, span_w = stride * h_out, stride * w_out
        for i in range(kh):
            for j in range(kw):
                d[:, :, i : i + span_h : stride, j : j + span_w : stride] += dwin[:, i, j]
        grad_x[lo:hi] = d[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)
    return grad_x, grad_w.reshape(weight.shape), grad_b


def spec_order_oracle(model, x: np.ndarray, grad_logits: np.ndarray):
    """(logits, parameter gradients) of ``model`` on ``x``, running every
    layer through the ``layers`` functions in position order and backward
    in reverse, whatever order ``Model.forward`` picks. Each layer keeps its
    own input; relu's backward masks on that input, not on its output."""
    prefixes = {"conv2d": "conv", "dense": "dense"}
    counts, names, inputs, pools, h = {}, [], [], {}, x
    for pos, spec in enumerate(model.layers):
        inputs.append(h)
        name = None
        if spec.kind in prefixes:
            prefix = prefixes[spec.kind]
            counts[prefix] = counts.get(prefix, -1) + 1
            name = f"{prefix}{counts[prefix]}"
            w, b = model.params[f"{name}.weight"], model.params[f"{name}.bias"]
        names.append(name)
        if spec.kind == "conv2d":
            h = conv2d_forward(h, w, b, spec.stride, spec.padding)
        elif spec.kind == "relu":
            h = relu(h)
        elif spec.kind == "maxpool2d":
            h, pools[pos] = maxpool2d(h, spec.window, spec.stride)
        elif spec.kind == "flatten":
            h = h.reshape(len(h), -1)
        else:
            h = dense_forward(h, w, b)
    grads, g = {}, grad_logits
    for pos in range(len(model.layers) - 1, -1, -1):
        spec, name, inp = model.layers[pos], names[pos], inputs[pos]
        if spec.kind == "conv2d":
            w = model.params[f"{name}.weight"]
            g, grads[f"{name}.weight"], grads[f"{name}.bias"] = conv2d_backward(
                g, inp, w, spec.stride, spec.padding
            )
        elif spec.kind == "dense":
            w = model.params[f"{name}.weight"]
            g, grads[f"{name}.weight"], grads[f"{name}.bias"] = dense_backward(g, inp, w)
        elif spec.kind == "relu":
            g = relu_backward(g, inp)
        elif spec.kind == "maxpool2d":
            g = maxpool2d_backward(g, pools[pos])
        else:
            g = g.reshape(inp.shape)
    return h, grads


def auroc_pair_oracle(scores: np.ndarray, labels: np.ndarray) -> float:
    """O(n^2) Mann-Whitney oracle: (concordant + 0.5 * tied) / (n1 * n0)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    concordant = float((diff > 0).sum())
    tied = float((diff == 0).sum())
    return (concordant + 0.5 * tied) / (pos.size * neg.size)
