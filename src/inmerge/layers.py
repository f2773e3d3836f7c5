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

Speed and memory:

- Batch shards use every core. conv2d, relu and the ``window == stride``
  max-pool run their batch as ``SHARDS`` shards (conv2d: groups of its
  chunks) on ``ShardPool``: min(``SHARDS``, usable CPUs) worker threads,
  started on first use. Shard boundaries depend on shapes and ``SHARDS``
  only, and every worker and calling thread is set to one BLAS thread by
  ``openblas_set_num_threads_local`` (numpy's pthreads OpenBLAS applies
  it process-wide), so results are byte-identical for any worker count.
  Without that symbol, on one CPU or for one sample, shards run on the
  calling thread. Checks (``ensure_finite``) run on the calling thread,
  which also allocates the large buffers the workers fill: memory a
  worker frees stays in its own malloc arena.
- conv2d lowers to GEMMs over an im2col patch matrix (Chellapilla et al.
  2006). A batch whose patch matrix fits ``PATCH_KEEP_LIMIT`` keeps it
  whole, gathered one shard at a time, and forward hands it on to
  backward. A larger batch runs in chunks of ``max(1, PATCH_BUDGET //
  (C_in*kh*kw*h_out*w_out*itemsize))`` samples, so each chunk's patches
  are consumed while still in cache; it keeps only its input, and
  backward gathers the patches again, chunk by chunk. A kept batch's
  weight and bias gradients are one GEMM and one sum over the batch on
  the calling thread; a chunked one's are summed chunk by chunk.
- maxpool2d with ``window == stride`` (non-overlapping windows) takes the
  maximum over the ``window**2`` strided views of its input and routes
  backward through the same views; overlapping pools take the argmax over
  a sliding-window view. Both give the same values and argmaxes.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
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
# batch shards

# Pieces a layer splits its batch into. Shard boundaries depend only on
# shapes and this constant, never on the worker count, so results are
# byte-identical whichever thread runs a shard.
SHARDS = 2


def _shards(n: int) -> list[tuple[int, int]]:
    """``SHARDS`` near-equal (lo, hi) ranges of ``range(n)``, empty ones dropped."""
    bounds = [n * s // SHARDS for s in range(SHARDS + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _blas_set_local():
    """``openblas_set_num_threads_local`` of the OpenBLAS numpy bundles, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = os.listdir(libs) if os.path.isdir(libs) else []
    for path in [os.path.join(libs, name) for name in names if "openblas" in name]:
        fn = getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
        if fn is not None:
            fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
            return fn
    return None


class ShardPool:
    """Worker threads for a layer's shards, each with one BLAS thread.

    ``workers`` defaults to min(``SHARDS``, usable CPUs). ``map`` runs on
    the calling thread when there is one worker, when numpy's OpenBLAS
    lacks ``openblas_set_num_threads_local``, or for fewer than two jobs.
    With the symbol, the calling thread is set to one BLAS thread too, so
    no result depends on which thread computes it. Threads start on first
    use.
    """

    def __init__(self, workers: int | None = None):
        self._workers = workers or min(SHARDS, len(os.sched_getaffinity(0)))
        self._lock = threading.Lock()
        self._started = False
        self._set_local = None
        self._executor = None

    def map(self, fn, jobs: list) -> list:
        """[fn(*job) for job in jobs]; returns once all have finished,
        raising the first error."""
        with self._lock:
            if not self._started:
                self._started, self._set_local = True, _blas_set_local()
                if self._set_local is not None and self._workers > 1:
                    # imported on first use: importing it with the module costs ~8 ms
                    from concurrent.futures import ThreadPoolExecutor

                    self._executor = ThreadPoolExecutor(
                        self._workers, "inmerge-shard", initializer=self._set_local, initargs=(1,)
                    )
        if self._set_local is not None:
            self._set_local(1)
        if self._executor is None or len(jobs) < 2:
            return [fn(*job) for job in jobs]
        # each call sees the caller's context, e.g. its numpy errstate
        futures = [self._executor.submit(contextvars.copy_context().run, fn, *job) for job in jobs]
        for future in futures:
            future.exception()  # waits for every call before any error is raised
        return [f.result() for f in futures]


_POOL = ShardPool()


# ---------------------------------------------------------------------------
# conv2d

# Both limits were sized on a 2-core Xeon (4 MiB L2 per core, shared L3)
# by timing every ``tiny_cnn`` and ``small_vgg_d`` conv at batch 128 inside
# a training step.
#
# Bytes of im2col patches one batch chunk may gather. A chunk's patches are
# consumed by its GEMMs while still in cache; 2-8 MiB were fastest.
PATCH_BUDGET = 8 << 20
# Whole-batch patch matrices up to this size are gathered once and kept
# for backward: chunking them saved no time, and gathering them again cost
# more than it saved. Patches of 14-29 MB (tiny_cnn conv1/3, small_vgg_d
# conv6) ran faster kept, those of 38 MB and up as fast or faster chunked.
PATCH_KEEP_LIMIT = 32 << 20


def _im2col(
    padded: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int, out: np.ndarray
) -> np.ndarray:
    """Patch matrix (C*kh*kw, N*h_out*w_out) of a padded NCHW batch,
    gathered into ``out``, a (C, kh, kw, N, h_out, w_out) view.

    Keeping the spatial axes minor makes the gather run over long
    contiguous spans of the input, which dominates conv throughput here.
    """
    n, c = padded.shape[:2]
    win = sliding_window_view(padded, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (N, C, h_out, w_out, kh, kw) -> (C, kh, kw, N, h_out, w_out)
    np.copyto(out, win.transpose(1, 4, 5, 0, 2, 3))
    return out.reshape(c * kh * kw, n * h_out * w_out)


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


def _conv_chunks(
    x: np.ndarray, weight: np.ndarray, h_out: int, w_out: int
) -> tuple[int, list[list[tuple[int, int]]], bool]:
    """(step, shards, kept): the batch's (lo, hi) chunks of at most ``step``
    samples, grouped into ``_shards``. A batch whose patches fit
    ``PATCH_KEEP_LIMIT`` is kept: one patch matrix, one chunk per shard. A
    larger one runs in chunks of as many samples as fit ``PATCH_BUDGET``."""
    n = x.shape[0]
    per_sample = weight[0].size * h_out * w_out * x.dtype.itemsize
    kept = n * per_sample <= PATCH_KEEP_LIMIT
    step = max(1, -(-n // SHARDS) if kept else PATCH_BUDGET // per_sample)
    chunks = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    return step, [chunks[lo:hi] for lo, hi in _shards(len(chunks))], kept


def _patch_buffers(shards, whole, shape, dtype) -> list[np.ndarray]:
    """One patch buffer per shard, allocated on the calling thread (see the
    module docstring): the shard's sample block of ``whole``, a kept
    batch's (C, kh, kw, N, h_out, w_out) patches, or room for one chunk."""
    if whole is not None:
        return [whole[:, :, :, chunks[0][0] :] for chunks in shards]
    return [np.empty(shape, dtype) for _ in shards]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    _cols_out: list | None = None,
) -> np.ndarray:
    """Cross-correlate an NCHW batch with OIHW kernels, zero padding.

    The batch runs in the chunks of ``_conv_chunks``, one pool job per
    shard: each chunk's patches are gathered and multiplied while they are
    in cache. Chunking leaves every output element bit-identical, since
    each is one dot product over the same patch column.

    ``_cols_out``, when given, receives the patch matrix of a kept batch,
    so a following ``conv2d_backward`` can skip regathering it. A chunked
    batch's patches are not kept: backward gathers them again, chunk by
    chunk, which holds far less memory from forward to backward.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    n, c_in = x.shape[:2]
    c_out, _, kh, kw = weight.shape
    w2 = weight.reshape(c_out, -1)
    step, shards, kept = _conv_chunks(x, weight, h_out, w_out)
    out = np.empty((n, c_out, h_out, w_out), dtype=np.result_type(x, weight))
    cols = None
    if kept and _cols_out is not None:
        cols = np.empty((c_in, kh, kw, n, h_out, w_out), dtype=x.dtype)
        _cols_out.append(cols.reshape(c_in * kh * kw, n * h_out * w_out))

    def run(chunks, buf):
        for lo, hi in chunks:
            block = buf[:, :, :, : hi - lo]
            patches = _im2col(_padable(x[lo:hi], padding), kh, kw, stride, h_out, w_out, block)
            chunk = w2 @ patches
            chunk += bias[:, None]
            out[lo:hi] = chunk.reshape(c_out, -1, h_out, w_out).transpose(1, 0, 2, 3)

    buffers = _patch_buffers(shards, cols, (c_in, kh, kw, step, h_out, w_out), x.dtype)
    _POOL.map(run, list(zip(shards, buffers)))
    ensure_finite("conv2d_forward", out)
    return out


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    cols: np.ndarray | None = None,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients (d_input, d_weight, d_bias) of the conv2d contract.

    ``cols`` may pass back the patch matrix captured by the forward call.
    Otherwise patches are gathered again from ``x`` in the forward's
    chunks. Every gradient is bit-identical either way. A chunked batch's
    weight and bias gradients are summed chunk by chunk, in batch order,
    so they may differ from a one-chunk sum in the last bits. Without
    ``need_input_grad`` the input gradient is skipped and None returned in
    its place; the parameter gradients stay bit-identical.
    """
    c_out, c_in, kh, kw = weight.shape
    bias_probe = np.zeros(c_out, dtype=weight.dtype)
    h_out, w_out = _conv_geometry(x, weight, bias_probe, stride, padding)
    n, _, h, w = x.shape
    if grad_out.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d_backward: grad shape {grad_out.shape} != {(n, c_out, h_out, w_out)}"
        )
    w2 = weight.reshape(c_out, -1)
    step, shards, kept = _conv_chunks(x, weight, h_out, w_out)
    hw, dt, span_h, span_w = h_out * w_out, grad_out.dtype, stride * h_out, stride * w_out
    grad_x = np.empty(x.shape, dtype=dt) if need_input_grad else None
    # A kept batch's shards fill whole-batch buffers of patches and of the
    # transposed output gradient; its weight and bias gradients are then one
    # GEMM and one sum, bit-identical to an unsharded pass.
    g_kept = np.empty((c_out, n, h_out, w_out), dt) if kept else None
    gathered = np.empty((c_in, kh, kw, n, h_out, w_out), x.dtype) if kept and cols is None else None

    def run(chunks, buf, dwin):
        parts = []
        for lo, hi in chunks:
            if buf is None:
                patches = cols[:, lo * hw : hi * hw]
            else:
                block = buf[:, :, :, : hi - lo]
                patches = _im2col(_padable(x[lo:hi], padding), kh, kw, stride, h_out, w_out, block)
            if g_kept is None:
                g = np.ascontiguousarray(grad_out[lo:hi].transpose(1, 0, 2, 3)).reshape(c_out, -1)
                parts.append((g @ patches.T, g.sum(axis=1)))
            else:
                np.copyto(g_kept[:, lo:hi], grad_out[lo:hi].transpose(1, 0, 2, 3))
                g = g_kept[:, lo:hi].reshape(c_out, -1)
            if dwin is None:
                continue
            win = np.matmul(w2.T, g, out=dwin[:, : g.shape[1]])
            win = win.reshape(c_in, kh, kw, hi - lo, h_out, w_out)
            # scatter in channel-major layout (matches dwin), transpose on the way out
            dpad = np.zeros((c_in, hi - lo, h + 2 * padding, w + 2 * padding), dtype=dt)
            for i in range(kh):
                for j in range(kw):
                    dpad[:, :, i : i + span_h : stride, j : j + span_w : stride] += win[:, i, j]
            grad_x[lo:hi] = dpad[:, :, padding : padding + h, padding : padding + w].transpose(
                1, 0, 2, 3
            )
        return parts

    buffers = [None] * len(shards) if cols is not None else _patch_buffers(
        shards, gathered, (c_in, kh, kw, step, h_out, w_out), x.dtype
    )
    dwins = [np.empty((c_in * kh * kw, step * hw), dt) if need_input_grad else None for _ in shards]
    parts = _POOL.map(run, list(zip(shards, buffers, dwins)))
    if kept:
        g = g_kept.reshape(c_out, -1)
        patches = cols if cols is not None else gathered.reshape(c_in * kh * kw, -1)
        parts = [[(g @ patches.T, g.sum(axis=1))]]
    (grad_weight, grad_bias), *rest = [part for shard in parts for part in shard]
    for part_weight, part_bias in rest:
        grad_weight += part_weight
        grad_bias += part_bias
    grad_weight = grad_weight.reshape(weight.shape)
    checked = (grad_weight, grad_bias) if grad_x is None else (grad_x, grad_weight, grad_bias)
    ensure_finite("conv2d_backward", *checked)
    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# relu


def relu(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    _POOL.map(lambda lo, hi: np.maximum(x[lo:hi], 0, out=out[lo:hi]), _shards(len(x)))
    return out


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise ShapeError(f"relu_backward: grad shape {grad_out.shape} != {x.shape}")
    out = np.empty_like(grad_out)
    _POOL.map(
        lambda lo, hi: np.multiply(grad_out[lo:hi], x[lo:hi] > 0, out=out[lo:hi]), _shards(len(x))
    )
    return out


# ---------------------------------------------------------------------------
# maxpool2d


@dataclass(frozen=True)
class PoolCache:
    """What maxpool2d_backward needs: argmaxes plus the forward geometry."""

    argmax: np.ndarray  # (N, C, h_out, w_out), flat index into the window
    input_shape: tuple[int, int, int, int]
    window: int
    stride: int


def _tiles(a: np.ndarray, k: int) -> list[np.ndarray]:
    """The k*k strided views a[..., i::k, j::k] of a non-overlapping k/k
    pool, in row-major window order; view (i, j) holds window position
    i*k + j of every window."""
    return [a[:, :, i::k, j::k] for i in range(k) for j in range(k)]


def maxpool2d(x: np.ndarray, window: int, stride: int) -> tuple[np.ndarray, PoolCache]:
    """Per-window maxima; ties go to the first row-major window position.

    A non-overlapping pool (``window == stride``, so the windows tile the
    input exactly) takes the running maximum over its ``window**2``
    strided views, which reads the input once per view and never builds
    the window axis; its argmaxes are the smallest integer dtype that
    holds ``window**2 - 1``. Overlapping pools take the argmax over a
    ``sliding_window_view``. Both give the same values and argmaxes.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: need 4-d input, got {x.ndim}-d")
    h_out = out_extent(x.shape[2], window, stride, 0, "maxpool2d height")
    w_out = out_extent(x.shape[3], window, stride, 0, "maxpool2d width")
    if window == stride:
        shape = (x.shape[0], x.shape[1], h_out, w_out)
        out = np.empty(shape, dtype=x.dtype)
        argmax = np.zeros(shape, dtype=np.min_scalar_type(window * window - 1))

        def run(lo, hi):
            tiles, top, arg = _tiles(x[lo:hi], window), out[lo:hi], argmax[lo:hi]
            np.copyto(top, tiles[0])
            for idx, tile in enumerate(tiles[1:], 1):
                np.copyto(arg, idx, where=tile > top)
                # propagates NaN, so ensure_finite still sees a NaN input
                np.maximum(tile, top, out=top)

        _POOL.map(run, _shards(len(x)))
    else:
        win = sliding_window_view(x, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
        flat = win.reshape(*win.shape[:4], window * window)
        argmax = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0]
        out = np.ascontiguousarray(out)
    ensure_finite("maxpool2d", out)
    return out, PoolCache(argmax, x.shape, window, stride)


def maxpool2d_backward(grad_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route each output gradient to its argmax input position.

    A non-overlapping pool writes each strided view of the input gradient
    once, from the outputs whose argmax is that view's window position.
    """
    n, c, h, w = cache.input_shape
    h_out, w_out = cache.argmax.shape[2:]
    if grad_out.shape != cache.argmax.shape:
        raise ShapeError(
            f"maxpool2d_backward: grad shape {grad_out.shape} != {cache.argmax.shape}"
        )
    if cache.window == cache.stride:
        grad_x = np.zeros(cache.input_shape, dtype=grad_out.dtype)

        def run(lo, hi):
            # + 0 turns -0.0 into +0.0, as the bincount sum below does
            routed, arg = grad_out[lo:hi] + 0, cache.argmax[lo:hi]
            for idx, tile in enumerate(_tiles(grad_x[lo:hi], cache.window)):
                np.copyto(tile, routed, where=arg == idx)

        _POOL.map(run, _shards(n))
        return grad_x
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
