"""Forward/backward math for every layer kind the engine supports.

This module holds the math and the ``*_spec`` constructors, which are the
one place each kind's fields are checked. How a kind is wired into a
model - field check, shape rule, parameter init, forward and backward -
is one entry of the kind table in ``model``. The output-extent rule and
the stable sigmoid / log-softmax used by the loss heads live in
``tensor``.

Inputs are never mutated, and an output never shares memory with an
array that is still alive, so identical inputs give bit-identical
outputs. Backward functions return exact analytic gradients of the
forward contracts; tests cross-check them against central finite
differences.

Bit-identity across shard counts, chunk plans and the padded grid holds
at the preset layers (tested), not at every shape: BLAS picks its kernel by
a GEMM's shape, so a matrix-vector product (one patch row, output channel
or output position) or a small GEMM may sum in another order as it widens.

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

- Batch shards use every core. conv2d, relu and max-pool run their batch
  as ``SHARDS`` shards (conv2d: groups of its chunks) on ``ShardPool``,
  whose threads, like the calling one, use one BLAS thread each, so
  results are byte-identical for any worker count and, but for the
  exception above, any ``SHARDS``. Checks (``ensure_finite``) run on the
  calling thread.
- Every array the layers write is taken on the calling thread, a shard's
  scratch once per call: an ``np.empty``, or ``np.zeros`` for a padded
  grid, whose border is read. ``ShardPool`` has glibc keep them on the
  main heap and keep what is freed, so memory is reused once no array
  holds it (sharing by liveness, as in Chen et al. 2016) and a warm
  training step takes almost no new pages from the system.
- conv2d lowers to GEMMs over patch matrices, all read from one
  zero-padded input grid per shard. A batch whose patch matrix fits
  ``PATCH_KEEP_LIMIT`` keeps it, and forward hands it on to backward,
  whose weight gradient is one GEMM, patches @ g.T, on the calling thread.
  A larger batch runs in chunks of ``PATCH_BUDGET`` bytes of patches,
  consumed while still in cache; it keeps only its input, backward gathers
  the patches again, and its weight and bias gradients are summed chunk by
  chunk. At stride 1 its forward GEMM runs on every grid position, whose
  patches are kh*kw contiguous shifted runs. The rest read im2col columns
  (Chellapilla et al. 2006), one per output: backward wants a kept batch's
  patches at its outputs only, and at stride s the grid has s*s times the
  columns. Backward's input gradient is one GEMM on a grid of the same
  geometry and kh*kw shifted adds (sub-chunks of half the patch budget).
- maxpool2d takes the running maximum over the ``window**2`` strided
  views of its input; backward routes through the same views. Neither
  uses ``np.copyto(where=)``, which costs ~10 ns an element, over ten
  times an ``np.maximum`` of the same size.
- An activation lives only until backward has used it (``model``): relu's
  cache is its output, which is also the next layer's input, so the conv
  output before it is freed at once; a relu before a max-pool runs after
  it and keeps only the pooled array. ``Model.backward`` drops each cache
  after its layer, and a training step frees its batch before the next.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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


def _keep_freed_memory() -> None:
    """Have glibc's malloc serve every block from its heap and never trim it."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-4, 0)  # M_MMAP_MAX
        mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


class ShardPool:
    """Worker threads for a layer's shards, each with one BLAS thread.

    ``workers`` defaults to min(``SHARDS``, usable CPUs). ``map`` runs on
    the calling thread when there is one worker, when numpy's OpenBLAS
    lacks ``openblas_set_num_threads_local``, or for fewer than two jobs.
    With the symbol, the calling thread is set to one BLAS thread too, so
    no result depends on which thread computes it. The first ``map`` looks
    the symbol up, starts the threads and, process-wide, has the C heap keep
    the memory it frees (``_keep_freed_memory``); importing changes nothing.
    The heap so never shrinks: a process that moves to a smaller model
    keeps the larger one's pages until it calls glibc's ``malloc_trim(0)``.
    """

    def __init__(self, workers: int | None = None):
        affinity = getattr(os, "sched_getaffinity", None)  # Linux only
        cores = len(affinity(0)) if affinity else os.cpu_count() or 1
        self._workers = workers or min(SHARDS, cores)
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
                _keep_freed_memory()
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


def _conv_geometry(x, weight, bias, stride, padding):
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: need 4-d input/weight, got {x.ndim}-d/{weight.ndim}-d")
    c_out, c_in, kh, kw = weight.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv2d: input has {x.shape[1]} channels, weight expects {c_in}")
    if bias is not None and bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    h_out = out_extent(x.shape[2], kh, stride, padding, "conv2d height")
    w_out = out_extent(x.shape[3], kw, stride, padding, "conv2d width")
    return h_out, w_out


def _grid(h: int, w: int, kh: int, kw: int, padding: int) -> tuple[int, int, int]:
    """(Hp, Wp, slack): a padded grid's extents; its furthest shift, i*Wp + j."""
    return h + 2 * padding, w + 2 * padding, (kh - 1) * (w + 2 * padding) + kw - 1


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


def _gatherer(x, weight, stride, padding, h_out, w_out, step, whole, on_grid):
    """``gather(lo, hi)``: the patch matrix of a chunk of at most ``step``
    samples, read from a zeroed (C, step*Hp*Wp + slack) grid that the chunk
    is copied into. On the grid, it is the kh*kw runs of the grid shifted by
    i*Wp + j, a column per grid position; otherwise, im2col columns, one per
    output, in samples [lo, hi) of ``whole`` (a kept batch's (C, kh, kw, N,
    h_out, w_out) patches) or in room for one chunk. The spatial axes stay
    minor, so every copy runs over long contiguous spans."""
    (c_in, kh, kw), (h, w) = weight.shape[1:], x.shape[2:]
    hp, wp, slack = _grid(h, w, kh, kw, padding)
    grid = np.zeros((c_in, step * hp * wp + slack), x.dtype)  # only interiors are written
    gh, gw = (hp, wp) if on_grid else (h_out, w_out)
    room = np.empty((c_in, kh, kw, step, gh, gw), x.dtype) if whole is None else None
    isz = x.dtype.itemsize

    def gather(lo, hi):
        planes = grid[:, : (hi - lo) * hp * wp].reshape(c_in, hi - lo, hp, wp)
        np.copyto(planes[..., padding:, padding:][..., :h, :w], x[lo:hi].transpose(1, 0, 2, 3))
        patches = whole[:, :, :, lo:hi] if room is None else room[:, :, :, : hi - lo]
        if on_grid:
            runs = patches.reshape(c_in, kh, kw, -1)
            np.copyto(runs, as_strided(grid, runs.shape, (grid.strides[0], wp * isz, isz, isz)))
        else:
            win = sliding_window_view(planes, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
            # (C, m, h_out, w_out, kh, kw) -> (C, kh, kw, m, h_out, w_out)
            np.copyto(patches, win.transpose(0, 4, 5, 1, 2, 3))
        return patches.reshape(c_in * kh * kw, -1)

    return gather


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
    shard: each chunk goes into the shard's padded grid (``_gatherer``),
    whose patches are read and multiplied while they are in cache. A
    chunked stride-1 batch multiplies every grid position and keeps the
    valid ones; the rest read im2col columns, one per output. Each output
    is one dot product over the same patch column on every path (the
    module docstring says where BLAS still moves its bits).

    ``_cols_out``, when given, receives the patch matrix of a kept batch,
    so a following ``conv2d_backward`` can skip regathering it: hence kept
    batches read im2col columns. A chunked batch's patches are not kept:
    backward gathers them again, chunk by chunk, which holds far less memory.
    """
    h_out, w_out = _conv_geometry(x, weight, bias, stride, padding)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    w2 = weight.reshape(c_out, -1)
    step, shards, kept = _conv_chunks(x, weight, h_out, w_out)
    on_grid = stride == 1 and not kept  # at stride s the grid has s*s times the columns
    gh, gw = _grid(h, w, kh, kw, padding)[:2] if on_grid else (h_out, w_out)
    dt = np.result_type(x, weight)
    out = np.empty((n, c_out, h_out, w_out), dt)
    cols = None
    if kept and _cols_out is not None:
        cols = np.empty((c_in, kh, kw, n, h_out, w_out), x.dtype)
        _cols_out.append(cols.reshape(c_in * kh * kw, n * h_out * w_out))

    def run(chunks, gather, gemm):
        for lo, hi in chunks:
            patches = gather(lo, hi)
            chunk = np.matmul(w2, patches, out=gemm[: c_out * patches.shape[1]].reshape(c_out, -1))
            chunk += bias[:, None]
            out[lo:hi] = chunk.reshape(c_out, -1, gh, gw)[..., :h_out, :w_out].transpose(1, 0, 2, 3)

    jobs = []
    for chunks in shards:  # scratch taken on the calling thread, so it stays on the main heap
        gather = _gatherer(x, weight, stride, padding, h_out, w_out, step, cols, on_grid)
        jobs.append((chunks, gather, np.empty((c_out * step * gh * gw,), dt)))
    _POOL.map(run, jobs)
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
    chunks. Every gradient is bit-identical either way, and for any
    ``SHARDS``, matrix-vector shapes aside (module docstring). A kept
    batch's weight gradient is one GEMM over the whole batch. A chunked
    batch's weight and bias gradients are summed chunk by chunk, in batch
    order, so they may differ from a one-chunk sum in the last bits. Without
    ``need_input_grad`` the input gradient is skipped and None returned in
    its place; the parameter gradients stay bit-identical.

    The input gradient is one GEMM over the zero-padded input grid (Hp, Wp)
    with the output gradient at its stride-spaced positions, then kh*kw
    contiguous adds shifted by i*Wp + j. Zero columns add exact zeros to
    sums that start at +0.0 and so never hold -0.0, and each element gets
    its terms in (i, j) order, as in a scatter of the valid columns alone.
    """
    c_out, c_in, kh, kw = weight.shape
    h_out, w_out = _conv_geometry(x, weight, None, stride, padding)
    n, _, h, w = x.shape
    if grad_out.shape != (n, c_out, h_out, w_out):
        raise ShapeError(
            f"conv2d_backward: grad shape {grad_out.shape} != {(n, c_out, h_out, w_out)}"
        )
    w2, k = weight.reshape(c_out, -1), c_in * kh * kw
    step, shards, kept = _conv_chunks(x, weight, h_out, w_out)
    hw, dt, span_h, span_w = h_out * w_out, grad_out.dtype, stride * h_out, stride * w_out
    hp, wp, slack = _grid(h, w, kh, kw, padding)
    grid_floats = (c_out + k + c_in) * hp * wp  # a sample's output gradient, GEMM output, sums
    # samples per input-gradient sub-chunk, whose grids fit half the patch budget
    sub = min(step, max(1, PATCH_BUDGET // 2 // (grid_floats * dt.itemsize)))
    grad_x = np.empty(x.shape, dt) if need_input_grad else None
    # A kept batch's shards fill whole-batch buffers of patches and of the
    # transposed output gradient; its weight and bias gradients are then
    # one GEMM and one sum over the whole batch, on the calling thread.
    g_kept = np.empty((c_out, n, h_out, w_out), dt) if kept else None
    whole = np.empty((c_in, kh, kw, n, h_out, w_out), x.dtype) if kept and cols is None else None
    # each chunk's weight gradient: taken here, as all scratch, not in a worker
    dw = None if kept else np.empty((-(-n // step), k, c_out), np.result_type(x, dt))

    def run(chunks, gather, g_buf, grid):
        parts = []
        for lo, hi in chunks:
            patches = gather(lo, hi) if gather else cols[:, lo * hw : hi * hw]
            if kept:
                g = g_kept[:, lo:hi]
            else:
                g = g_buf[: c_out * (hi - lo) * hw].reshape(c_out, hi - lo, h_out, w_out)
            np.copyto(g, grad_out[lo:hi].transpose(1, 0, 2, 3))
            if not kept:
                g = g.reshape(c_out, -1)
                parts.append((np.matmul(patches, g.T, out=dw[lo // step]).T, g.sum(axis=1)))
        if not need_input_grad:
            return parts
        g_grid, win, d = np.split(grid, [c_out * sub * hp * wp, (c_out + k) * sub * hp * wp])
        g_grid.fill(0)  # only the stride-spaced positions are ever written
        g_grid, win, d = g_grid.reshape(c_out, -1), win.reshape(k, -1), d.reshape(c_in, -1)
        for lo in range(chunks[0][0], chunks[-1][1], sub):
            hi = min(lo + sub, chunks[-1][1])
            size = (hi - lo) * hp * wp
            g = g_grid[:, :size].reshape(c_out, hi - lo, hp, wp)
            np.copyto(g[..., :span_h:stride, :span_w:stride], grad_out[lo:hi].transpose(1, 0, 2, 3))
            np.matmul(w2.T, g_grid[:, :size], out=win[:, :size])
            d[:, : size + slack].fill(0)
            for t in range(kh * kw):  # offset (i, j) = divmod(t, kw), in (i, j) order
                off = t // kw * wp + t % kw
                d[:, off : off + size] += win[t :: kh * kw, :size]
            d_pad = d[:, :size].reshape(c_in, hi - lo, hp, wp)[:, :, padding:, padding:]
            grad_x[lo:hi] = d_pad[:, :, :h, :w].transpose(1, 0, 2, 3)
        return parts

    jobs = []
    for chunks in shards:  # scratch taken in shard order, as in conv2d_forward
        gather = cols is None and _gatherer(
            x, weight, stride, padding, h_out, w_out, step, whole, False
        )
        g_buf = None if kept else np.empty((c_out * step * hw,), dt)
        grid = need_input_grad and np.empty((sub * grid_floats + c_in * slack,), dt)
        jobs.append((chunks, gather, g_buf, grid))
    parts = _POOL.map(run, jobs)
    if kept:
        g = g_kept.reshape(c_out, -1)
        patches = whole.reshape(k, -1) if cols is None else cols
        parts = [[((patches @ g.T).T, g.sum(axis=1))]]
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
    out = np.empty(x.shape, x.dtype)
    _POOL.map(lambda lo, hi: np.maximum(x[lo:hi], 0, out=out[lo:hi]), _shards(len(x)))
    return out


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    if grad_out.shape != x.shape:
        raise ShapeError(f"relu_backward: grad shape {grad_out.shape} != {x.shape}")
    out, mask = np.empty(x.shape, grad_out.dtype), np.empty(x.shape, np.bool_)

    def run(lo, hi):
        np.multiply(grad_out[lo:hi], np.greater(x[lo:hi], 0, out=mask[lo:hi]), out=out[lo:hi])

    _POOL.map(run, _shards(len(x)))
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


def _tiles(a: np.ndarray, k: int, s: int, h_out: int, w_out: int) -> list[np.ndarray]:
    """The k*k strided views of a k/s pool's input, in row-major window
    order; view (i, j) holds window position i*k + j of every window."""
    rows, cols = s * (h_out - 1) + 1, s * (w_out - 1) + 1
    return [a[:, :, i : i + rows : s, j : j + cols : s] for i in range(k) for j in range(k)]


def maxpool2d(x: np.ndarray, window: int, stride: int) -> tuple[np.ndarray, PoolCache]:
    """Per-window maxima; ties go to the first row-major window position.

    The running maximum over the pool's ``window**2`` strided views reads
    the input once per view and never builds the window axis. Argmaxes
    are window positions, in the smallest integer dtype that holds
    ``window**2 - 1``.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: need 4-d input, got {x.ndim}-d")
    h_out = out_extent(x.shape[2], window, stride, 0, "maxpool2d height")
    w_out = out_extent(x.shape[3], window, stride, 0, "maxpool2d width")
    shape = (x.shape[0], x.shape[1], h_out, w_out)
    out = np.empty(shape, x.dtype)
    argmax = np.empty(shape, np.min_scalar_type(window * window - 1))
    hits = np.empty(shape, argmax.dtype)  # the argmax's dtype, so hit * idx cannot overflow

    def run(lo, hi):
        top, arg, hit = out[lo:hi], argmax[lo:hi], hits[lo:hi]
        tiles = _tiles(x[lo:hi], window, stride, h_out, w_out)
        arg.fill(0)
        np.copyto(top, tiles[0])
        for idx, tile in enumerate(tiles[1:], 1):
            # positions rise tile by tile, so a new strict maximum holds the largest one yet
            np.maximum(arg, np.multiply(np.greater(tile, top, out=hit), idx, out=hit), out=arg)
            # propagates NaN, so ensure_finite still sees a NaN input
            np.maximum(tile, top, out=top)

    _POOL.map(run, _shards(len(x)))
    ensure_finite("maxpool2d", out)
    return out, PoolCache(argmax, x.shape, window, stride)


def maxpool2d_backward(grad_out: np.ndarray, cache: PoolCache) -> np.ndarray:
    """Route each output gradient to its argmax input position.

    A pool whose window equals its stride writes each strided view of the
    input gradient once, as ``grad_out * (argmax == idx)``; adding 0 then
    turns -0.0 into +0.0, as the ``np.bincount`` sum of other pools does.
    A non-finite ``grad_out`` therefore gives NaN (NaN * 0) at the other
    positions of its window too. Inside a model none arrives: a pool's
    gradient comes from a loss, conv or dense gradient checked finite,
    through relu and flatten, which keep it finite.
    """
    n, c, h, w = cache.input_shape
    k, (h_out, w_out) = cache.window, cache.argmax.shape[2:]
    if grad_out.shape != cache.argmax.shape:
        raise ShapeError(
            f"maxpool2d_backward: grad shape {grad_out.shape} != {cache.argmax.shape}"
        )
    grad_x = np.empty(cache.input_shape, grad_out.dtype)
    if k == cache.stride:
        mask = np.empty(grad_out.shape, np.bool_)

        def run(lo, hi):
            gx, arg, hit = grad_x[lo:hi], cache.argmax[lo:hi], mask[lo:hi]
            for idx, tile in enumerate(_tiles(gx, k, k, h_out, w_out)):
                np.multiply(grad_out[lo:hi], np.equal(arg, idx, out=hit), out=tile)
            gx += 0

        _POOL.map(run, _shards(n))
        return grad_x
    iy = np.arange(h_out)[:, None] * cache.stride + cache.argmax // k
    ix = np.arange(w_out)[None, :] * cache.stride + cache.argmax % k
    plane = np.arange(n * c).reshape(n, c, 1, 1)
    flat_idx = (plane * (h * w) + iy * w + ix).ravel()
    summed = np.bincount(flat_idx, weights=grad_out.ravel(), minlength=n * c * h * w)
    np.copyto(grad_x, summed.reshape(n, c, h, w))
    return grad_x


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
