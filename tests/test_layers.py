"""Layer math: contract examples, purity, and spot gradient checks.

The full 20-instance-per-kind gradient sweep lives in the acceptance
suite; here a smaller sample keeps the dev loop fast.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from helpers import (
    GRADCHECK_KINDS,
    REL_TOL,
    _im2col_oracle,
    conv_backward_oracle,
    conv_forward_oracle,
    gradcheck_case,
    maxpool_loop_oracle,
)

import inmerge.layers
from inmerge.errors import LabelDomainError, NumericError, ShapeError
from inmerge.layers import (
    conv2d_backward,
    conv2d_forward,
    conv_spec,
    dense_backward,
    dense_forward,
    dense_spec,
    maxpool2d,
    maxpool2d_backward,
    pool_spec,
    relu,
    relu_backward,
    sigmoid_bce_loss,
    softmax_ce_loss,
)
from inmerge.model import KINDS, ArchConfig, resolve_layers


def f32(values):
    return np.asarray(values, dtype=np.float32)


class TestConv2d:
    def test_hand_cross_correlation(self):
        x = f32([[[[1, 2], [3, 4]]]])
        w = f32([[[[1, 0], [0, 1]]]])
        out = conv2d_forward(x, w, np.zeros(1, np.float32))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 5.0

    def test_zero_kernel_gives_constant_bias(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((4, 3, 3, 3), np.float32)
        b = f32([1.5, -2.0, 0.0, 7.0])
        out = conv2d_forward(x, w, b)
        for o in range(4):
            assert np.all(out[:, o] == b[o])

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        out = conv2d_forward(x, w, np.zeros(3, np.float32))
        assert np.array_equal(out, x)

    def test_stride_padding_geometry(self):
        x = np.ones((1, 1, 5, 5), np.float32)
        w = np.ones((1, 1, 3, 3), np.float32)
        out = conv2d_forward(x, w, np.zeros(1, np.float32), stride=2, padding=1)
        assert out.shape == (1, 1, 3, 3)
        # center window fully inside: 9 ones
        assert out[0, 0, 1, 1] == 9.0
        # corner window: 2x2 overlap due to zero padding
        assert out[0, 0, 0, 0] == 4.0

    def test_non_integer_extent_rejected(self):
        x = np.zeros((1, 1, 5, 5), np.float32)
        w = np.zeros((1, 1, 2, 2), np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, np.zeros(1, np.float32), stride=2)

    def test_channel_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4), np.float32)
        w = np.zeros((1, 3, 2, 2), np.float32)
        with pytest.raises(ShapeError):
            conv2d_forward(x, w, np.zeros(1, np.float32))

    def test_nonfinite_output_is_an_error(self):
        x = np.full((1, 1, 2, 2), np.inf, np.float32)
        w = np.ones((1, 1, 2, 2), np.float32)
        with pytest.raises(NumericError):
            conv2d_forward(x, w, np.zeros(1, np.float32))

    def test_purity_and_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 6, 6)).astype(np.float32)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        x0, w0 = x.copy(), w.copy()
        out1 = conv2d_forward(x, w, b, stride=1, padding=1)
        out2 = conv2d_forward(x, w, b, stride=1, padding=1)
        assert np.array_equal(out1, out2)
        assert np.array_equal(x, x0) and np.array_equal(w, w0)

    def test_backward_zero_grad(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 4, 4)).astype(np.float32)
        w = rng.normal(size=(2, 2, 3, 3)).astype(np.float32)
        gx, gw, gb = conv2d_backward(np.zeros((1, 2, 2, 2), np.float32), x, w)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_bias_is_grad_sum(self):
        x = np.zeros((1, 1, 3, 3), np.float32)
        w = np.zeros((1, 1, 2, 2), np.float32)
        grad_out = f32([[[[1, 2], [3, 4]]]])
        _, _, gb = conv2d_backward(grad_out, x, w)
        assert np.array_equal(gb, f32([10.0]))

    def test_single_element_weight_grad(self):
        # unit upstream grad on the 2x2/2x2 case: d out / d w[i,j] = x[i,j]
        x = f32([[[[1, 2], [3, 4]]]])
        w = f32([[[[1, 0], [0, 1]]]])
        _, gw, _ = conv2d_backward(np.ones((1, 1, 1, 1), np.float32), x, w)
        assert np.array_equal(gw, x)


class TestRelu:
    def test_examples(self):
        assert np.array_equal(relu(f32([-1, 0, 2])), f32([0, 0, 2]))
        x = f32([0.5, 1.0, 3.0])
        assert np.array_equal(relu(x), x)

    def test_backward_mask_and_zero_rule(self):
        g = relu_backward(f32([5, 5, 5]), f32([-1, 0, 2]))
        assert np.array_equal(g, f32([0, 0, 5]))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_backward_through_output_equals_through_input(self, data):
        """The model caches relu's output instead of its input: the backward
        mask must be the same bytes for ±0, subnormals, ±inf and NaN."""
        special = st.sampled_from(
            [0.0, -0.0, 1e-45, -1e-45, 1e-39, -1e-39, math.inf, -math.inf, math.nan]
        )
        x = data.draw(arrays(
            np.float32, array_shapes(min_dims=1, max_dims=4, max_side=5),
            elements=special | st.floats(width=32),
        ))
        g = data.draw(arrays(np.float32, x.shape, elements=st.floats(-1e3, 1e3, width=32)))
        assert relu_backward(g, relu(x)).tobytes() == relu_backward(g, x).tobytes()


class TestMaxPool:
    def test_basic(self):
        out, _ = maxpool2d(f32([[[[1, 2], [3, 4]]]]), window=2, stride=2)
        assert out[0, 0, 0, 0] == 4.0

    def test_tie_routes_to_first_row_major(self):
        x = np.ones((1, 1, 2, 2), np.float32)
        out, cache = maxpool2d(x, window=2, stride=2)
        assert out[0, 0, 0, 0] == 1.0
        gx = maxpool2d_backward(f32([[[[7]]]]), cache)
        assert np.array_equal(gx, f32([[[[7, 0], [0, 0]]]]))

    def test_backward_routes_to_argmax(self):
        _, cache = maxpool2d(f32([[[[1, 2], [3, 4]]]]), window=2, stride=2)
        gx = maxpool2d_backward(f32([[[[7]]]]), cache)
        assert np.array_equal(gx, f32([[[[0, 0], [0, 7]]]]))

    def test_overlapping_windows_accumulate(self):
        x = f32([[[[1, 2, 3], [4, 5, 6], [7, 8, 9]]]])
        out, cache = maxpool2d(x, window=2, stride=1)
        assert np.array_equal(out[0, 0], f32([[5, 6], [8, 9]]))
        gx = maxpool2d_backward(np.ones((1, 1, 2, 2), np.float32), cache)
        assert np.array_equal(gx[0, 0], f32([[0, 0, 0], [0, 1, 1], [0, 1, 1]]))

    def test_non_integer_extent_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2d(np.zeros((1, 1, 7, 7), np.float32), window=2, stride=2)


class TestConvChunks:
    """Batches whose patches exceed ``PATCH_KEEP_LIMIT`` run in chunks of
    ``PATCH_BUDGET`` bytes."""

    @staticmethod
    def _budget_for(monkeypatch, samples, x, weight, stride, padding):
        """Set the budget so that exactly ``samples`` samples fit a chunk."""
        h_out = (x.shape[2] + 2 * padding - weight.shape[2]) // stride + 1
        w_out = (x.shape[3] + 2 * padding - weight.shape[3]) // stride + 1
        per_sample = weight[0].size * h_out * w_out * x.dtype.itemsize
        monkeypatch.setattr(inmerge.layers, "PATCH_BUDGET", samples * per_sample + 1)
        monkeypatch.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", 0)

    @pytest.mark.parametrize("stride, padding, size", [(1, 1, 9), (2, 1, 11), (1, 0, 6)])
    def test_uneven_chunks_match_one_chunk(self, monkeypatch, stride, padding, size):
        rng = np.random.default_rng(stride + 10 * padding)
        x = rng.normal(size=(5, 3, size, size)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        cols: list = []
        out1 = conv2d_forward(x, w, b, stride, padding, _cols_out=cols)
        assert len(cols) == 1  # the whole batch is one chunk at the default limits
        g = rng.normal(size=out1.shape).astype(np.float32)
        gx1, gw1, gb1 = conv2d_backward(g, x, w, stride, padding)

        self._budget_for(monkeypatch, 2, x, w, stride, padding)  # chunks of 2, 2, 1
        cols = []
        out2 = conv2d_forward(x, w, b, stride, padding, _cols_out=cols)
        assert cols == []  # patches of a chunked batch are not kept
        gx2, gw2, gb2 = conv2d_backward(g, x, w, stride, padding)
        assert out2.tobytes() == out1.tobytes()
        assert gx2.tobytes() == gx1.tobytes()
        # weight and bias gradients are summed chunk by chunk: float32 rounding
        for chunked, whole in ((gw2, gw1), (gb2, gb1)):
            assert chunked.dtype == whole.dtype and chunked.shape == whole.shape
            np.testing.assert_allclose(chunked, whole, rtol=1e-5, atol=1e-5 * np.abs(whole).max())

    def test_finite_differences_across_chunks(self, monkeypatch):
        for name in ("PATCH_BUDGET", "FORWARD_BUDGET"):  # one sample per chunk
            monkeypatch.setattr(inmerge.layers, name, 1)
        monkeypatch.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", 0)
        for seed in range(5):
            err = gradcheck_case("conv2d", seed)
            assert err < REL_TOL, f"seed {seed}: rel err {err}"

    def test_kept_and_regathered_patches_give_same_gradients(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 2, 7, 7)).astype(np.float32)
        w = rng.normal(size=(5, 2, 3, 3)).astype(np.float32)
        b = np.zeros(5, np.float32)
        cols: list = []
        out = conv2d_forward(x, w, b, 2, 1, _cols_out=cols)
        g = rng.normal(size=out.shape).astype(np.float32)
        kept = conv2d_backward(g, x, w, 2, 1, cols=cols[0])
        regathered = conv2d_backward(g, x, w, 2, 1)
        for a, r in zip(kept, regathered):
            assert a.tobytes() == r.tobytes()


def _grid_calls(mp) -> list:
    """A list that grows by one for each shard gatherer ``conv2d_forward``
    takes on the padded grid while ``mp`` is active."""
    calls: list = []
    gatherer = inmerge.layers._gatherer

    def spy(*args):
        if args[-1]:  # on_grid
            calls.append(args)
        return gatherer(*args)

    mp.setattr(inmerge.layers, "_gatherer", spy)
    return calls


def _forward_against_oracle(x, w, b, stride, padding, keep_limit, budget, oracles=None):
    """(output, oracle output) of ``conv2d_forward`` in one plan, split into
    1, 2 and 3 shards: with a ``keep_limit``, a training forward's
    (``_cols_out`` given) under that ``PATCH_KEEP_LIMIT`` and ``budget`` as
    ``PATCH_BUDGET``; with None, a forward-only call's, ``budget`` as
    ``FORWARD_BUDGET``. The oracle gathers im2col patches at the same
    chunks, once per distinct chunk list; ``oracles`` (chunk list -> oracle
    output) may share them between calls on the same arrays. Asserts that
    the padded grid ran exactly for a chunked stride-1 batch."""
    keep, runs = keep_limit is not None, []
    oracles = {} if oracles is None else oracles
    with pytest.MonkeyPatch.context() as mp:
        if keep:
            mp.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", keep_limit)
        mp.setattr(inmerge.layers, "PATCH_BUDGET" if keep else "FORWARD_BUDGET", budget)
        calls = _grid_calls(mp)
        for count in (1, 2, 3):
            mp.setattr(inmerge.layers, "SHARDS", count)
            *_, shards, kept = inmerge.layers._conv_plan(x, w, b, stride, padding, keep)
            chunks = tuple(chunk for shard in shards for chunk in shard)
            calls.clear()
            got = conv2d_forward(x, w, b, stride, padding, _cols_out=[] if keep else None)
            assert len(calls) == (0 if kept or stride > 1 else len(shards))
            if chunks not in oracles:  # a chunked plan's chunks do not depend on SHARDS
                oracles[chunks] = conv_forward_oracle(x, w, b, stride, padding, chunks)
            want = oracles[chunks]
            assert got.dtype == want.dtype and got.shape == want.shape
            runs.append((got, want))
    return runs


class TestConvGrid:
    """A chunked stride-1 batch's forward, in a training forward or a
    forward-only call, runs on the zero-padded grid and, at the preset
    layers, keeps the bytes of the im2col path it replaces."""

    @pytest.mark.parametrize("n", [128, 37])
    @pytest.mark.parametrize(
        "arch",
        [
            ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn"),
            ArchConfig(input_shape=(3, 64, 64), num_classes=4, preset="small_vgg_d"),
        ],
        ids=["tiny_cnn", "small_vgg_d"],
    )
    def test_every_preset_conv(self, arch, n):
        """Each conv, forced to chunks and at the default limits, gives the
        oracle's bytes; at batch 37 also those of the whole batch kept (the
        kept batch-128 patch matrices of 38-302 MB would only cost memory).
        A forward-only call, in its own chunks, gives the same bytes."""
        rng = np.random.default_rng(n + 1)
        for spec, shape in _preset_convs(arch):
            x = rng.normal(size=(n, *shape)).astype(np.float32)
            w = rng.normal(size=(spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
            w, b = w.astype(np.float32), rng.normal(size=spec.out_channels).astype(np.float32)
            outs = [conv2d_forward(x, w, b, spec.stride, spec.padding).tobytes()]
            budget, oracles = inmerge.layers.PATCH_BUDGET, {}
            for limit in [0, inmerge.layers.PATCH_KEEP_LIMIT] + [1 << 40] * (n == 37):
                for got, want in _forward_against_oracle(
                    x, w, b, spec.stride, spec.padding, limit, budget, oracles
                ):
                    assert got.tobytes() == want.tobytes(), (spec, n, limit)
                    outs.append(got.tobytes())
            assert len(set(outs)) == 1, spec

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_geometries(self, data):
        n, c_in, c_out = (data.draw(st.integers(1, top)) for top in (9, 5, 40))
        kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        stride, padding = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2))

        def extent(k):
            """An input extent of at least 1 whose output extent is whole."""
            e = (data.draw(st.integers(1, 6)) - 1) * stride + k - 2 * padding
            while e < 1:
                e += stride
            return e

        h, w = extent(kh), extent(kw)
        h_out, w_out = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        wt = rng.normal(size=(c_out, c_in, kh, kw)).astype(np.float32)
        b = rng.normal(size=c_out).astype(np.float32)
        samples = data.draw(st.integers(1, n))  # per chunk, so the last chunk may be short
        budget = samples * c_in * kh * kw * h_out * w_out * 4
        keep_limit = data.draw(st.sampled_from([0, 1 << 40, None]))  # None: forward-only
        # Each output is the oracle's dot product, but BLAS picks its kernel by
        # the GEMM's shape, so matrix-vector products and small GEMMs (about one
        # case in thirty here, all with 36 or 45 patch rows) may sum in another
        # order on the wider grid, as they already may between chunk plans:
        # every output is held to the rounding bound of any summation order.
        scale = conv_forward_oracle(np.abs(x), np.abs(wt), np.abs(b), stride, padding, [(0, n)])
        bound = 2 * (c_in * kh * kw + 1) * np.finfo(np.float32).eps * scale
        for got, want in _forward_against_oracle(x, wt, b, stride, padding, keep_limit, budget):
            assert np.all(np.abs(got - want) <= bound)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_gatherer_reads_the_oracle_patches(self, data):
        """Off the grid, every chunk's patch matrix (in its own room, or in a
        kept batch's block) has the oracle's bytes; on the grid, its columns
        at the valid positions do. Padding 0 is covered here only."""
        n, c = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 3))
        kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        stride, padding = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        h = data.draw(st.integers(max(1, kh - 2 * padding), 8))
        w = data.draw(st.integers(max(1, kw - 2 * padding), 8))
        h_out, w_out = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
        on_grid = stride == 1 and data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        weight = np.empty((1, c, kh, kw), np.float32)
        args = (x, weight, stride, padding, h_out, w_out)
        if not on_grid and data.draw(st.booleans()):  # a kept batch's shard
            first = data.draw(st.integers(0, n - 1))
            hi = data.draw(st.integers(first + 1, n))
            whole = np.empty((c, kh, kw, n, h_out, w_out), np.float32)
            got = inmerge.layers._gatherer(*args, hi - first, whole, False)(first, hi)
            assert np.shares_memory(got, whole)
            want = _im2col_oracle(x[first:hi], kh, kw, stride, padding)
            block = whole[:, :, :, first:hi].reshape(c * kh * kw, -1)
            assert got.tobytes() == block.tobytes() == want.tobytes()
            return
        step = data.draw(st.integers(1, n))  # the last chunk may be short
        gather = inmerge.layers._gatherer(*args, step, None, on_grid)
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            got, want = gather(lo, hi), _im2col_oracle(x[lo:hi], kh, kw, stride, padding)
            if on_grid:
                grid = got.reshape(c * kh * kw, hi - lo, h + 2 * padding, w + 2 * padding)
                got = grid[..., :h_out, :w_out].reshape(c * kh * kw, -1)
            assert got.tobytes() == want.tobytes()

    def test_nan_input_is_caught_on_the_calling_thread(self, monkeypatch):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 3, 9, 9)).astype(np.float32)
        x[4, 1, 2, 3] = np.nan
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        monkeypatch.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", 0)
        for name in ("PATCH_BUDGET", "FORWARD_BUDGET"):  # one sample per chunk in either plan
            monkeypatch.setattr(inmerge.layers, name, 1)
        threads = []
        ensure_finite = inmerge.layers.ensure_finite

        def spy(name, *arrays):
            threads.append(threading.current_thread())
            return ensure_finite(name, *arrays)

        monkeypatch.setattr(inmerge.layers, "ensure_finite", spy)
        calls = _grid_calls(monkeypatch)
        for cols in ([], None):  # a training forward, then a forward-only call
            threads.clear()
            calls.clear()
            with pytest.raises(NumericError, match="conv2d_forward"):
                conv2d_forward(x, w, np.zeros(4, np.float32), 1, 1, _cols_out=cols)
            assert len(calls) == inmerge.layers.SHARDS and threads == [threading.main_thread()]


def _preset_convs(arch):
    """(spec, per-sample input shape) of every conv of ``arch``."""
    shape, convs = arch.input_shape, []
    for spec in resolve_layers(arch):
        if spec.kind == "conv2d":
            convs.append((spec, shape))
        shape = KINDS[spec.kind].shape(spec, shape)
    return convs


def _assert_backward_matches_oracle(x, w, g, stride, padding, keep_limit, budget):
    """Every output of ``conv2d_backward`` under the given limits, with and
    (when kept) without the forward's patches, and split into 1, 2 or 3
    shards, equals the oracle's bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", keep_limit)
        mp.setattr(inmerge.layers, "PATCH_BUDGET", budget)
        *_, shards, kept = inmerge.layers._conv_plan(x, w, None, stride, padding, True)
        chunks = [(0, len(x))] if kept else [chunk for shard in shards for chunk in shard]
        expected = conv_backward_oracle(g, x, w, stride, padding, chunks)
        for count in (1, 2, 3):
            mp.setattr(inmerge.layers, "SHARDS", count)
            runs = [conv2d_backward(g, x, w, stride, padding)]
            if kept:
                cols: list = []
                conv2d_forward(x, w, np.zeros(len(w), w.dtype), stride, padding, _cols_out=cols)
                runs.append(conv2d_backward(g, x, w, stride, padding, cols=cols[0]))
            for run in runs:
                for got, want in zip(run, expected):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (
                        x.shape, w.shape, stride, padding, kept, count
                    )


class TestConvBackwardOracle:
    """``conv2d_backward`` is byte-equal to the engine's first formulation,
    ``conv_backward_oracle``, on its kept and chunked paths, whatever the
    shard count."""

    @pytest.mark.parametrize("n", [128, 37])
    @pytest.mark.parametrize(
        "arch",
        [
            ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn"),
            ArchConfig(input_shape=(3, 64, 64), num_classes=4, preset="small_vgg_d"),
        ],
        ids=["tiny_cnn", "small_vgg_d"],
    )
    def test_every_preset_conv(self, arch, n):
        """Each conv runs chunked, and kept at batch 37 or where its patches
        fit ``PATCH_KEEP_LIMIT``; forcing the 38-302 MB patch matrices of
        the larger batch-128 layers to be kept would only cost memory."""
        rng = np.random.default_rng(n)
        for spec, shape in _preset_convs(arch):
            x = rng.normal(size=(n, *shape)).astype(np.float32)
            w = rng.normal(size=(spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
            w = w.astype(np.float32)
            out = KINDS["conv2d"].shape(spec, shape)
            # relu's backward passes exact +-0.0 gradients on to the conv below
            g = rng.normal(size=(n, *out)).astype(np.float32) * (rng.random((n, *out)) < 0.6)
            limits = [0]
            if n == 37 or n * w[0].size * out[1] * out[2] * 4 <= inmerge.layers.PATCH_KEEP_LIMIT:
                limits.append(1 << 40)
            for limit in limits:
                _assert_backward_matches_oracle(
                    x, w, g, spec.stride, spec.padding, limit, inmerge.layers.PATCH_BUDGET
                )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_geometries(self, data):
        n, c_in, c_out = (data.draw(st.integers(1, top)) for top in (8, 5, 40))
        kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        stride, padding = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 2))

        def extent(k):
            """An input extent of at least 1 whose output extent is whole."""
            e = (data.draw(st.integers(1, 6)) - 1) * stride + k - 2 * padding
            while e < 1:
                e += stride
            return e

        h, w = extent(kh), extent(kw)
        h_out, w_out = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
        # numpy hands a product with a single row or column to BLAS's
        # matrix-vector routines, whose bits depend on the vector's length
        # and layout: there the oracle's own bits change with the chunking
        assume(c_in * kh * kw >= 2 and c_out >= 2 and h_out * w_out >= 2)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(size=(n, c_in, h, w)).astype(np.float32)
        wt = rng.normal(size=(c_out, c_in, kh, kw)).astype(np.float32)
        g = rng.normal(size=(n, c_out, h_out, w_out)).astype(np.float32)
        g *= rng.random(g.shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        per_sample = c_in * kh * kw * h_out * w_out * 4
        samples = data.draw(st.integers(1, n))  # per chunk when chunked
        keep_limit = data.draw(st.sampled_from([0, 1 << 40]))
        _assert_backward_matches_oracle(
            x, wt, g, stride, padding, keep_limit, samples * per_sample + 1
        )


class TestPoolAgainstLoopOracle:
    """Outputs and input gradients must match the oracle byte for byte:
    ``np.array_equal`` would count -0.0 and +0.0 as equal."""

    @staticmethod
    def check(x, window, stride, rng):
        out, cache = maxpool2d(x, window, stride)
        bare, none = maxpool2d(x, window, stride, want_cache=False)  # tracks no argmax
        assert none is None and bare.tobytes() == out.tobytes()
        g = rng.normal(size=out.shape).astype(np.float32)
        g.flat[::3] = -0.0  # the input gradient must hold +0.0 for these
        want_out, want_argmax, want_gx = maxpool_loop_oracle(x, window, stride, g)
        assert out.tobytes() == want_out.tobytes()
        assert np.array_equal(cache.argmax, want_argmax)
        gx = maxpool2d_backward(g, cache)
        assert gx.dtype == g.dtype
        assert gx.tobytes() == want_gx.tobytes()

    @pytest.mark.parametrize("window, stride", [(1, 1), (2, 2), (3, 3), (3, 2)])
    def test_values_argmax_and_routing(self, window, stride):
        rng = np.random.default_rng(window * 10 + stride)
        size = 7 if window != stride else 6  # whole windows only
        # small integers: many ties inside a window
        x = rng.integers(0, 3, size=(2, 3, size, size)).astype(np.float32)
        self.check(x, window, stride, rng)

    @pytest.mark.parametrize(
        "window, stride, size, values",
        [
            (2, 2, 6, (-3.0, -2.0, -1.0)),
            (2, 2, 6, (-1.0, -0.0, 0.0)),
            (3, 2, 7, (-1.0, -0.0, 0.0)),
            (2, 3, 8, (-1.0, -0.0, 0.0, 1.0)),  # gapped: rows and columns no window reads
            (17, 17, 34, (-1.0, 0.0, 1.0)),  # 289 window positions: a uint16 argmax
        ],
        ids=["negative_ties", "signed_zeros", "signed_zeros_overlapping", "gapped", "17x17"],
    )
    def test_edge_values(self, window, stride, size, values):
        rng = np.random.default_rng(window * 10 + stride)
        x = rng.choice(np.array(values, np.float32), size=(2, 3, size, size))
        self.check(x, window, stride, rng)

    @pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 1)])
    def test_nan_propagates_through_forward(self, at):
        x = np.zeros((1, 1, 4, 4), np.float32)
        x[0, 0, at[0], at[1]] = np.nan
        for want_cache in (True, False):
            with pytest.raises(NumericError, match="maxpool2d"):
                maxpool2d(x, 2, 2, want_cache)


class TestDense:
    def test_identity(self):
        x = f32([[1, 2], [3, 4]])
        out = dense_forward(x, np.eye(2, dtype=np.float32), np.zeros(2, np.float32))
        assert np.array_equal(out, x)

    def test_hand_case(self):
        out = dense_forward(f32([[1, 2]]), f32([[3, 4]]), f32([5]))
        assert out[0, 0] == 16.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            dense_forward(f32([[1, 2]]), f32([[3, 4, 5]]), f32([5]))
        with pytest.raises(ShapeError):
            dense_backward(f32([[1, 1]]), f32([[1, 2]]), f32([[3, 4]]))

    def test_backward_shapes(self):
        gx, gw, gb = dense_backward(f32([[1]]), f32([[1, 2]]), f32([[3, 4]]))
        assert np.array_equal(gx, f32([[3, 4]]))
        assert np.array_equal(gw, f32([[1, 2]]))
        assert np.array_equal(gb, f32([1]))


class TestSoftmaxCE:
    def test_uniform_logits(self):
        loss, _ = softmax_ce_loss(f32([[0, 0]]), np.array([0]))
        assert loss == pytest.approx(math.log(2), abs=1e-6)

    def test_saturated_is_stable_and_near_zero(self):
        loss, grad = softmax_ce_loss(f32([[1000, 0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.isfinite(grad).all()

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(5, 7)).astype(np.float32)
        labels = rng.integers(0, 7, size=5)
        _, grad = softmax_ce_loss(logits, labels)
        assert np.abs(grad.sum(axis=1)).max() < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(LabelDomainError):
            softmax_ce_loss(f32([[0, 0]]), np.array([2]))

    def test_non_negative_and_zero_only_when_saturated_correct(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(8, 4)).astype(np.float32)
        labels = rng.integers(0, 4, size=8)
        loss, _ = softmax_ce_loss(logits, labels)
        assert loss > 0.0


class TestSigmoidBCE:
    def test_logit_zero(self):
        for label in (0, 1):
            loss, _ = sigmoid_bce_loss(f32([[0.0]]), np.array([[label]]))
            assert loss == pytest.approx(math.log(2), abs=1e-6)

    def test_grad_closed_form(self):
        _, grad = sigmoid_bce_loss(f32([[0.0]]), np.array([[1]]))
        assert grad[0, 0] == pytest.approx(-0.5, abs=1e-7)

    def test_stable_for_large_logits(self):
        logits = f32([[100.0, -100.0]])
        loss, grad = sigmoid_bce_loss(logits, np.array([[1, 0]]))
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_non_binary_label_rejected(self):
        with pytest.raises(LabelDomainError):
            sigmoid_bce_loss(f32([[0.0]]), np.array([[2]]))


class TestSpecConstructors:
    def test_conv_spec_validation(self):
        with pytest.raises(ShapeError):
            conv_spec(0, 1, 3, 3)
        with pytest.raises(ShapeError):
            conv_spec(1, 1, 3, 3, stride=0)
        with pytest.raises(ShapeError):
            conv_spec(1, 1, 3, 3, padding=-1)

    def test_pool_dense_validation(self):
        with pytest.raises(ShapeError):
            pool_spec(0, 1)
        with pytest.raises(ShapeError):
            dense_spec(0, 1)


@pytest.mark.parametrize("kind", GRADCHECK_KINDS)
def test_gradients_match_finite_differences(kind):
    """Spot check; the acceptance suite runs >= 20 instances per kind."""
    for seed in range(5):
        err = gradcheck_case(kind, seed)
        assert err < REL_TOL, f"{kind} seed {seed}: rel err {err}"
