"""Batch shards on the worker pool: results do not depend on how many
threads run them, and the calling thread keeps every check."""

import os
import sys
import threading

import numpy as np
import pytest

import inmerge.layers
import inmerge.model
from inmerge.errors import NumericError
from inmerge.layers import (
    ShardPool,
    conv2d_backward,
    conv2d_forward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
)
from inmerge.model import ArchConfig, build_model

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
VGG = ArchConfig(input_shape=(3, 64, 64), num_classes=9, preset="small_vgg_d")
HAS_BLAS_SYMBOL = inmerge.layers._blas_set_local() is not None


@pytest.fixture
def use_pool(monkeypatch):
    """Install a fresh ``ShardPool(workers)`` as the layers' pool."""
    pools = []

    def install(workers):
        pool = ShardPool(workers)
        pools.append(pool)
        monkeypatch.setattr(inmerge.layers, "_POOL", pool)
        return pool

    yield install
    for pool in pools:
        if pool._executor is not None:
            pool._executor.shutdown()


@pytest.fixture
def gather_threads(monkeypatch):
    """Idents of the threads that gather conv patches."""
    seen = set()
    original = inmerge.layers._gatherer

    def recording(*args):
        gather = original(*args)

        def recorded(lo, hi):
            seen.add(threading.get_ident())
            return gather(lo, hi)

        return recorded

    monkeypatch.setattr(inmerge.layers, "_gatherer", recording)
    return seen


def step_bytes(arch, n, seed=0):
    """Logits, eval logits and every parameter gradient of one step, as bytes."""
    model = build_model(arch, seed)
    x = np.random.default_rng(seed).normal(size=(n, *arch.input_shape)).astype(np.float32)
    logits, caches = model.forward(x, want_caches=True)
    grad = np.random.default_rng(seed + 1).normal(size=logits.shape).astype(np.float32)
    grads = model.backward(grad, caches)
    out = {"logits": logits.tobytes(), "eval": model.forward(x).tobytes()}
    out.update({name: g.tobytes() for name, g in grads.items()})
    return out


@pytest.mark.parametrize("arch", [TINY, VGG], ids=["tiny_cnn", "small_vgg_d"])
def test_step_is_byte_identical_with_one_and_two_workers(use_pool, gather_threads, arch):
    use_pool(1)
    one = step_bytes(arch, 24)
    assert gather_threads == {threading.get_ident()}
    use_pool(2)
    assert step_bytes(arch, 24) == one
    if HAS_BLAS_SYMBOL:
        assert gather_threads - {threading.get_ident()}  # pool workers ran shards


def test_missing_blas_symbol_falls_back_to_the_calling_thread(
    use_pool, gather_threads, monkeypatch
):
    use_pool(2)
    want = step_bytes(TINY, 24)
    monkeypatch.setattr(inmerge.layers, "_blas_set_local", lambda: None)
    use_pool(None)
    gather_threads.clear()
    assert step_bytes(TINY, 24) == want
    assert gather_threads == {threading.get_ident()}


def test_one_sample_runs_on_the_calling_thread(use_pool, gather_threads):
    use_pool(1)
    want = step_bytes(VGG, 1)
    use_pool(2)
    assert step_bytes(VGG, 1) == want
    assert gather_threads == {threading.get_ident()}


def test_empty_batch_keeps_its_shapes(use_pool):
    use_pool(2)
    rng = np.random.default_rng(0)
    x = np.zeros((0, 3, 6, 6), np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    out = conv2d_forward(x, w, np.zeros(4, np.float32), 1, 1)
    assert out.shape == (0, 4, 6, 6)
    gx, gw, gb = conv2d_backward(out, x, w, 1, 1)
    assert gx.shape == x.shape and gw.dtype == np.float32
    assert not gw.any() and gw.shape == w.shape and not gb.any() and gb.shape == (4,)
    assert relu(x).shape == x.shape and relu_backward(x, x).shape == x.shape
    for window, stride in ((2, 2), (3, 1)):
        pooled, cache = maxpool2d(x, window, stride)
        assert maxpool2d_backward(pooled, cache).shape == x.shape


def test_nan_weight_raises_on_the_calling_thread(use_pool):
    use_pool(2)
    model = build_model(VGG, 0)
    model.params["conv3.weight"][0, 0, 0, 0] = np.nan
    x = np.random.default_rng(0).normal(size=(24, 3, 64, 64)).astype(np.float32)
    with pytest.raises(NumericError, match="conv2d_forward"):
        model.forward(x)


def test_layer_checks_run_on_the_calling_thread(use_pool, monkeypatch):
    use_pool(2)
    callers = set()
    original = inmerge.layers.ensure_finite

    def recording(*args):
        callers.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(inmerge.layers, "ensure_finite", recording)
    step_bytes(VGG, 24)
    assert callers == {threading.get_ident()}


@pytest.mark.parametrize("stride, padding, chunked", [(1, 1, False), (2, 1, False), (1, 0, True)])
def test_skipped_input_grad_keeps_param_grads_bit_identical(monkeypatch, stride, padding, chunked):
    if chunked:  # one sample per chunk
        monkeypatch.setattr(inmerge.layers, "PATCH_KEEP_LIMIT", 0)
        monkeypatch.setattr(inmerge.layers, "PATCH_BUDGET", 1)
    rng = np.random.default_rng(stride + padding)
    x = rng.normal(size=(5, 3, 9, 9)).astype(np.float32)
    w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
    out = conv2d_forward(x, w, np.zeros(4, np.float32), stride, padding)
    g = rng.normal(size=out.shape).astype(np.float32)
    _, gw, gb = conv2d_backward(g, x, w, stride, padding)
    gx, gw_skip, gb_skip = conv2d_backward(g, x, w, stride, padding, need_input_grad=False)
    assert gx is None
    assert gw_skip.tobytes() == gw.tobytes() and gb_skip.tobytes() == gb.tobytes()


def test_model_backward_skips_only_the_first_layers_input_grad(monkeypatch):
    seen = []
    original = inmerge.model.conv2d_backward

    def recording(*args, need_input_grad=True, **kwargs):
        seen.append(need_input_grad)
        return original(*args, need_input_grad=need_input_grad, **kwargs)

    monkeypatch.setattr(inmerge.model, "conv2d_backward", recording)
    model = build_model(TINY, 0)
    logits, caches = model.forward(np.ones((2, 1, 28, 28), np.float32), want_caches=True)
    model.backward(np.ones_like(logits), caches)
    assert seen == [True] * (model.n_conv - 1) + [False]


def test_concurrent_callers_on_more_workers_than_cores(use_pool):
    """Four calling threads share a pool of more workers than cores, with
    a short switch interval; every step still matches a lone caller's."""
    use_pool(1)
    want = step_bytes(TINY, 8)
    use_pool(len(os.sched_getaffinity(0)) + 2)
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [
            threading.Thread(target=lambda: results.append(step_bytes(TINY, 8))) for _ in range(4)
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [want] * 4
