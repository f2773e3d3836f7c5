"""Activation lifetime: a step keeps each activation only until backward
has used it.

``tracemalloc`` sees numpy's data buffers, worker threads' included, so
the traced peak of a step is exact and repeats from run to run.
"""

import tracemalloc
import weakref

import numpy as np

import inmerge.model
from inmerge import synth_make
from inmerge.model import ArchConfig, build_model
from inmerge.training import TrainConfig, train_epoch

VGG = ArchConfig(input_shape=(3, 64, 64), num_classes=4, preset="small_vgg_d")
TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
MiB = 1 << 20


def _vgg_batch(n):
    return build_model(VGG, seed=0), np.random.default_rng(0).normal(
        size=(n, 3, 64, 64)
    ).astype(np.float32)


def test_small_vgg_step_traced_peak_within_bound():
    model, x = _vgg_batch(8)
    tracemalloc.start()
    try:
        logits, caches = model.forward(x, want_caches=True)
        model.backward(np.ones_like(logits), caches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * MiB, f"{peak / MiB:.1f} MiB"


def test_backward_consumes_every_cache():
    model, x = _vgg_batch(2)
    logits, caches = model.forward(x, want_caches=True)
    assert all(c is not None for c in caches)
    model.backward(np.ones_like(logits), caches)
    assert caches == [None] * len(model.layers)


def test_relu_cache_is_next_conv_input():
    """Every relu's cache is the input of the next conv, so it holds no
    array of its own. A relu before a max-pool runs after the pool, so the
    next conv reads its output, and its cache is of the pooled shape."""
    model, x = _vgg_batch(2)
    _, caches = model.forward(x, want_caches=True)
    kinds = [spec.kind for spec in model.layers]
    relus = [p for p, kind in enumerate(kinds) if kind == "relu"]
    assert len(relus) == 8
    for pos in relus:
        if "conv2d" in kinds[pos:]:
            assert caches[pos] is caches[kinds.index("conv2d", pos)][0], pos
        if kinds[pos + 1] == "maxpool2d":
            assert caches[pos].shape == caches[pos + 1].argmax.shape, pos


def test_warm_small_vgg_step_at_batch_32_traces_at_most_108_mib():
    """A warm step's traced peak; pre-pool relus that ran before their
    pools, on the full conv output, kept it above 116 MiB."""
    model, x = _vgg_batch(32)

    def step():
        logits, caches = model.forward(x, want_caches=True)
        model.backward(np.ones_like(logits), caches)

    step()
    tracemalloc.start()
    try:
        step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 108 * MiB, f"{peak / MiB:.1f} MiB"


def test_train_epoch_frees_each_batch_before_the_next_forward(monkeypatch):
    outputs = []  # weakrefs to the current batch's conv outputs
    forwards = []  # per forward pass: how many earlier conv outputs were alive

    def conv_forward(*args, _original=inmerge.model.conv2d_forward, **kwargs):
        out = _original(*args, **kwargs)
        outputs.append(weakref.ref(out))
        return out

    def forward(self, *args, _original=inmerge.model.Model.forward, **kwargs):
        forwards.append(sum(ref() is not None for ref in outputs))
        outputs.clear()
        return _original(self, *args, **kwargs)

    monkeypatch.setattr(inmerge.model, "conv2d_forward", conv_forward)
    monkeypatch.setattr(inmerge.model.Model, "forward", forward)
    data = synth_make("striped_textures", 12, 4, 1, 28, 28, seed=0)
    cfg = TrainConfig(epochs_pretrain=1, epochs_inmerge=0, batch_size=8, seed=0)
    model = build_model(TINY, cfg.seed)
    vel = {k: np.zeros_like(v) for k, v in model.params.items()}
    train_epoch(model, data, cfg, 0, vel)
    assert len(forwards) > 2
    assert forwards == [0] * len(forwards)
