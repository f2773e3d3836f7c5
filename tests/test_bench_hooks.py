"""The benchmark's tracer hooks the engine by attribute name.

``bench/tracing.py`` swaps module attributes (``inmerge.model.conv2d_forward``,
``Model.forward``, ...) for span-recording wrappers and reads some of their
positional arguments. A renamed or removed target, or a changed leading
signature, would break only a benchmark run; this test makes it fail here.
"""

import importlib.util
from pathlib import Path

import numpy as np

import inmerge.cli
import inmerge.layers
import inmerge.training
from inmerge import MergeConfig, synth_make
from inmerge.layers import ShardPool
from inmerge.model import ArchConfig, build_model
from inmerge.training import TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_hooks_install_trace_a_step_and_restore():
    tracing = _load_tracing()
    targets = tracing.hooks(full=True)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    model = build_model(ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn"), 0)
    x = np.random.default_rng(0).normal(size=(2, 1, 28, 28)).astype(np.float32)

    tracer = tracing.Tracer()
    with tracing.installed(tracer, targets):
        for owner, attr, original in originals:
            assert getattr(owner, attr) is not original, attr
        logits, caches = model.forward(x, want_caches=True)
        model.backward(np.ones_like(logits), caches)

    for owner, attr, original in originals:
        assert getattr(owner, attr) is original, attr
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    kinds = [spec.kind for spec in model.layers]
    n_conv, n_pool = kinds.count("conv2d"), kinds.count("maxpool2d")
    for name, count in (
        ("layers.conv2d.fwd", n_conv),
        ("layers.conv2d.bwd", n_conv),
        ("layers.maxpool2d.fwd", n_pool),
        ("layers.maxpool2d.bwd", n_pool),
        ("layers.relu.fwd", kinds.count("relu")),
        ("layers.dense.bwd", 1),
        ("model.forward", 1),
        ("model.backward", 1),
    ):
        assert len(spans.get(name, [])) == count, name
    fwd = [s.attrs for s in spans["layers.conv2d.fwd"]]
    assert [a["pos"] for a in fwd] == list(range(n_conv))
    bwd = [s.attrs for s in spans["layers.conv2d.bwd"]]
    assert [a["pos"] for a in bwd] == list(reversed(range(n_conv)))
    assert fwd[0]["x"] == x.shape and fwd[0]["w"] == model.params["conv0.weight"].shape
    assert (fwd[0]["stride"], fwd[0]["padding"]) == (1, 1)
    assert len(spans.get("tensor.ensure_finite", [])) > 0


def test_train_epoch_on_two_pool_workers_traces_the_calling_thread_only(monkeypatch):
    """Layer shards run on pool workers, yet every hooked name runs on the
    calling thread: the tracer raises if a span opens on another thread."""
    tracing = _load_tracing()
    pool = ShardPool(2)
    monkeypatch.setattr(inmerge.layers, "_POOL", pool)
    data = synth_make("striped_textures", 8, 4, 1, 28, 28, seed=0)
    cfg = TrainConfig(batch_size=16, seed=0, merge=MergeConfig(skip_layers=3, seed=0))
    model = build_model(TINY, 0)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer, tracing.hooks(full=True)):
            inmerge.training.train_epoch(model, data, cfg, "inmerge", 0, velocity)
    finally:
        if pool._executor is not None:
            pool._executor.shutdown()
    names = {span.name for span in tracer.spans}
    for name in (
        "training.train_epoch",
        "merging.sweep",
        "layers.conv2d.bwd",
        "layers.relu.bwd",
        "layers.maxpool2d.bwd",
        "tensor.ensure_finite",
        "training.sgd_step",
    ):
        assert name in names, name


def test_cli_worker_count_is_readable(monkeypatch):
    """``bench/run.py`` reports ``inmerge.cli._worker_count()`` as cli.workers."""
    monkeypatch.delenv("INMERGE_THREADS", raising=False)
    workers = inmerge.cli._worker_count()
    assert isinstance(workers, int) and workers >= 1
