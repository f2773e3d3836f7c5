"""The layers' memory: a warm step reuses the heap memory an earlier step
freed, and no array that is still alive is ever overwritten."""

import platform
import resource
import threading

import numpy as np
import pytest
from helpers import unallocatable_layers

import inmerge.layers
from inmerge.configio import decode
from inmerge.errors import ConfigError
from inmerge.layers import softmax_ce_loss
from inmerge.model import ArchConfig, build_model
from inmerge.training import sgd_step

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
VGG = ArchConfig(input_shape=(3, 64, 64), num_classes=4, preset="small_vgg_d")


def _stepper(arch, n):
    model = build_model(arch, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, *arch.input_shape)).astype(np.float32)
    y = rng.integers(0, arch.num_classes, n)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step():
        logits, caches = model.forward(x, want_caches=True)
        relu_out = caches[[spec.kind for spec in model.layers].index("relu")]
        _, grad = softmax_ce_loss(logits, y)
        sgd_step(model.params, model.backward(grad, caches), velocity, 0.01, 0.9, 1e-4)
        return logits, relu_out

    return step


# A warm step whose freed memory went back to the system takes thousands of
# minor faults (about 7,000 on tiny_cnn and 12,000 on small_vgg_d at batch
# 128); one on a heap that keeps it takes a handful.
WARM_STEP_FAULTS = 64


def _faults(step) -> int:
    """Minor page faults taken by one call of ``step``."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap settings are glibc's")
@pytest.mark.parametrize("arch", [TINY, VGG], ids=["tiny_cnn", "small_vgg_d"])
def test_warm_step_takes_few_page_faults(arch):
    step = _stepper(arch, 128)
    for _ in range(3):
        step()
    faults = _faults(step)
    assert faults <= WARM_STEP_FAULTS, faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap settings are glibc's")
def test_refused_layer_leaves_the_heap_as_it_was():
    """A layer past physical memory is refused before numpy asks malloc for
    it: a failed malloc would move this thread to a new glibc arena, where
    a warm step takes thousands of faults."""
    step = _stepper(TINY, 128)
    step()  # the first step sets the heap up
    doc = {"input_shape": [1, 28, 28], "num_classes": 2, "layers": unallocatable_layers(2**40, 2)}
    with pytest.raises(ConfigError, match="cannot allocate"):
        build_model(decode(ArchConfig, doc, ConfigError, "arch"), seed=0)
    for _ in range(2):
        step()
    faults = _faults(step)
    assert faults <= WARM_STEP_FAULTS, faults


# pool.map calls in one warm batch-128 step, counted with a kept batch's
# weight gradient as one GEMM on the calling thread. Each call costs tens
# of microseconds inside a step.
STEP_POOL_CALLS = {"tiny_cnn": 29, "small_vgg_d": 40}


@pytest.mark.parametrize("arch", [TINY, VGG], ids=["tiny_cnn", "small_vgg_d"])
def test_warm_step_makes_no_more_pool_calls(monkeypatch, arch):
    step = _stepper(arch, 128)
    step()
    callers = []
    pool = inmerge.layers._POOL

    def counting(*args, _original=pool.map):
        callers.append(threading.get_ident())
        return _original(*args)

    monkeypatch.setattr(pool, "map", counting)
    step()
    assert len(callers) <= STEP_POOL_CALLS[arch.preset], callers


def test_kept_outputs_survive_later_steps():
    step = _stepper(TINY, 16)
    logits, relu_out = step()
    saved = logits.tobytes(), relu_out.tobytes()
    step()
    step()
    assert (logits.tobytes(), relu_out.tobytes()) == saved
