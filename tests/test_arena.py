"""The layers' buffer arena: warm steps reuse its memory, and no array that
is still alive is ever handed out again."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inmerge.layers
from inmerge.layers import Arena, softmax_ce_loss
from inmerge.model import ArchConfig, build_model
from inmerge.training import sgd_step

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
VGG = ArchConfig(input_shape=(3, 64, 64), num_classes=4, preset="small_vgg_d")
MiB = 1 << 20


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


@pytest.fixture
def fresh_arena(monkeypatch):
    arena = Arena()
    monkeypatch.setattr(inmerge.layers, "_ARENA", arena)
    return arena


def test_warm_tiny_step_maps_no_memory(fresh_arena):
    step = _stepper(TINY, 128)
    for _ in range(4):
        step()
    main = fresh_arena._main
    step()
    assert fresh_arena._main is main and not fresh_arena._spill_peak


# (arena.empty calls, pool.map calls) in one warm batch-128 step, counted
# with a kept batch's weight gradient as one GEMM on the calling thread.
# Each call costs tens of microseconds inside a step.
STEP_CALLS = {"tiny_cnn": (91, 29), "small_vgg_d": (167, 40)}


@pytest.mark.parametrize("arch", [TINY, VGG], ids=["tiny_cnn", "small_vgg_d"])
def test_warm_step_makes_no_more_arena_or_pool_calls(fresh_arena, monkeypatch, arch):
    step = _stepper(arch, 128)
    step()
    callers: dict = {"empty": [], "map": []}
    for obj, name in ((fresh_arena, "empty"), (inmerge.layers._POOL, "map")):

        def counting(*args, _name=name, _original=getattr(obj, name)):
            callers[_name].append(threading.get_ident())
            return _original(*args)

        monkeypatch.setattr(obj, name, counting)
    step()
    most_empty, most_map = STEP_CALLS[arch.preset]
    assert len(callers["empty"]) <= most_empty and len(callers["map"]) <= most_map, callers
    # scratch taken inside a worker would let the arena's layout drift between steps
    assert set(callers["empty"]) == {threading.get_ident()}


def test_tracemalloc_sees_ranges_of_a_block_mapped_before_it_started():
    arena = Arena()
    arena.empty((MiB,), np.uint8)  # spills, then sizes the main block
    arena.empty((MiB,), np.uint8)
    tracemalloc.start()
    try:
        a = arena.empty((MiB,), np.uint8)
        held = tracemalloc.get_traced_memory()[0]
        del a
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held >= MiB > freed


def test_kept_outputs_survive_later_steps():
    step = _stepper(TINY, 16)
    logits, relu_out = step()
    saved = logits.tobytes(), relu_out.tobytes()
    step()
    step()
    assert (logits.tobytes(), relu_out.tobytes()) == saved


SHAPES = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)
DTYPES = st.sampled_from([np.float32, np.float64, np.bool_, np.uint8, np.int64])
# an op allocates (shape, dtype, keep only a view of it) or drops the array at an index
OPS = st.lists(
    st.one_of(st.tuples(SHAPES, DTYPES, st.booleans()), st.integers(0, 30)),
    min_size=1,
    max_size=30,
)


@given(ops=st.tuples(OPS, OPS))
@settings(max_examples=60, deadline=None)
def test_live_arrays_never_change_on_two_threads(ops):
    arena = Arena()
    barrier = threading.Barrier(2)
    failures = []

    def run(seed, sequence):
        rng = np.random.default_rng(seed)
        alive = []  # (array, its bytes when filled)
        barrier.wait()
        for op in sequence:
            if isinstance(op, int):
                if alive:
                    alive.pop(op % len(alive))
            else:
                shape, dtype, view_only = op
                a = arena.empty(shape, dtype)
                a.view(np.uint8)[...] = rng.integers(0, 256, a.nbytes, np.uint8).reshape(
                    a.view(np.uint8).shape
                )
                a = a.reshape(-1)[1:] if view_only else a
                alive.append((a, a.tobytes()))
            failures.extend(seed for a, raw in alive if a.tobytes() != raw)

    threads = [threading.Thread(target=run, args=(i, seq)) for i, seq in enumerate(ops)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the arena too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


@given(ops=st.lists(st.one_of(st.sampled_from([1, 64, 65, 128, 192]), st.none()), max_size=40))
@settings(max_examples=200, deadline=None)
def test_freed_ranges_merge_back_into_one(ops):
    """Whatever the order of taking and freeing (None frees the middle live
    array), once nothing is alive the main block serves a request of its
    whole size."""
    arena = Arena()
    arena.empty((192 * len(ops) + 64,), np.uint8)  # dropped at once; it spills and sizes
    arena.empty((1,), np.uint8)  # the main block at this request
    main, alive = arena._main, []
    for op in ops:
        if op is None:
            alive[len(alive) // 2 : len(alive) // 2 + 1] = []
        else:
            alive.append(arena.empty((op,), np.uint8))
    alive.clear()
    whole = arena.empty((len(main),), np.uint8)
    assert arena._main is main and not arena._spilled
    assert whole.nbytes == len(main)
