"""Span tracing of the inmerge engine from outside its source.

The engine calls its layers, optimizer, data helpers and checkpoint code
through module-level names (``inmerge.model.conv2d_forward``,
``inmerge.training.sgd_step``, ...) and through ``Model.forward`` /
``Model.backward``. ``installed`` swaps those names for wrappers that
record a span per call and puts the originals back on exit, also when the
traced code raises. Nothing under ``src/`` is edited.

A span holds its name, start, end, parent and a few attributes. Spans are
kept in memory; the caller writes them out once, at the end.

Two hook sets exist:

- ``hooks(full=False)`` delimit train steps, epochs and eval passes only.
  This step clock is what the end-to-end run uses, so no span is
  recorded inside a step there.
- ``hooks(full=True)`` add every layer, helper, I/O call and grid cell
  the per-layer table needs.

A train step is a synthetic span: it opens when ``train_epoch`` starts or
the previous ``sgd_step`` returns and closes when the next ``sgd_step``
returns, so every call made while training a batch (batch prep, merge
sweep, forward, loss, backward, update) falls under exactly one step.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager

STEP = "training.step"
EPOCH_TAIL = "training.epoch_tail"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_record(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class _Positions:
    """Hands out layer positions (conv0, conv1, ... / pool0, ...) in the
    order a forward pass (ascending) or backward pass (descending) visits
    them."""

    def __init__(self, counts: dict[str, int], backward: bool):
        self._backward = backward
        self._next = {k: (n - 1 if backward else 0) for k, n in counts.items()}

    def take(self, kind: str) -> int:
        pos = self._next[kind]
        self._next[kind] = pos - 1 if self._backward else pos + 1
        return pos


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self.step: int | None = None  # open synthetic step span
        self.positions: _Positions | None = None

    def open(self, name: str, attrs: dict | None = None) -> int:
        if threading.get_ident() != self._owner:
            # the span stack assumes one thread; INMERGE_THREADS > 1 would break it
            raise RuntimeError("Tracer used from a second thread")
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, attrs))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = end

    def mark(self) -> int:
        """Index the next span will get; spans[mark:] are those recorded since."""
        return len(self.spans)


# ---------------------------------------------------------------------------
# wrapper factories: (tracer, original) -> wrapper


def _spanned(name: str, attrs_of=None, after=None):
    """Span around every call; ``attrs_of(*args, **kwargs)`` adds attributes
    before the call, ``after(span, result, args, kwargs)`` after it."""

    def factory(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(tracer, *args, **kwargs) if attrs_of else None
            idx = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], result, args, kwargs)
            return result

        return wrapper

    return factory


def _conv_attrs(tracer, x, w, stride, padding):
    pos = tracer.positions.take("conv2d") if tracer.positions else None
    return {"pos": pos, "x": x.shape, "w": w.shape, "stride": stride, "padding": padding}


def _conv_fwd_attrs(tracer, x, weight, bias, stride=1, padding=0, **kwargs):
    return _conv_attrs(tracer, x, weight, stride, padding)


def _conv_bwd_attrs(tracer, grad_out, x, weight, stride=1, padding=0, **kwargs):
    return _conv_attrs(tracer, x, weight, stride, padding)


def _pool_attrs(tracer, *args, **kwargs):
    return {"pos": tracer.positions.take("maxpool2d") if tracer.positions else None}


def _eval_attrs(tracer, model, data, split_name="val"):
    split = data.splits.get(split_name) if hasattr(data, "splits") else None
    return {"samples": len(split) if split is not None else 0}


def _epoch_attrs(tracer, model, data, *args, **kwargs):
    split = data.splits.get("train") if hasattr(data, "splits") else None
    return {"samples": len(split) if split is not None else 0}


def _sweep_after(span, report, args, kwargs):
    span.attrs = {"draws": report.draws, "merges": report.merges_applied}


def _save_after(span, result, args, kwargs):
    path = args[3] if len(args) > 3 else kwargs["path"]
    span.attrs = {"bytes": os.path.getsize(path)}


def _model_pass(name: str, backward: bool):
    def factory(tracer: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            kinds = [spec.kind for spec in self.layers]
            counts = {k: kinds.count(k) for k in ("conv2d", "maxpool2d")}
            saved = tracer.positions
            tracer.positions = _Positions(counts, backward)
            idx = tracer.open(name)
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.positions = saved

        return wrapper

    return factory


def _train_epoch(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        epoch = tracer.open("training.train_epoch", _epoch_attrs(tracer, *args, **kwargs))
        saved = tracer.step
        tracer.step = tracer.open(STEP)
        try:
            return fn(*args, **kwargs)
        finally:
            # whatever runs after the last sgd_step is not a step
            tail = tracer.step
            tracer.spans[tail].name = EPOCH_TAIL
            tracer.close(tail)
            tracer.step = saved
            tracer.close(epoch)

    return wrapper


def _sgd_step(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open("training.sgd_step")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)
            if tracer.step is not None and tracer._stack[-1] == tracer.step:
                tracer.close(tracer.step)
                tracer.step = tracer.open(STEP)

    return wrapper


def hooks(full: bool) -> list[tuple[object, str, object]]:
    """(owner, attribute, factory) for every name the tracer replaces: the
    step clock only, or (``full``) everything the layer table needs."""
    import inmerge.checkpoint
    import inmerge.cli
    import inmerge.data
    import inmerge.layers
    import inmerge.model
    import inmerge.training

    evaluate = _spanned("training.evaluate", _eval_attrs)
    found = [
        (inmerge.training, "train_epoch", _train_epoch),
        (inmerge.training, "sgd_step", _sgd_step),
        (inmerge.training, "evaluate", evaluate),
        (inmerge.cli, "evaluate", evaluate),
    ]
    if not full:
        return found
    model, training, cli = inmerge.model, inmerge.training, inmerge.cli
    found += [
        (cli, "_run_cell", _spanned("cli.cell")),
        (model.Model, "forward", _model_pass("model.forward", backward=False)),
        (model.Model, "backward", _model_pass("model.backward", backward=True)),
        (model, "conv2d_forward", _spanned("layers.conv2d.fwd", _conv_fwd_attrs)),
        (model, "conv2d_backward", _spanned("layers.conv2d.bwd", _conv_bwd_attrs)),
        (model, "maxpool2d", _spanned("layers.maxpool2d.fwd", _pool_attrs)),
        (model, "maxpool2d_backward", _spanned("layers.maxpool2d.bwd", _pool_attrs)),
        (model, "relu", _spanned("layers.relu.fwd")),
        (model, "relu_backward", _spanned("layers.relu.bwd")),
        (model, "dense_forward", _spanned("layers.dense.fwd")),
        (model, "dense_backward", _spanned("layers.dense.bwd")),
        (inmerge.layers, "ensure_finite", _spanned("tensor.ensure_finite")),
        (training, "softmax_ce_loss", _spanned("layers.loss")),
        (training, "sigmoid_bce_loss", _spanned("layers.loss")),
        (training, "inmerge_sweep", _spanned("merging.sweep", after=_sweep_after)),
        (training, "normalize", _spanned("data.normalize")),
        (training, "apply_flip", _spanned("data.apply_flip")),
        (training, "per_class_auroc", _spanned("metrics.per_class_auroc")),
        (cli, "load_dataset", _spanned("data.load_dataset")),
        (cli, "similarity_stats", _spanned("merging.similarity_stats")),
        (inmerge.data, "synth_make", _spanned("data.synth_make")),
        (inmerge.data, "load_dataset", _spanned("data.load_dataset")),
        (inmerge.checkpoint, "save", _spanned("checkpoint.save", after=_save_after)),
        (inmerge.checkpoint, "load", _spanned("checkpoint.load")),
    ]
    return found


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace every hooked name with its wrapper for the ``with`` body;
    the originals are restored on exit, also after an exception."""
    saved = []
    try:
        for owner, attr, factory in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, factory(tracer, original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def enclosing_step(spans: list[Span]) -> list[int]:
    """Index of the step span each span lies in, or -1. Parents precede
    their children in ``spans``, so one forward pass suffices."""
    step = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s.name == STEP:
            step[i] = i
        elif s.parent >= 0:
            step[i] = step[s.parent]
    return step
