"""Model assembly: the layer-kind table, layer stacks, parameter registry,
conv-layer ordering.

``KINDS`` maps each layer kind to one ``LayerKind`` entry: its field
check (the ``layers.*_spec`` constructor), its shape rule (conv and pool
extents come from ``tensor.out_extent``), its parameter init, and its
forward and backward calls into the ``layers`` math. Shape inference,
``build_model``, ``Model.forward`` and ``Model.backward`` all look kinds
up in this table, so adding a kind touches one place. The two passes walk
the layers in execution order (``_execution_order``): position order, but
for a relu directly followed by a max-pool, which runs after the pool.

A Model owns an ordered list of LayerSpecs plus a name -> ndarray
parameter registry. Convolution layers additionally carry a global
ordinal (0-based, forward order); the merge sweep compares this ordinal
against the shallow-layer cutoff, so "layer k" always means "the k-th
conv layer", never counting activations or pools.

Presets are desk-scale stands-ins for the large backbones this engine
does not replicate:

- ``tiny_cnn``: 6 conv layers in 3 stages, designed for 28x28 inputs.
- ``small_vgg_d``: 8 conv layers in 4 stages, designed for 64x64 inputs.

Any other stack can be expressed as an explicit LayerSpec list.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import seeding
from .data import TASKS
from .errors import ConfigError, NumericError, ShapeError
from .layers import (
    LayerSpec,
    conv2d_backward,
    conv2d_forward,
    conv_spec,
    dense_backward,
    dense_forward,
    dense_spec,
    flatten_backward,
    flatten_forward,
    flatten_spec,
    maxpool2d,
    maxpool2d_backward,
    pool_spec,
    relu,
    relu_backward,
    relu_spec,
)
from .tensor import DTYPE, out_extent

PRESETS = ("tiny_cnn", "small_vgg_d")


@dataclass(frozen=True)
class ArchConfig:
    """Resolvable description of a model: a preset name or an explicit
    layer list, plus input shape and classifier head."""

    input_shape: tuple[int, int, int]  # (C, H, W)
    num_classes: int
    head: str = "multiclass"
    preset: str | None = None
    layers: tuple[LayerSpec, ...] | None = None

    def validate(self) -> None:
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ConfigError(f"input_shape must be 3 positive extents, got {self.input_shape}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.head not in TASKS:
            raise ConfigError(f"head must be one of {TASKS}, got {self.head!r}")
        if (self.preset is None) == (self.layers is None):
            raise ConfigError("exactly one of preset / layers must be given")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; known: {PRESETS}")


def _stage(c_in: int, c_out: int, pool_window: int, pool_stride: int) -> list[LayerSpec]:
    return [
        conv_spec(c_out, c_in, 3, 3, stride=1, padding=1),
        relu_spec(),
        conv_spec(c_out, c_out, 3, 3, stride=1, padding=1),
        relu_spec(),
        pool_spec(pool_window, pool_stride),
    ]


def _preset_layers(name: str, c_in: int) -> list[LayerSpec]:
    if name == "tiny_cnn":
        # 28 -> 14 -> 7 -> 3 spatially
        return _stage(c_in, 8, 2, 2) + _stage(8, 16, 2, 2) + _stage(16, 32, 3, 2)
    if name == "small_vgg_d":
        # 64 -> 32 -> 16 -> 8 -> 4 spatially
        return (
            _stage(c_in, 16, 2, 2)
            + _stage(16, 32, 2, 2)
            + _stage(32, 64, 2, 2)
            + _stage(64, 128, 2, 2)
        )
    raise ConfigError(f"unknown preset {name!r}")


def resolve_layers(config: ArchConfig) -> list[LayerSpec]:
    """The model's layer stack: a preset expanded (flatten + classifier head
    appended) or the explicit list unchanged. Raises ShapeError unless its
    shapes chain from ``input_shape`` to the head's (num_classes,)."""
    config.validate()
    if config.layers is not None:
        layers = list(config.layers)
    else:
        layers = _preset_layers(config.preset, config.input_shape[0])
        feat = _walk_shapes(layers, config.input_shape)
        if len(feat) != 1:
            layers.append(flatten_spec())
            feat = (math.prod(feat),)
        layers.append(dense_spec(feat[0], config.num_classes))
    out_shape = _walk_shapes(layers, config.input_shape)
    if out_shape != (config.num_classes,):
        raise ShapeError(
            f"stack produces per-sample shape {out_shape}, head needs ({config.num_classes},)"
        )
    return layers


def _walk_shapes(layers: list[LayerSpec], input_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Validate the stack by field checks and shape inference; returns the
    per-sample output shape. Raises ShapeError on any inconsistency."""
    shape = tuple(input_shape)
    for pos, spec in enumerate(layers):
        try:
            if spec.kind not in KINDS:
                raise ShapeError(f"unknown layer kind {spec.kind!r}")
            kind = KINDS[spec.kind]
            kind.check(spec)
            shape = kind.shape(spec, shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {pos} ({spec.kind}): {exc}") from None
    return shape


# ---------------------------------------------------------------------------
# the kind table
#
# Forward and backward functions look the layer math up in this module's
# namespace at call time, so a caller that swaps ``model.conv2d_forward``
# and friends (as the benchmark's tracer does) sees every call.


def _execution_order(layers: list[LayerSpec]) -> list[int]:
    """Layer positions in the order forward runs them: a relu directly
    followed by a max-pool runs after the pool, on the pooled array. Max
    commutes with relu, so logits and parameter gradients keep their bits
    (an input gradient may hold +0.0 for -0.0), while the relu reads, and
    its cache keeps, a fraction of the elements."""
    order = list(range(len(layers)))
    for pos in range(len(layers) - 1):
        if (layers[pos].kind, layers[pos + 1].kind) == ("relu", "maxpool2d"):
            order[pos : pos + 2] = [pos + 1, pos]
    return order


def _window_shape(shape, channels, kh, kw, stride, padding) -> tuple[int, ...]:
    """(channels, h_out, w_out) of a sliding window over a (C, H, W) input."""
    if len(shape) != 3:
        raise ShapeError(f"needs a spatial input, gets shape {shape}")
    return (
        channels,
        out_extent(shape[1], kh, stride, padding, "height"),
        out_extent(shape[2], kw, stride, padding, "width"),
    )


def _conv_shape(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) == 3 and shape[0] != s.in_channels:
        raise ShapeError(f"expects {s.in_channels} channels, gets shape {shape}")
    return _window_shape(shape, s.out_channels, s.kernel_h, s.kernel_w, s.stride, s.padding)


def _dense_shape(s: LayerSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(shape) != 1 or shape[0] != s.in_features:
        raise ShapeError(f"expects {s.in_features} features, gets shape {shape}")
    return (s.out_features,)


def _conv_forward(s: LayerSpec, x, w, b, want_cache: bool):
    """The cache holds the input, plus the patch matrix when the layer
    gathered it in one chunk (``layers.conv2d_forward``)."""
    if not want_cache:
        return conv2d_forward(x, w, b, s.stride, s.padding), None
    cols: list = []
    out = conv2d_forward(x, w, b, s.stride, s.padding, _cols_out=cols)
    return out, (x, cols[0] if cols else None)


@dataclass(frozen=True)
class LayerKind:
    """How one layer kind takes part in a model.

    check     raises ShapeError when the spec's fields are invalid
    shape     (spec, per-sample input shape) -> per-sample output shape
    forward   (spec, x, weight, bias, want_cache) -> (output, cache)
    backward  (spec, grad, cache, weight) -> input grad; with parameters
              (spec, grad, cache, weight, need_input_grad) -> (input grad,
              weight grad, bias grad), where the input grad may be None
              when not needed
    prefix    parameter-name prefix (``conv`` -> ``conv0.weight``); None: no
              parameters. Weights are He-uniform over ``weight_shape``'s
              trailing extents as fan-in; biases start at zero.

    A cache holds only what backward reads. relu's is its output (the
    next layer's input in execution order, so no extra array), since
    ``relu(x) > 0`` exactly where ``x > 0``; the input it came from is
    freed after forward. A pre-pool relu's output is the pooled array.
    """

    shape: Callable[[LayerSpec, tuple[int, ...]], tuple[int, ...]]
    forward: Callable
    backward: Callable
    check: Callable[[LayerSpec], object] = lambda s: None
    prefix: str | None = None
    weight_shape: Callable[[LayerSpec], tuple[int, ...]] | None = None


KINDS: dict[str, LayerKind] = {
    "conv2d": LayerKind(
        check=lambda s: conv_spec(
            s.out_channels, s.in_channels, s.kernel_h, s.kernel_w, s.stride, s.padding
        ),
        shape=_conv_shape,
        forward=_conv_forward,
        backward=lambda s, g, cache, w, need_input_grad: conv2d_backward(
            g, cache[0], w, s.stride, s.padding, cols=cache[1], need_input_grad=need_input_grad
        ),
        prefix="conv",
        weight_shape=lambda s: (s.out_channels, s.in_channels, s.kernel_h, s.kernel_w),
    ),
    "relu": LayerKind(
        shape=lambda s, shape: shape,
        forward=lambda s, x, w, b, want_cache: ((y := relu(x)), y),
        backward=lambda s, g, y, w: relu_backward(g, y),
    ),
    "maxpool2d": LayerKind(
        check=lambda s: pool_spec(s.window, s.stride),
        shape=lambda s, shape: _window_shape(shape, shape[0], s.window, s.window, s.stride, 0),
        forward=lambda s, x, w, b, want_cache: maxpool2d(x, s.window, s.stride),
        backward=lambda s, g, cache, w: maxpool2d_backward(g, cache),
    ),
    "flatten": LayerKind(
        shape=lambda s, shape: (math.prod(shape),),
        forward=lambda s, x, w, b, want_cache: (flatten_forward(x), x.shape),
        backward=lambda s, g, in_shape, w: flatten_backward(g, in_shape),
    ),
    "dense": LayerKind(
        check=lambda s: dense_spec(s.in_features, s.out_features),
        shape=_dense_shape,
        forward=lambda s, x, w, b, want_cache: (dense_forward(x, w, b), x),
        backward=lambda s, g, x, w, need_input_grad: dense_backward(g, x, w),
        prefix="dense",
        weight_shape=lambda s: (s.out_features, s.in_features),
    ),
}


@dataclass
class Model:
    """A runnable layer stack with named parameters.

    ``conv_index`` maps layer position -> conv ordinal; ``params`` maps
    names like ``conv0.weight`` / ``dense0.bias`` to float32 arrays.
    In-place writes through those arrays are the supported way to mutate
    weights (the merge sweep relies on this aliasing). A ``NumericError``
    from a layer leaves ``forward`` and ``backward`` naming it, e.g. ``layer
    7 (conv3) forward: conv2d_forward: ...``; one without parameters by kind.
    """

    arch: ArchConfig
    layers: list[LayerSpec]
    params: dict[str, np.ndarray]
    conv_index: dict[int, int]
    _names: list[str | None] = field(repr=False, default_factory=list)

    @property
    def head(self) -> str:
        return self.arch.head

    @property
    def num_classes(self) -> int:
        return self.arch.num_classes

    @property
    def n_conv(self) -> int:
        return len(self.conv_index)

    def param_names(self) -> list[str]:
        """Parameter names in forward-layer order (stable per config)."""
        names: list[str] = []
        for base in self._names:
            if base is not None:
                names.extend((f"{base}.weight", f"{base}.bias"))
        return names

    def clone(self) -> "Model":
        return copy.deepcopy(self)

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, want_caches: bool = False):
        """Logits for an NCHW batch; with ``want_caches`` also returns what
        ``backward`` needs, one cache per layer position. Layers run in
        execution order (module docstring)."""
        if x.ndim != 4 or x.shape[1:] != self.arch.input_shape:
            raise ShapeError(
                f"forward: batch shape {x.shape} does not end in {self.arch.input_shape}"
            )
        caches = [None] * len(self.layers) if want_caches else None
        h = x
        for pos in _execution_order(self.layers):
            spec, base = self.layers[pos], self._names[pos]
            w = b = None
            if base is not None:
                w, b = self.params[f"{base}.weight"], self.params[f"{base}.bias"]
            try:
                h, cache = KINDS[spec.kind].forward(spec, h, w, b, want_caches)
            except NumericError as exc:
                raise NumericError(f"layer {pos} ({base or spec.kind}) forward: {exc}") from None
            if want_caches:
                caches[pos] = cache
        return (h, caches) if want_caches else h

    def backward(self, grad_logits: np.ndarray, caches: list) -> dict[str, np.ndarray]:
        """Parameter gradients (same keys as ``params``) for a forward pass
        recorded with ``want_caches=True``. The first layer's input gradient
        is not computed: nothing uses the gradient of the input images.
        Layers run in the reverse of forward's execution order.

        Consumes ``caches``: each entry is set to None once its layer's
        backward has run, so each activation is freed as soon as it has
        been used. Do not reuse the list."""
        grads: dict[str, np.ndarray] = {}
        g = grad_logits
        for pos in reversed(_execution_order(self.layers)):
            spec, base = self.layers[pos], self._names[pos]
            try:
                if base is None:
                    g = KINDS[spec.kind].backward(spec, g, caches[pos], None)
                else:
                    w = self.params[f"{base}.weight"]
                    g, grads[f"{base}.weight"], grads[f"{base}.bias"] = KINDS[spec.kind].backward(
                        spec, g, caches[pos], w, pos > 0
                    )
            except NumericError as exc:
                raise NumericError(f"layer {pos} ({base or spec.kind}) backward: {exc}") from None
            caches[pos] = None
        return grads


def build_model(config: ArchConfig, seed: int) -> Model:
    """Assemble and He-uniform-initialize a model; deterministic per seed."""
    layers = resolve_layers(config)
    rng = seeding.stream(seed, seeding.INIT)
    params: dict[str, np.ndarray] = {}
    names: list[str | None] = []
    conv_index: dict[int, int] = {}
    counts: dict[str, int] = {}
    for pos, spec in enumerate(layers):
        kind = KINDS[spec.kind]
        if kind.prefix is None:
            names.append(None)
            continue
        ordinal = counts.get(kind.prefix, 0)
        counts[kind.prefix] = ordinal + 1
        if kind.prefix == "conv":
            conv_index[pos] = ordinal
        base = f"{kind.prefix}{ordinal}"
        shape = kind.weight_shape(spec)
        limit = math.sqrt(6.0 / math.prod(shape[1:]))
        try:
            params[f"{base}.weight"] = rng.uniform(-limit, limit, size=shape).astype(DTYPE)
            params[f"{base}.bias"] = np.zeros(shape[0], dtype=DTYPE)
        except (MemoryError, ValueError) as exc:  # ValueError: more bytes than numpy can index
            count = math.prod(shape) + shape[0]
            raise ConfigError(f"{base} (layer {pos}): cannot allocate {count} parameters: {exc}")
        names.append(base)
    return Model(arch=config, layers=layers, params=params, conv_index=conv_index, _names=names)


def conv_layers(model: Model) -> list[tuple[int, np.ndarray]]:
    """(ordinal, weight array) for every conv layer, forward order.

    The arrays are the registry's own; writes through them update the
    model, which is exactly what the merge sweep does.
    """
    out = []
    for pos in sorted(model.conv_index):
        ordinal = model.conv_index[pos]
        out.append((ordinal, model.params[f"conv{ordinal}.weight"]))
    return out
