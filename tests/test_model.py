"""Model assembly: determinism, conv ordering, registry, frozen sizes."""

import numpy as np
import pytest
from helpers import spec_order_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inmerge.model
from inmerge.configio import decode
from inmerge.errors import ConfigError, InmergeError, NumericError, ShapeError
from inmerge.layers import conv_spec, dense_spec, flatten_spec, pool_spec, relu_spec
from inmerge.model import ArchConfig, build_model, conv_layers, resolve_layers

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
VGG = ArchConfig(input_shape=(3, 64, 64), num_classes=9, preset="small_vgg_d")

# frozen from layer algebra: sum over layers of weight+bias sizes
TINY_PARAM_COUNT = 19_196  # C=1, K=4
VGG_PARAM_COUNT = 311_961  # C=3, K=9


def test_build_is_deterministic_per_seed():
    a = build_model(TINY, seed=11)
    b = build_model(TINY, seed=11)
    assert a.param_names() == b.param_names()
    for name in a.param_names():
        assert np.array_equal(a.params[name], b.params[name])
    c = build_model(TINY, seed=12)
    assert any(
        not np.array_equal(a.params[n], c.params[n]) for n in a.param_names()
    )


def test_tiny_cnn_has_six_conv_layers():
    model = build_model(TINY, seed=0)
    assert model.n_conv == 6
    ordinals = [o for o, _ in conv_layers(model)]
    assert ordinals == [0, 1, 2, 3, 4, 5]


def test_conv_index_strictly_increasing_in_layer_order():
    model = build_model(VGG, seed=0)
    positions = sorted(model.conv_index)
    assert [model.conv_index[p] for p in positions] == list(range(model.n_conv))


def test_frozen_parameter_counts():
    for arch, count in ((TINY, TINY_PARAM_COUNT), (VGG, VGG_PARAM_COUNT)):
        assert sum(p.size for p in build_model(arch, seed=0).params.values()) == count


def test_forward_output_shape():
    model = build_model(VGG, seed=1)
    x = np.random.default_rng(0).normal(size=(3, 3, 64, 64)).astype(np.float32)
    logits = model.forward(x)
    assert logits.shape == (3, 9)
    assert logits.dtype == np.float32


def test_param_names_stable_across_builds():
    assert build_model(TINY, seed=0).param_names() == build_model(TINY, seed=5).param_names()


def test_conv_layers_expose_live_weights():
    model = build_model(TINY, seed=0)
    banks = conv_layers(model)
    ordinal, weight = banks[3]
    weight[0] = 0.0  # mutate through the reference
    assert not model.params[f"conv{ordinal}.weight"][0].any()


def test_conv_layers_empty_for_dense_only_model():
    arch = ArchConfig(
        input_shape=(1, 2, 2),
        num_classes=2,
        layers=(flatten_spec(), dense_spec(4, 2)),
    )
    model = build_model(arch, seed=0)
    assert conv_layers(model) == []


def test_explicit_layer_list_and_shape_validation():
    layers = (
        conv_spec(4, 1, 3, 3, padding=1),
        relu_spec(),
        pool_spec(2, 2),
        flatten_spec(),
        dense_spec(4 * 3 * 3, 2),
    )
    arch = ArchConfig(input_shape=(1, 6, 6), num_classes=2, layers=layers)
    model = build_model(arch, seed=0)
    assert model.forward(np.zeros((1, 1, 6, 6), np.float32)).shape == (1, 2)

    bad = ArchConfig(input_shape=(1, 7, 7), num_classes=2, layers=layers)
    with pytest.raises(ShapeError):
        build_model(bad, seed=0)


def test_head_mismatch_rejected():
    layers = (flatten_spec(), dense_spec(4, 3))
    arch = ArchConfig(input_shape=(1, 2, 2), num_classes=2, layers=layers)
    with pytest.raises(ShapeError):
        build_model(arch, seed=0)


def test_arch_config_validation():
    with pytest.raises(ConfigError):
        ArchConfig(input_shape=(1, 28, 28), num_classes=4).validate()  # neither preset nor layers
    with pytest.raises(ConfigError):
        ArchConfig(
            input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn",
            layers=(flatten_spec(),),
        ).validate()  # both
    with pytest.raises(ConfigError):
        ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="vgg99").validate()
    with pytest.raises(ConfigError):
        ArchConfig(input_shape=(1, 28, 28), num_classes=1, preset="tiny_cnn").validate()
    with pytest.raises(ConfigError):
        ArchConfig(
            input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn", head="ranking"
        ).validate()


def test_preset_resolution_appends_flatten_and_head():
    layers = resolve_layers(TINY)
    assert layers[-2].kind == "flatten"
    assert layers[-1].kind == "dense"
    assert layers[-1].out_features == 4


def test_clone_is_independent():
    model = build_model(TINY, seed=0)
    twin = model.clone()
    twin.params["conv0.weight"][...] = 0.0
    assert model.params["conv0.weight"].any()


LAYER_FIELDS = (
    "out_channels", "in_channels", "kernel_h", "kernel_w",
    "stride", "padding", "window", "in_features", "out_features",
)
FIELD_VALUES = st.one_of(
    st.integers(-1, 4),
    st.sampled_from([None, "2", "x", 1.5, True, float("nan"), float("inf"), [1]]),
)
LAYER_DICTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["conv2d", "relu", "maxpool2d", "flatten", "dense", "bogus"])},
    optional=dict.fromkeys(LAYER_FIELDS, FIELD_VALUES),
)
VALID_STACK = [
    {"kind": "conv2d", "out_channels": 2, "in_channels": 1, "kernel_h": 3, "kernel_w": 3,
     "padding": 1},
    {"kind": "relu"},
    {"kind": "maxpool2d", "window": 2, "stride": 2},
    {"kind": "flatten"},
    {"kind": "dense", "in_features": 8, "out_features": 2},
]


@given(
    layers=st.lists(LAYER_DICTS, max_size=5),
    input_shape=st.tuples(st.integers(1, 2), st.integers(1, 5), st.integers(1, 5)),
    num_classes=st.integers(2, 3),
)
@example(layers=VALID_STACK, input_shape=(1, 4, 4), num_classes=2)
@example(layers=[{**VALID_STACK[0], "stride": 0}], input_shape=(1, 4, 4), num_classes=2)
@example(layers=[{**VALID_STACK[0], "kernel_h": 0}], input_shape=(1, 4, 4), num_classes=2)
@example(layers=[{"kind": "maxpool2d", "window": 0, "stride": 1}, {"kind": "flatten"},
                 {"kind": "dense", "in_features": 16, "out_features": 2}],
         input_shape=(1, 4, 4), num_classes=2)
@settings(max_examples=200, deadline=None)
def test_explicit_layer_dicts_build_or_raise_typed_errors(layers, input_shape, num_classes):
    """A layer stack from a config either builds a model whose logits have
    the head's shape, or fails with one of the package's own errors."""
    doc = {"input_shape": list(input_shape), "num_classes": num_classes, "layers": layers}
    try:
        model = build_model(decode(ArchConfig, doc, ConfigError, "arch"), seed=0)
    except InmergeError:
        return
    assert model.forward(np.zeros((2, *input_shape), np.float32)).shape == (2, num_classes)


def test_layer_math_is_called_through_model_namespace(monkeypatch):
    """Forward and backward look the layer functions up in ``inmerge.model``
    at call time, once per layer, so a wrapper swapped in there (as the
    benchmark's tracer does) sees every call."""
    per_kind = {
        "conv2d": ("conv2d_forward", "conv2d_backward"),
        "relu": ("relu", "relu_backward"),
        "maxpool2d": ("maxpool2d", "maxpool2d_backward"),
        "dense": ("dense_forward", "dense_backward"),
    }
    calls = {}
    for names in per_kind.values():
        for name in names:
            original = getattr(inmerge.model, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(inmerge.model, name, counting)
    model = build_model(TINY, seed=0)
    logits, caches = model.forward(np.zeros((2, 1, 28, 28), np.float32), want_caches=True)
    model.backward(np.ones_like(logits), caches)
    kinds = [spec.kind for spec in model.layers]
    for kind, names in per_kind.items():
        assert kinds.count(kind) > 0
        for name in names:
            assert calls.get(name, 0) == kinds.count(kind), name


def test_conv_caches_keep_patches_only_within_limit():
    """A conv layer keeps its patch matrix from forward to backward only
    when the whole batch is one chunk; larger layers keep their input
    alone and gather again in backward."""
    from inmerge.layers import PATCH_KEEP_LIMIT

    model = build_model(VGG, seed=0)
    x = np.random.default_rng(0).normal(size=(24, 3, 64, 64)).astype(np.float32)
    logits, caches = model.forward(x, want_caches=True)
    patches = [caches[pos][1] for pos in sorted(model.conv_index)]
    assert all(p is None or p.nbytes <= PATCH_KEEP_LIMIT for p in patches)
    assert any(p is None for p in patches) and any(p is not None for p in patches)
    grads = model.backward(np.ones_like(logits), caches)
    assert set(grads) == set(model.params)


@pytest.mark.parametrize(
    "arch, n",
    [*((TINY, n) for n in (1, 6, 7, 32, 64, 256, 298)), *((VGG, n) for n in (1, 37, 96))],
    ids=lambda v: v.preset if isinstance(v, ArchConfig) else str(v),
)
def test_forward_only_logits_equal_a_training_forwards(arch, n):
    """Without caches, forward runs its own plan (conv chunks of
    ``FORWARD_BUDGET``, no kept patches, no pool argmaxes); its logits keep
    a training forward's bytes, at batches that fit one forward-only chunk
    or many, and at those the training forward keeps or chunks."""
    model = build_model(arch, seed=5)
    x = np.random.default_rng(n).normal(size=(n, *arch.input_shape)).astype(np.float32)
    assert model.forward(x).tobytes() == model.forward(x, want_caches=True)[0].tobytes()


# explicit stacks on 2-channel inputs: (input extent, extent after the
# middle layers, middle layers), each between a conv and
# conv -> relu -> flatten -> dense
STACKS = {
    "relu_then_overlapping_pool": (9, 4, [relu_spec(), pool_spec(3, 2)]),
    "relu_relu_pool": (8, 4, [relu_spec(), relu_spec(), pool_spec(2, 2)]),
    "relu_then_gapped_pool": (8, 3, [relu_spec(), pool_spec(2, 3)]),
    "pool_then_relu": (8, 4, [pool_spec(2, 2), relu_spec()]),
}


def _stack(size, extent, middle):
    conv = lambda c_out, c_in: conv_spec(c_out, c_in, 3, 3, stride=1, padding=1)
    tail = [conv(3, 4), relu_spec(), flatten_spec(), dense_spec(3 * extent * extent, 3)]
    layers = (conv(4, 2), *middle, *tail)
    return ArchConfig(input_shape=(2, size, size), num_classes=3, layers=layers)


@pytest.mark.parametrize(
    "arch, n",
    [(TINY, 5), (VGG, 3), *[(_stack(*stack), 3) for stack in STACKS.values()]],
    ids=["tiny_cnn", "small_vgg_d", *STACKS],
)
def test_execution_order_is_invisible_from_outside(arch, n):
    """Whatever order forward runs the layers in, logits and parameter
    gradients match, byte for byte, a pass run in position order."""
    model = build_model(arch, seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, *arch.input_shape)).astype(np.float32)
    grad_logits = rng.normal(size=(n, arch.num_classes)).astype(np.float32)
    want_logits, want_grads = spec_order_oracle(model, x, grad_logits)
    logits, caches = model.forward(x, want_caches=True)
    assert model.forward(x).tobytes() == logits.tobytes() == want_logits.tobytes()
    grads = model.backward(grad_logits, caches)
    assert set(grads) == set(want_grads) == set(model.params)
    for name, grad in grads.items():
        assert grad.tobytes() == want_grads[name].tobytes(), name


def test_nan_weight_error_names_its_layer():
    model = build_model(TINY, seed=0)
    model.params["conv3.weight"][0, 0, 0, 0] = np.nan
    x = np.random.default_rng(0).normal(size=(4, 1, 28, 28)).astype(np.float32)
    with pytest.raises(NumericError) as info:
        model.forward(x)
    assert str(info.value) == "layer 7 (conv3) forward: conv2d_forward: non-finite values in result"
