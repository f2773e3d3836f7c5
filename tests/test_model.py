"""Model assembly: determinism, conv ordering, registry, frozen sizes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import inmerge.model
from inmerge.configio import arch_from_dict
from inmerge.errors import ConfigError, InmergeError, ShapeError
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
    assert build_model(TINY, seed=0).num_params() == TINY_PARAM_COUNT
    assert build_model(VGG, seed=0).num_params() == VGG_PARAM_COUNT


def test_forward_output_shape():
    model = build_model(VGG, seed=1)
    x = np.random.default_rng(0).normal(size=(3, 3, 64, 64)).astype(np.float32)
    logits = model.forward(x)
    assert logits.shape == (3, 9)
    assert logits.dtype == np.float32


def test_param_roundtrip_and_errors():
    model = build_model(TINY, seed=0)
    new = np.ones_like(model.get_param("conv2.weight"))
    model.set_param("conv2.weight", new)
    assert np.array_equal(model.get_param("conv2.weight"), new)
    with pytest.raises(ConfigError):
        model.get_param("conv9.weight")
    with pytest.raises(ShapeError):
        model.set_param("conv2.bias", np.zeros(99, np.float32))


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
        model = build_model(arch_from_dict(doc), seed=0)
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
