"""The strict JSON decoder behind every document the engine reads: run
configs, dataset ``meta.json``, checkpoint headers and trailers."""

import contextlib
import copy
import io
import json
import math
import struct
import types
from dataclasses import asdict, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inmerge import checkpoint, synth_make
from inmerge.checkpoint import Trailer
from inmerge.cli import RunDoc, load_run_config, main
from inmerge.configio import decode
from inmerge.data import Meta, load_dataset, save_dataset
from inmerge.errors import ConfigError, CorruptHeaderError, DataError
from inmerge.layers import conv_spec, dense_spec, flatten_spec, pool_spec, relu_spec
from inmerge.merging import LayerSweepStats, MergeConfig, MergeReport
from inmerge.model import ArchConfig, build_model
from inmerge.training import EpochRecord, TrainConfig, TrainState

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=2, preset="tiny_cnn")
EXPLICIT = ArchConfig(
    input_shape=(1, 6, 6),
    num_classes=3,
    layers=(
        conv_spec(2, 1, 3, 3, stride=1, padding=1), relu_spec(), pool_spec(2, 2),
        flatten_spec(), dense_spec(18, 3),
    ),
)
LAYERS_WITH_STRIDE_1_5 = {
    "input_shape": [1, 28, 28], "num_classes": 2,
    "layers": [
        {"kind": "conv2d", "out_channels": 2, "in_channels": 1,
         "kernel_h": 3, "kernel_w": 3, "stride": 1.5},
        {"kind": "flatten"},
        {"kind": "dense", "in_features": 2 * 26 * 26, "out_features": 2},
    ],
}
UNCHAINED_LAYERS = [  # a 3-channel conv on 1-channel images
    {"kind": "conv2d", "out_channels": 2, "in_channels": 3, "kernel_h": 3, "kernel_w": 3},
    {"kind": "flatten"},
    {"kind": "dense", "in_features": 2 * 26 * 26, "out_features": 2},
]
RECORD = EpochRecord(  # an in-merge epoch of one sweep
    epoch=0, phase="inmerge", lr=0.01, train_loss=0.69, val_loss=0.7, val_metric=0.5,
    merge_sweeps=1, merge_draws=3, merge_applied=1, is_best=True,
    sweeps=[MergeReport([LayerSweepStats(ordinal=3, kernels=16, draws=3, merges=1)])],
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A dataset directory, a checkpoint with one epoch record, and a run
    config whose dataset directory does not exist (so no run ever trains)."""
    root = tmp_path_factory.mktemp("docs")
    save_dataset(synth_make("striped_textures", 4, 2, 1, 28, 28, seed=0), root / "data")
    model = build_model(TINY, 0)
    state = TrainState(
        epochs_done=1,
        velocity={k: np.zeros_like(v) for k, v in model.params.items()},
        best_epoch=0, best_metric=0.5, records=[RECORD],
    )
    cfg = TrainConfig(epochs_pretrain=0, epochs_inmerge=2, seed=0, merge=MergeConfig(seed=0))
    checkpoint.save(model, state, (TINY, cfg), root / "model.ckpt")
    run = {
        "arch": {"preset": "tiny_cnn", "input_shape": [1, 28, 28], "num_classes": 2},
        "data": {"dir": str(root / "nodata")},
        "train": {"epochs_pretrain": 1, "epochs_inmerge": 1, "batch_size": 16, "seed": 3},
        "merge": {"skip_layers": 3},
        "output": str(root / "out"),
    }
    return {"root": root, "ckpt": root / "model.ckpt", "run": run}


def split_checkpoint(blob: bytes) -> tuple[bytes, dict]:
    """(everything before the trailer, the trailer as parsed JSON)."""
    (hlen,) = struct.unpack_from("<Q", blob, 5)
    end = 13 + hlen + json.loads(blob[13 : 13 + hlen])["payload_bytes"]
    return blob[:end], json.loads(blob[end:])


def put(path: str, value):
    """Mutation setting the dotted ``path`` of a parsed document to ``value``."""

    def mutate(doc):
        *parents, last = path.split(".")
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


def write_run(files, tmp_path, doc):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


def write_meta(files, tmp_path, doc):
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    for src in (files["root"] / "data").iterdir():
        (data / src.name).write_bytes(src.read_bytes())
    (data / "meta.json").write_text(json.dumps(doc))
    return data


def write_trailer(files, tmp_path, doc):
    head, _ = split_checkpoint(files["ckpt"].read_bytes())
    path = tmp_path / "model.ckpt"
    path.write_bytes(head + json.dumps(doc).encode())
    return path


def documents(files):
    """Per kind: (class, valid parsed document, the document's error class)."""
    _, trailer = split_checkpoint(files["ckpt"].read_bytes())
    meta = json.loads((files["root"] / "data" / "meta.json").read_text())
    return {
        "run": (RunDoc, files["run"], ConfigError),
        "meta": (Meta, meta, DataError),
        "trailer": (Trailer, trailer, CorruptHeaderError),
    }


def write_mutated(files, tmp_path, kind, mutate):
    doc = copy.deepcopy(documents(files)[kind][1])
    mutate(doc)
    return WRITERS[kind](files, tmp_path, doc)


def at_epochs_done(n):
    """Mutation setting a trailer's epochs done, with the RNG position at it."""
    return lambda doc: (put("state.epochs_done", n)(doc), put("rng.next_epoch", n)(doc))


def run_case(files, path):
    return load_run_config, ConfigError, ["train", "--config", str(path)], 2


def meta_case(files, path):
    argv = ["eval", "--checkpoint", str(files["ckpt"]), "--data", str(path)]
    return load_dataset, DataError, argv, 3


def trailer_case(files, path):
    argv = ["analyze", "--checkpoint", str(path), "--layer", "0"]
    return checkpoint.load, CorruptHeaderError, argv, 3


# (document, mutation, key path named in the message); every row used to be
# coerced, accepted as given, or crashed
REGRESSIONS = {
    "run-batch_size-float": ("run", put("train.batch_size", 32.9), "train.batch_size"),
    "run-lr0-string": ("run", put("train.lr0", "0.01"), "train.lr0"),
    "run-lr0-nan": ("run", put("train.lr0", float("nan")), "train.lr0"),
    "run-seed-bool": ("run", put("train.seed", True), "train.seed"),
    "run-milestones-float": ("run", put("train.milestones", [1.5]), "train.milestones[0]"),
    "run-skip_layers-float": ("run", put("merge.skip_layers", 2.5), "merge.skip_layers"),
    "run-input_shape-mixed": (
        "run", put("arch.input_shape", [1, 28.7, "28"]), "arch.input_shape[1]"
    ),
    "run-layer-stride-float": ("run", put("arch", LAYERS_WITH_STRIDE_1_5), "arch.layers[0].stride"),
    "meta-std-inf": ("meta", put("normalization.std", [float("inf")]), "normalization.std[0]"),
    "meta-num_classes-float": ("meta", put("num_classes", 4.5), "num_classes"),
    "meta-channels-string": ("meta", put("channels", "1"), "channels"),
    "trailer-train_loss-string": (
        "trailer", lambda t: t["state"]["records"][0].update(train_loss="x"),
        "state.records[0].train_loss",
    ),
    "trailer-best_metric-string": ("trailer", put("state.best_metric", "x"), "state.best_metric"),
    # the run state must fit itself and the config, which trains 2 epochs
    "trailer-epochs_done-past-total": ("trailer", at_epochs_done(7), "epochs_done 7"),
    "trailer-epochs_done-negative": ("trailer", at_epochs_done(-1), "epochs_done -1"),
    "trailer-best_epoch-not-done": ("trailer", put("state.best_epoch", 99), "best_epoch 99"),
    "trailer-best_epoch-below-minus-1": ("trailer", put("state.best_epoch", -2), "best_epoch -2"),
    "trailer-best_metric-without-best": (
        "trailer", put("state.best_epoch", -1), "best_metric 0.5 does not fit"
    ),
    "trailer-best-without-best_metric": (
        "trailer", put("state.best_metric", None), "best_metric None does not fit"
    ),
    "trailer-records-past-epochs_done": (
        "trailer", lambda t: t["state"]["records"].append(asdict(replace(RECORD, epoch=1))),
        "records",
    ),
    "trailer-sweeps-do-not-add-up": (
        "trailer", lambda t: t["state"]["records"][0]["sweeps"][0]["layers"][0].update(draws=4),
        "state.records",
    ),
    "trailer-record-epoch-out-of-place": (
        "trailer", put("state.records", [asdict(replace(RECORD, epoch=1))]), "records"
    ),
    "trailer-arch-does-not-build": (
        "trailer", put("configs.arch.input_shape", [1, 27, 27]), "arch does not build"
    ),
    "trailer-layers-do-not-chain": (
        "trailer", put("configs.arch", {**LAYERS_WITH_STRIDE_1_5, "layers": UNCHAINED_LAYERS}),
        "arch does not build",
    ),
}
WRITERS = {"run": write_run, "meta": write_meta, "trailer": write_trailer}
CASES = {"run": run_case, "meta": meta_case, "trailer": trailer_case}


class TestRegressions:
    @pytest.mark.parametrize("row", sorted(REGRESSIONS))
    def test_rejected_with_its_error_class_and_exit_code(self, files, tmp_path, capsys, row):
        kind, mutate, key_path = REGRESSIONS[row]
        path = write_mutated(files, tmp_path, kind, mutate)
        loader, error, argv, code = CASES[kind](files, path)
        with pytest.raises(error, match=key_path.replace("[", r"\[")):
            loader(path)
        assert main(argv) == code
        assert key_path in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["run", "meta"])
    def test_invalid_utf8(self, files, tmp_path, capsys, kind):
        path = write_mutated(files, tmp_path, kind, lambda doc: None)
        (path / "meta.json" if kind == "meta" else path).write_bytes(b"\xff\xfe{}")
        loader, error, argv, code = CASES[kind](files, path)
        with pytest.raises(error, match="UTF-8"):
            loader(path)
        assert main(argv) == code
        assert "UTF-8" in capsys.readouterr().err

    def test_out_of_range_trailer_config_is_a_corrupt_trailer(self, files, tmp_path):
        path = write_mutated(files, tmp_path, "trailer", put("configs.train.lr0", -1.0))
        with pytest.raises(CorruptHeaderError, match="configs.train: lr0 must be > 0"):
            checkpoint.load(path)


class TestRoundTrip:
    """``json.dumps(asdict(x))`` decodes back to ``x``: writers and reader agree."""

    @pytest.mark.parametrize(
        "cls, value",
        [
            (ArchConfig, TINY),
            (ArchConfig, EXPLICIT),
            (TrainConfig, TrainConfig()),
            (TrainConfig, TrainConfig(milestones=(2, 4), merge=MergeConfig(alpha=1, seed=5))),
        ],
        ids=["arch-preset", "arch-layers", "train-baseline", "train-merge"],
    )
    def test_configs(self, cls, value):
        assert decode(cls, json.dumps(asdict(value)).encode(), ConfigError, "doc") == value

    def test_meta_json(self, files):
        written = (files["root"] / "data" / "meta.json").read_bytes()
        meta = decode(Meta, written, DataError, "meta.json")
        assert meta.splits == {"train": 6, "val": 1, "test": 1}
        assert meta.normalization.std == (0.5,)
        assert written.decode() == json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n"
        assert decode(Meta, json.dumps(asdict(meta)).encode(), DataError, "doc") == meta

    def test_checkpoint_trailer(self, files):
        _, parsed = split_checkpoint(files["ckpt"].read_bytes())
        trailer = decode(Trailer, json.dumps(parsed).encode(), CorruptHeaderError, "trailer")
        assert trailer.configs.arch == TINY and trailer.configs.merge is None
        assert trailer.state.records == (RECORD,) and trailer.state.best_metric == 0.5
        again = decode(Trailer, json.dumps(asdict(trailer)).encode(), CorruptHeaderError, "t")
        assert again == trailer


# ---------------------------------------------------------------------------
# fuzzing

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def fuzzed(valid):
    """Each value of a valid document kept, or swapped for any JSON value."""
    if isinstance(valid, dict):
        kept = st.fixed_dictionaries({k: fuzzed(v) for k, v in valid.items()})
    elif isinstance(valid, list) and valid:
        kept = st.lists(fuzzed(valid[0]), min_size=len(valid), max_size=len(valid))
    else:
        kept = st.just(valid)
    return st.one_of(kept, kept, JSON_VALUES)


def conforms(value, tp) -> bool:
    """``value`` has exactly the annotated type ``tp``, all the way down."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return type(value) is tp and all(
            conforms(getattr(value, f.name), hints[f.name]) for f in fields(tp)
        )
    if origin is types.UnionType:
        return any(conforms(value, a) for a in args)
    if origin is list:
        return type(value) is list and all(conforms(v, args[0]) for v in value)
    if origin is tuple:
        if type(value) is not tuple:
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(items) == len(value) and all(conforms(v, t) for v, t in zip(value, items))
    if origin is dict:
        return type(value) is dict and all(
            type(k) is str and conforms(v, args[1]) for k, v in value.items()
        )
    if tp is float:
        return type(value) is float and math.isfinite(value)
    return type(value) is tp


@pytest.mark.parametrize("kind", ["run", "meta", "trailer"])
def test_fuzzed_document_is_typed_or_refused_cleanly(files, tmp_path_factory, kind):
    """``decode`` returns an object of exactly the annotated types or raises
    the document's own error class; through ``cli.main`` the exit code is
    0, 2, 3 or 4 and no exception escapes."""
    cls, valid, error = documents(files)[kind]

    @given(doc=fuzzed(valid))
    @settings(max_examples=30, deadline=None)
    def check(doc):
        try:
            assert conforms(decode(cls, json.dumps(doc).encode(), error, kind), cls)
        except error:
            pass
        # a new directory per example: overwriting a file costs far more than writing one
        argv = CASES[kind](files, WRITERS[kind](files, tmp_path_factory.mktemp(kind), doc))[2]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), err.getvalue()

    check()
