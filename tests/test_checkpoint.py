"""Checkpoint format: roundtrips, corruption detection, resume equality."""

import json
import struct

import numpy as np
import pytest
from helpers import unallocatable_layers

from inmerge import MergeConfig, synth_make
from inmerge.checkpoint import MAGIC, load, save
from inmerge.cli import main
from inmerge.errors import (
    ConfigError,
    CorruptHeaderError,
    HeaderLayoutError,
    TruncatedFileError,
    UnknownDtypeError,
)
from inmerge.layers import dense_spec, flatten_spec
from inmerge.model import ArchConfig, build_model
from inmerge.training import TrainConfig, TrainState, resume_protocol, run_protocol

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")


def fresh_state(model):
    return TrainState(
        epochs_done=0,
        velocity={k: np.zeros_like(v) for k, v in model.params.items()},
    )


def write_checkpoint(tmp_path, seed=3):
    cfg = TrainConfig(seed=seed, merge=MergeConfig(seed=seed))
    model = build_model(TINY, seed)
    path = tmp_path / "model.ckpt"
    save(model, fresh_state(model), (TINY, cfg), path)
    return model, cfg, path


def write_checkpoint_with_best(tmp_path, short_bias_in=None):
    """Checkpoint carrying param/, momentum/ and best/ tensors; with
    ``short_bias_in`` that namespace's conv0.bias is saved with shape [1],
    which would broadcast over the real (8,) bias."""
    model = build_model(TINY, 3)
    state = fresh_state(model)
    state.best_params = {k: v.copy() for k, v in model.params.items()}
    if short_bias_in is not None:
        tensors = {"param": model.params, "momentum": state.velocity, "best": state.best_params}
        tensors[short_bias_in]["conv0.bias"] = np.ones(1, np.float32)
    path = tmp_path / "best.ckpt"
    save(model, state, (TINY, TrainConfig(seed=3)), path)
    return path


def set_state(**fields):
    """A trailer edit that sets run-state fields, keeping the RNG position
    at the epochs done."""

    def mutate(trailer):
        trailer["state"].update(fields)
        trailer["rng"]["next_epoch"] = trailer["state"]["epochs_done"]

    return mutate


def set_arch(**fields):
    return lambda trailer: trailer["configs"]["arch"].update(fields)


class TestRoundtrip:
    def test_fresh_model_roundtrips_bit_exactly(self, tmp_path):
        model, cfg, path = write_checkpoint(tmp_path)
        loaded, state, (arch, train_cfg) = load(path)
        assert arch == TINY
        assert train_cfg == cfg
        assert state.epochs_done == 0 and state.best_params is None
        for name in model.param_names():
            assert np.array_equal(loaded.params[name], model.params[name])
            assert not state.velocity[name].any()

    def test_state_with_best_params_roundtrips(self, tmp_path):
        cfg = TrainConfig(seed=1)
        model = build_model(TINY, 1)
        state = fresh_state(model)
        state.epochs_done = 4
        state.best_epoch = 2
        state.best_metric = 0.875
        state.best_params = {k: v + 1 for k, v in model.params.items()}
        for v in state.velocity.values():
            v += 0.25
        path = tmp_path / "m.ckpt"
        save(model, state, (TINY, cfg), path)
        _, state2, _ = load(path)
        assert state2.epochs_done == 4
        assert state2.best_epoch == 2 and state2.best_metric == 0.875
        for name in model.param_names():
            assert np.array_equal(state2.best_params[name], state.best_params[name])
            assert np.array_equal(state2.velocity[name], state.velocity[name])

    def test_trailer_with_legacy_merge_echo_loads(self, tmp_path):
        """Older files repeated the merge config at ``configs.merge``."""
        _, cfg, path = write_checkpoint(tmp_path)
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", blob, 5)
        end = 13 + hlen + json.loads(blob[13 : 13 + hlen])["payload_bytes"]
        trailer = json.loads(blob[end:])
        trailer["configs"]["merge"] = trailer["configs"]["train"]["merge"]
        path.write_bytes(blob[:end] + json.dumps(trailer, sort_keys=True).encode())
        _, _, (_, train_cfg) = load(path)
        assert train_cfg == cfg

    def test_save_is_deterministic(self, tmp_path):
        _, _, path_a = write_checkpoint(tmp_path / "a")
        _, _, path_b = write_checkpoint(tmp_path / "b")
        assert path_a.read_bytes() == path_b.read_bytes()


class TestCorruptionDetection:
    def test_bad_magic(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:5] = b"NOPE!"
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_zero_header_length(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[5:13] = struct.pack("<Q", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_truncated_file(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TruncatedFileError):
            load(path)

    def test_too_short_for_header(self, tmp_path):
        path = tmp_path / "stub.ckpt"
        path.write_bytes(MAGIC)
        with pytest.raises(TruncatedFileError):
            load(path)

    def _rewrite_header(self, path, mutate):
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", blob, 5)
        header = json.loads(blob[13 : 13 + hlen].decode())
        rest = blob[13 + hlen :]
        mutate(header)
        new_header = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(new_header)) + new_header + rest)

    def test_unknown_dtype(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)

        def mutate(header):
            name = next(iter(header["tensors"]))
            header["tensors"][name]["dtype"] = "f64"

        self._rewrite_header(path, mutate)
        with pytest.raises(UnknownDtypeError):
            load(path)

    def test_overlapping_offsets(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)

        def mutate(header):
            entries = sorted(header["tensors"].values(), key=lambda e: e["offset"])
            entries[1]["offset"] -= 4

        self._rewrite_header(path, mutate)
        with pytest.raises(HeaderLayoutError):
            load(path)

    def test_payload_not_covered(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)

        def mutate(header):
            header["payload_bytes"] += 4

        self._rewrite_header(path, mutate)
        with pytest.raises(HeaderLayoutError):
            load(path)

    @pytest.mark.parametrize("field", ["offset", "length", "shape"])
    def test_entry_missing_field(self, tmp_path, field):
        _, _, path = write_checkpoint(tmp_path)

        def mutate(header):
            del header["tensors"]["param/conv0.bias"][field]

        self._rewrite_header(path, mutate)
        with pytest.raises(CorruptHeaderError):
            load(path)

    def test_entry_missing_field_exits_3(self, tmp_path, capsys):
        _, _, path = write_checkpoint(tmp_path)

        def mutate(header):
            del header["tensors"]["param/conv0.bias"]["offset"]

        self._rewrite_header(path, mutate)
        code = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "nodata")])
        assert code == 3
        assert "unreadable header" in capsys.readouterr().err

    @pytest.mark.parametrize("namespace", ["momentum", "best"])
    def test_missing_state_tensor(self, tmp_path, namespace):
        path = write_checkpoint_with_best(tmp_path)

        def mutate(header):
            # keep the byte layout intact, only the expected name disappears
            entries = header["tensors"]
            entries[f"{namespace}/zz"] = entries.pop(f"{namespace}/conv0.bias")

        self._rewrite_header(path, mutate)
        with pytest.raises(HeaderLayoutError, match=rf"missing \['{namespace}/conv0.bias'\]"):
            load(path)

    @pytest.mark.parametrize("namespace", ["param", "momentum", "best"])
    def test_tensor_shape_must_match_model(self, tmp_path, namespace):
        path = write_checkpoint_with_best(tmp_path, short_bias_in=namespace)
        with pytest.raises(HeaderLayoutError, match="shape"):
            load(path)

    @staticmethod
    def _rewrite_trailer(path, mutate):
        blob = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", blob, 5)
        end = 13 + hlen + json.loads(blob[13 : 13 + hlen])["payload_bytes"]
        trailer = json.loads(blob[end:])
        mutate(trailer)
        path.write_bytes(blob[:end] + json.dumps(trailer, sort_keys=True).encode())

    def test_unknown_format_refused(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_header(path, lambda header: header.update(format=99))
        with pytest.raises(CorruptHeaderError, match="format 99"):
            load(path)

    def test_unknown_rng_scheme_refused(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_trailer(path, lambda trailer: trailer["rng"].update(scheme="global-stream"))
        with pytest.raises(CorruptHeaderError, match="RNG position"):
            load(path)

    def test_rng_position_must_follow_epochs_done(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_trailer(path, lambda trailer: trailer["rng"].update(next_epoch=2))
        with pytest.raises(CorruptHeaderError, match="RNG position"):
            load(path)

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    @pytest.mark.parametrize("mutate", [
        set_state(epochs_done=26),  # the config trains 25 epochs
        set_arch(input_shape=[1, 27, 27]),
    ], ids=["done-past-total", "tiny_cnn-at-27"])
    def test_bad_trailer_exits_3_naming_the_file(self, tmp_path, capsys, command, mutate):
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_trailer(path, mutate)
        extra = ["--data", str(tmp_path / "nodata")] if command == "eval" else ["--layer", "0"]
        assert main([command, "--checkpoint", str(path), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(path) in err

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_unallocatable_trailer_arch_exits_3(self, tmp_path, capsys, command):
        """In-process: ``build_model`` refuses the layer before numpy asks
        malloc for it, so no later test inherits a failed malloc's arena."""
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_trailer(path, set_arch(preset=None, layers=unallocatable_layers(2**40, 4)))
        extra = ["--data", str(tmp_path / "nodata")] if command == "eval" else ["--layer", "0"]
        assert main([command, "--checkpoint", str(path), *extra]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: trailer arch does not build"), err
        assert "conv0 (layer 0): cannot allocate" in err

    def test_unknown_format_exits_3(self, tmp_path, capsys):
        _, _, path = write_checkpoint(tmp_path)
        self._rewrite_header(path, lambda header: header.update(format=2))
        code = main(["eval", "--checkpoint", str(path), "--data", str(tmp_path / "nodata")])
        assert code == 3
        assert "format 2" in capsys.readouterr().err

    def test_garbled_header_text(self, tmp_path):
        _, _, path = write_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[20] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError):
            load(path)


def merge_run(epochs_inmerge):
    """A tiny_cnn run of 1 + ``epochs_inmerge`` epochs that sweeps 3 times an epoch."""
    data = synth_make("striped_textures", 16, 4, 1, 28, 28, seed=9)
    cfg = TrainConfig(
        epochs_pretrain=1, epochs_inmerge=epochs_inmerge, batch_size=16, seed=9,
        merge=MergeConfig(skip_layers=3, seed=9),
    )
    return data, cfg


class TestResume:
    @pytest.mark.parametrize(
        "epochs_inmerge, max_epochs", [(1, 1), (2, 2)], ids=["after-pretrain", "inside-inmerge"]
    )
    def test_interrupted_equals_uninterrupted(self, tmp_path, epochs_inmerge, max_epochs):
        data, cfg = merge_run(epochs_inmerge)
        straight = run_protocol(TINY, data, cfg)

        ckpt = tmp_path / "last.ckpt"
        partial = run_protocol(TINY, data, cfg, checkpoint_path=ckpt, max_epochs=max_epochs)
        assert len(partial.log.records) == max_epochs
        resumed = resume_protocol(ckpt, data)

        for name in straight.model.param_names():
            assert np.array_equal(
                straight.model.params[name], resumed.model.params[name]
            ), name
            assert np.array_equal(
                straight.best_model.params[name], resumed.best_model.params[name]
            ), name
        assert [r.to_record() for r in straight.log.records] == [
            r.to_record() for r in resumed.log.records
        ]
        assert len(straight.sweep_records) == 3 * epochs_inmerge
        assert resumed.sweep_records == straight.sweep_records

    def test_file_without_sweeps_loads_and_resumes(self, tmp_path):
        """A trailer written before records held their sweeps still resumes;
        only the epochs run after the resume report theirs."""
        data, cfg = merge_run(2)
        straight = run_protocol(TINY, data, cfg)
        ckpt = tmp_path / "last.ckpt"
        run_protocol(TINY, data, cfg, checkpoint_path=ckpt, max_epochs=2)

        def drop_sweeps(trailer):
            for record in trailer["state"]["records"]:
                del record["sweeps"]

        TestCorruptionDetection._rewrite_trailer(ckpt, drop_sweeps)
        assert all(r.sweeps == [] for r in load(ckpt)[1].records)
        resumed = resume_protocol(ckpt, data)
        for name in straight.model.param_names():
            assert np.array_equal(straight.model.params[name], resumed.model.params[name]), name
        assert resumed.sweep_records == [r for r in straight.sweep_records if r["epoch"] == 2]

    def test_merge_without_conv_layer_refused_before_any_epoch(self, tmp_path):
        arch = ArchConfig(
            input_shape=(1, 28, 28), num_classes=4, layers=(flatten_spec(), dense_spec(784, 4))
        )
        cfg = TrainConfig(epochs_pretrain=2, epochs_inmerge=1, merge=MergeConfig())
        model = build_model(arch, 0)
        path = tmp_path / "flat.ckpt"
        save(model, fresh_state(model), (arch, cfg), path)
        before = path.read_bytes()
        data = synth_make("striped_textures", 4, 4, 1, 28, 28, seed=9)
        with pytest.raises(ConfigError, match="merging needs a conv layer"):
            resume_protocol(path, data)
        assert path.read_bytes() == before
