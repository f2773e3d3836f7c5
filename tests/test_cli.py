"""CLI: artifact layout, reproducibility, exit codes, command contracts."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from helpers import unallocatable_layers

from inmerge import checkpoint, synth_make
from inmerge.cli import main
from inmerge.data import save_dataset
from inmerge.data import load_dataset
from inmerge.layers import conv_spec, dense_spec, flatten_spec
from inmerge.merging import similarity_stats
from inmerge.model import ArchConfig, Model, build_model
from inmerge.training import TrainConfig, TrainState


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    handle = synth_make("striped_textures", 60, 2, 1, 28, 28, seed=21)
    save_dataset(handle, root)
    return root


def run_config(dataset_dir, out_dir, seed=3, with_merge=True, epochs=(1, 1)):
    doc = {
        "arch": {
            "preset": "tiny_cnn",
            "input_shape": [1, 28, 28],
            "num_classes": 2,
        },
        "data": {"dir": str(dataset_dir)},
        "train": {
            "epochs_pretrain": epochs[0],
            "epochs_inmerge": epochs[1],
            "batch_size": 16,
            "seed": seed,
        },
        "output": str(out_dir),
    }
    if with_merge:
        doc["merge"] = {"skip_layers": 3, "seed": seed}
    return doc


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


CONTENT_FILES = ("config_echo.json", "train_log.jsonl", "merge_reports.jsonl",
                 "final.ckpt", "best.ckpt")


def tree_bytes(root):
    """Every file under ``root`` but ``run_meta.json``, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file() and p.name != "run_meta.json"
    }


class TestTrainCommand:
    def test_artifacts_and_determinism(self, dataset_dir, tmp_path, capsys):
        cfg_a = write_config(tmp_path, run_config(dataset_dir, tmp_path / "a"), "a.json")
        cfg_b = write_config(tmp_path, run_config(dataset_dir, tmp_path / "b"), "b.json")
        assert main(["train", "--config", str(cfg_a)]) == 0
        assert main(["train", "--config", str(cfg_b)]) == 0
        for name in CONTENT_FILES + ("last.ckpt", "run_meta.json"):
            assert (tmp_path / "a" / name).is_file(), name
        for name in CONTENT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), f"{name} not reproducible"
        lines = (tmp_path / "a" / "train_log.jsonl").read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(l) for l in lines]
        assert [r["phase"] for r in records] == ["pretrain", "inmerge"]
        sweeps = (tmp_path / "a" / "merge_reports.jsonl").read_text().splitlines()
        assert len(sweeps) == records[1]["merge_sweeps"]

    def test_baseline_when_merge_absent(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path, run_config(dataset_dir, tmp_path / "out", with_merge=False)
        )
        assert main(["train", "--config", str(cfg)]) == 0
        assert "baseline" in capsys.readouterr().out
        assert (tmp_path / "out" / "merge_reports.jsonl").read_text() == ""

    def test_unknown_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        doc = run_config(dataset_dir, tmp_path / "out")
        doc["merge"]["aplha"] = 0.9
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "aplha" in err

    def test_conv_stride_zero_exits_2(self, dataset_dir, tmp_path, capsys):
        doc = run_config(dataset_dir, tmp_path / "out", with_merge=False)
        doc["arch"] = {
            "input_shape": [1, 28, 28],
            "num_classes": 2,
            "layers": [
                {"kind": "conv2d", "out_channels": 2, "in_channels": 1,
                 "kernel_h": 3, "kernel_w": 3, "stride": 0},
                {"kind": "flatten"},
                {"kind": "dense", "in_features": 2 * 26 * 26, "out_features": 2},
            ],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        assert "stride" in capsys.readouterr().err

    @pytest.mark.parametrize("log2_channels", [40, 62])  # past memory; past numpy's index range
    def test_unallocatable_model_exits_2_before_any_file(
        self, dataset_dir, tmp_path, capsys, log2_channels
    ):
        """In-process: ``build_model`` refuses the layer before numpy asks
        malloc for it, so no later test inherits a failed malloc's arena."""
        doc = run_config(dataset_dir, tmp_path / "out", with_merge=False)
        doc["arch"] = {"input_shape": [1, 28, 28], "num_classes": 2,
                       "layers": unallocatable_layers(2**log2_channels, 2)}
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: conv0 (layer 0): cannot allocate"), err
        assert f"{2 ** (log2_channels + 1)} parameters" in err  # weights and biases
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", [("train", "augment"), ("merge", "invert_gate")])
    def test_boolean_fields_accept_only_json_booleans(
        self, dataset_dir, tmp_path, capsys, section, key
    ):
        doc = run_config(dataset_dir, tmp_path / "out")
        doc[section][key] = "false"
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("data", 5), ("data", ["dir"]), ("data", {"dir": 5}), ("output", 7)],
        ids=["data-int", "data-list", "data-dir-int", "output-int"],
    )
    def test_section_of_wrong_type_exits_2(self, dataset_dir, tmp_path, capsys, key, value):
        doc = run_config(dataset_dir, tmp_path / "out")
        doc[key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    def test_layers_that_do_not_chain_exit_2_as_config_error(self, dataset_dir, tmp_path, capsys):
        doc = run_config(dataset_dir, tmp_path / "out", with_merge=False)
        doc["arch"] = {
            "input_shape": [1, 28, 28],
            "num_classes": 2,
            "layers": [{"kind": "flatten"},
                       {"kind": "dense", "in_features": 100, "out_features": 2}],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "expects 100 features" in err
        assert not (tmp_path / "out").exists()

    def test_zero_epochs_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "out", epochs=(0, 0)))
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_exits_3(self, dataset_dir, tmp_path, capsys):
        doc = run_config(tmp_path / "nowhere", tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert main(["train", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("data error:")

    def test_run_that_never_merges_logs_one_warning(self, dataset_dir, tmp_path, capsys, caplog):
        """At the default tau no pair of tiny_cnn's conv3-5 kernels passes the
        gate: the run says so once, naming the range of each swept layer's
        pair similarities, and prints only its summary line on stdout."""
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run"))
        with caplog.at_level("WARNING", logger="inmerge"):
            assert main(["train", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.count("\n") == 1
        [record] = caplog.records
        head, _, sims = record.getMessage().rpartition(": ")
        draws = sum(
            json.loads(line)["merge_draws"]
            for line in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        )
        assert record.name == "inmerge.cli" and draws > 0
        assert head == (
            f"{tmp_path / 'run'}: {draws} merge draws, 0 merges at tau 0.3; "
            "pair similarities at the end"
        )
        model, _, _ = checkpoint.load(tmp_path / "run" / "final.ckpt")
        stats = [similarity_stats(model, k) for k in (3, 4, 5)]
        assert sims == ", ".join(
            f"conv{s.ordinal} [{s.minimum:.4f}, {s.maximum:.4f}]" for s in stats
        )

    def test_out_flag_overrides_config(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "ignored"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "chosen")]) == 0
        assert (tmp_path / "chosen" / "train_log.jsonl").is_file()
        assert not (tmp_path / "ignored").exists()


class TestEvalCommand:
    def test_best_checkpoint_reproduces_logged_metric(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run", seed=5))
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        records = [
            json.loads(l)
            for l in (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
        ]
        best = max(records, key=lambda r: r["val_metric"])
        code = main([
            "eval", "--checkpoint", str(tmp_path / "run" / "best.ckpt"),
            "--data", str(dataset_dir), "--split", "val",
        ])
        assert code == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["accuracy"] == best["val_metric"]

    def test_multilabel_prints_k_plus_one_aurocs(self, tmp_path, capsys):
        data_dir = tmp_path / "ml_data"
        handle = synth_make("gauss_blobs", 40, 3, 1, 28, 28, seed=2, task="multilabel")
        save_dataset(handle, data_dir)
        arch = ArchConfig(
            input_shape=(1, 28, 28), num_classes=3, head="multilabel", preset="tiny_cnn"
        )
        model = build_model(arch, 0)
        state = TrainState(
            epochs_done=0,
            velocity={k: np.zeros_like(v) for k, v in model.params.items()},
        )
        ckpt = tmp_path / "ml.ckpt"
        checkpoint.save(model, state, (arch, TrainConfig(seed=0)), ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 0
        bundle = json.loads(capsys.readouterr().out)
        aurocs = bundle["per_class_auroc"] + [bundle["mean_auroc"]]
        assert len(aurocs) == 4 and all(v is not None for v in aurocs)

    def test_class_count_mismatch_names_both(self, dataset_dir, tmp_path, capsys):
        other_dir = tmp_path / "threeway"
        save_dataset(synth_make("gauss_blobs", 20, 3, 1, 28, 28, seed=3), other_dir)
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run2", seed=6))
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(tmp_path / "run2" / "best.ckpt"),
            "--data", str(other_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "2" in err and "3" in err

    def test_out_flag_writes_roc_points(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run3", seed=7))
        assert main(["train", "--config", str(cfg)]) == 0
        out = tmp_path / "evalout"
        assert main([
            "eval", "--checkpoint", str(tmp_path / "run3" / "best.ckpt"),
            "--data", str(dataset_dir), "--split", "test", "--out", str(out),
        ]) == 0
        assert (out / "metrics.json").is_file()
        roc = (out / "roc_class0.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"
        assert len(roc) > 2
        for path in out.glob("roc_class*.csv"):
            for line in path.read_text().splitlines()[1:]:
                threshold, fpr, tpr = (float(cell) for cell in line.split(","))
                assert 0.0 <= fpr <= 1.0 and 0.0 <= tpr <= 1.0

    def test_out_flag_runs_one_forward_pass(self, dataset_dir, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run5", seed=9))
        assert main(["train", "--config", str(cfg)]) == 0
        forward, batches = Model.forward, []

        def counting_forward(self, x, *args, **kwargs):
            batches.append(len(x))
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(Model, "forward", counting_forward)
        assert main([
            "eval", "--checkpoint", str(tmp_path / "run5" / "best.ckpt"),
            "--data", str(dataset_dir), "--split", "test", "--out", str(tmp_path / "evalout"),
        ]) == 0
        assert batches == [len(load_dataset(dataset_dir).splits["test"])]

    def test_eval_never_mutates_checkpoint(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "run4", seed=8))
        assert main(["train", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "run4" / "best.ckpt"
        before = ckpt.read_bytes()
        main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir)])
        assert ckpt.read_bytes() == before


class TestAnalyzeCommand:
    def _save_model(self, tmp_path, model, name="a.ckpt"):
        state = TrainState(
            epochs_done=0,
            velocity={k: np.zeros_like(v) for k, v in model.params.items()},
        )
        path = tmp_path / name
        checkpoint.save(model, state, (model.arch, TrainConfig(seed=0)), path)
        return path

    def test_row_count_is_n_choose_2(self, tmp_path, capsys):
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
        ckpt = self._save_model(tmp_path, build_model(arch, 1))
        assert main(["analyze", "--checkpoint", str(ckpt), "--layer", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "i,j,sim"
        assert len(out) - 1 == 16 * 15 // 2  # conv2 has 16 kernels

    def test_duplicated_kernel_fixture_shows_unit_similarity(self, tmp_path, capsys):
        arch = ArchConfig(
            input_shape=(1, 4, 4),
            num_classes=2,
            layers=(conv_spec(3, 1, 3, 3), flatten_spec(), dense_spec(3 * 2 * 2, 2)),
        )
        model = build_model(arch, 0)
        model.params["conv0.weight"][1] = model.params["conv0.weight"][0]
        ckpt = self._save_model(tmp_path, model)
        assert main(["analyze", "--checkpoint", str(ckpt), "--layer", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        sims = {tuple(r.split(",")[:2]): float(r.split(",")[2]) for r in rows}
        assert sims[("0", "1")] == 1.0

    def test_fresh_init_similarity_mass_near_zero(self, tmp_path, capsys):
        # wide-fan-in kernels (64 x 3 x 3): random directions concentrate
        # near orthogonality, so the mean |sim| bound has huge margin
        arch = ArchConfig(
            input_shape=(64, 6, 6),
            num_classes=2,
            layers=(conv_spec(32, 64, 3, 3), flatten_spec(), dense_spec(32 * 4 * 4, 2)),
        )
        ckpt = self._save_model(tmp_path, build_model(arch, 7))
        assert main(["analyze", "--checkpoint", str(ckpt), "--layer", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        sims = np.array([float(r.split(",")[2]) for r in rows])
        assert np.abs(sims).mean() < 0.2

    def test_bad_ordinal_exits_2(self, tmp_path, capsys):
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
        ckpt = self._save_model(tmp_path, build_model(arch, 1))
        assert main(["analyze", "--checkpoint", str(ckpt), "--layer", "42"]) == 2

    def test_out_files(self, tmp_path, capsys):
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")
        ckpt = self._save_model(tmp_path, build_model(arch, 1))
        out = tmp_path / "an"
        assert main([
            "analyze", "--checkpoint", str(ckpt), "--layer", "0", "--out", str(out)
        ]) == 0
        assert (out / "pairs.csv").is_file()
        hist = (out / "histogram.csv").read_text().splitlines()
        assert hist[0] == "bin_lo,bin_hi,count"
        assert len(hist) == 21  # 20 bins


class TestUnreadablePaths:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_directory_as_checkpoint_exits_3(self, dataset_dir, tmp_path, capsys, command):
        extra = ["--data", str(dataset_dir)] if command == "eval" else ["--layer", "0"]
        assert main([command, "--checkpoint", str(tmp_path), *extra]) == 3
        assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_image_shape_mismatch_exits_2_naming_both(tmp_path, capsys, command):
    data_dir = tmp_path / "data32"
    save_dataset(synth_make("striped_textures", 10, 2, 1, 32, 32, seed=21), data_dir)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, run_config(data_dir, out))
    if command == "eval":
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=2, preset="tiny_cnn")
        model = build_model(arch, seed=0)
        velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
        ckpt = tmp_path / "tiny.ckpt"
        checkpoint.save(model, TrainState(0, velocity), (arch, TrainConfig()), ckpt)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir), "--out", str(out)]
    elif command == "ablate":
        argv = ["ablate", "--config", str(cfg), "--axis", "p", "--values", "0.0",
                "--seeds", "0", "--out", str(out)]
    else:
        argv = ["train", "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "(1, 28, 28)" in err and "(1, 32, 32)" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, in_features, message",
    [
        pytest.param("train", 784, "conv layer", id="train"),
        pytest.param("ablate", 784, "conv layer", id="ablate"),
        # the layer shape walk comes first, so layers that do not chain name it
        pytest.param("train", 100, "expects 100 features", id="train-layers-do-not-chain"),
        pytest.param("ablate", 100, "expects 100 features", id="ablate-layers-do-not-chain"),
    ],
)
def test_merge_without_conv_layer_exits_2_before_training(
    dataset_dir, tmp_path, capsys, command, in_features, message
):
    out = tmp_path / "out"
    doc = run_config(dataset_dir, out)
    doc["arch"] = {
        "input_shape": [1, 28, 28],
        "num_classes": 2,
        "layers": [
            {"kind": "flatten"},
            {"kind": "dense", "in_features": in_features, "out_features": 2},
        ],
    }
    cfg = write_config(tmp_path, doc)
    argv = ["train", "--config", str(cfg)]
    if command == "ablate":
        argv = ["ablate", "--config", str(cfg), "--axis", "p", "--values", "0.5",
                "--seeds", "0", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command, split", [("train", "val"), ("ablate", "test"), ("eval", "test")])
def test_unscoreable_split_exits_3_before_any_work(tmp_path, capsys, command, split):
    """A multilabel split where no class has both label values has no mean AUROC."""
    handle = synth_make("gauss_blobs", 10, 3, 1, 28, 28, seed=2, task="multilabel")
    labels = handle.splits[split].labels
    handle.splits[split] = replace(handle.splits[split], labels=np.zeros_like(labels))
    data_dir = tmp_path / "data"
    save_dataset(handle, data_dir)
    out = tmp_path / "out"
    doc = run_config(data_dir, out)
    doc["arch"].update(num_classes=3, head="multilabel")
    cfg = write_config(tmp_path, doc)
    if command == "eval":
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=3, head="multilabel",
                          preset="tiny_cnn")
        model = build_model(arch, seed=0)
        velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
        ckpt = tmp_path / "ml.ckpt"
        checkpoint.save(model, TrainState(0, velocity), (arch, TrainConfig()), ckpt)
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir), "--split", split,
                "--out", str(out)]
    elif command == "ablate":
        argv = ["ablate", "--config", str(cfg), "--axis", "p", "--values", "0.0",
                "--seeds", "0", "--out", str(out)]
    else:
        argv = ["train", "--config", str(cfg)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "no class has a defined AUROC" in err
    assert f"{split} split cannot be scored" in err
    assert not out.exists()


class TestAblateCommand:
    def test_p_axis_grid(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused", seed=0))
        out = tmp_path / "grid"
        code = main([
            "ablate", "--config", str(cfg), "--axis", "p",
            "--values", "0.0,0.3", "--seeds", "11,12", "--out", str(out),
        ])
        assert code == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + 2 value rows
        cells = (out / "cells.csv").read_text().splitlines()
        assert len(cells) == 5  # header + 4 runs
        for value in ("0.0", "0.3"):
            for seed in ("11", "12"):
                assert (out / f"p_{value}" / f"seed_{seed}" / "final.ckpt").is_file()

    def test_cells_report_their_merges(self, tmp_path, capsys):
        """At tau 0.1 the gate passes in tiny_cnn's shallow layers, so p = 1
        merges and p = 0 never does; the CSVs count what the cells' logs say."""
        handle = synth_make("gauss_blobs", 60, 4, 1, 28, 28, seed=0, task="multilabel")
        save_dataset(handle, tmp_path / "data")
        doc = run_config(tmp_path / "data", tmp_path / "unused", seed=0)
        doc["arch"].update(num_classes=4, head="multilabel")
        doc["train"]["batch_size"] = 64
        doc["merge"]["sim_threshold"] = 0.1
        out = tmp_path / "grid"
        assert main([
            "ablate", "--config", str(write_config(tmp_path, doc)), "--axis", "p",
            "--values", "0.0,1.0", "--seeds", "0,1", "--out", str(out),
        ]) == 0
        cells = [line.split(",") for line in (out / "cells.csv").read_text().splitlines()]
        assert cells[0] == ["axis", "value", "seed", "test_mean_auroc", "merges"]
        merges = {(value, seed): int(n) for _, value, seed, _, n in cells[1:]}
        for (value, seed), n in merges.items():
            log = (out / f"p_{value}" / f"seed_{seed}" / "train_log.jsonl").read_text()
            assert n == sum(json.loads(line)["merge_applied"] for line in log.splitlines())
            assert (n > 0) == (value == "1.0"), (value, seed, n)
        summary = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()]
        assert summary[0][-1] == "merges_mean"
        for row in summary[1:]:
            assert float(row[-1]) == (merges[row[1], "0"] + merges[row[1], "1"]) / 2
        for seed in (0, 1):
            p0, _, _ = checkpoint.load(out / "p_0.0" / f"seed_{seed}" / "final.ckpt")
            p1, _, _ = checkpoint.load(out / "p_1.0" / f"seed_{seed}" / "final.ckpt")
            assert any(not np.array_equal(p0.params[k], p1.params[k]) for k in p0.param_names())

    def test_only_cells_that_draw_and_never_merge_warn(self, dataset_dir, tmp_path, capsys, caplog):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused", seed=0))
        out = tmp_path / "grid"
        with caplog.at_level("WARNING", logger="inmerge"):
            assert main([
                "ablate", "--config", str(cfg), "--axis", "p",
                "--values", "0.0,1.0", "--seeds", "5", "--out", str(out),
            ]) == 0
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1 and messages[0].startswith(f"{out / 'p_1.0' / 'seed_5'}: ")

    @pytest.mark.parametrize("empty", ["train", "val", "test"])
    def test_empty_split_exits_3_before_any_cell(self, tmp_path, capsys, empty):
        handle = synth_make("striped_textures", 20, 2, 1, 28, 28, seed=21)
        split = handle.splits[empty]
        handle.splits[empty] = replace(split, images=split.images[:0], labels=split.labels[:0])
        save_dataset(handle, tmp_path / "data")
        cfg = write_config(tmp_path, run_config(tmp_path / "data", tmp_path / "unused"))
        out = tmp_path / "grid"
        assert main([
            "ablate", "--config", str(cfg), "--axis", "p",
            "--values", "0.0", "--seeds", "0", "--out", str(out),
        ]) == 3
        assert f"{empty} split is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_p_zero_cell_equals_baseline_bitwise(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused", seed=0))
        out = tmp_path / "grid0"
        assert main([
            "ablate", "--config", str(cfg), "--axis", "p",
            "--values", "0.0", "--seeds", "33", "--out", str(out),
        ]) == 0
        base_doc = run_config(dataset_dir, tmp_path / "base33", seed=33, with_merge=False)
        base_cfg = write_config(tmp_path, base_doc, "base33.json")
        assert main(["train", "--config", str(base_cfg)]) == 0
        cell_model, _, _ = checkpoint.load(out / "p_0.0" / "seed_33" / "final.ckpt")
        base_model, _, _ = checkpoint.load(tmp_path / "base33" / "final.ckpt")
        for name in cell_model.param_names():
            assert np.array_equal(cell_model.params[name], base_model.params[name]), name

    @pytest.mark.parametrize("epochs", [(1, 1), (0, 1), (1, 0)])
    def test_cells_equal_separate_train_runs(self, dataset_dir, tmp_path, capsys, epochs):
        """A grid trains each seed's pretrain epochs once, yet every cell
        holds, file for file, what ``train`` on the cell's config writes."""
        doc = run_config(dataset_dir, tmp_path / "unused", seed=0, epochs=epochs)
        out = tmp_path / "grid"
        assert main([
            "ablate", "--config", str(write_config(tmp_path, doc)), "--axis", "p",
            "--values", "0.0,1.0", "--seeds", "5,6", "--out", str(out),
        ]) == 0
        for value in (0.0, 1.0):
            for seed in (5, 6):
                alone = tmp_path / f"alone_p{value}_seed{seed}"
                cell_doc = run_config(dataset_dir, alone, seed=seed, epochs=epochs)
                cell_doc["merge"]["merge_prob"] = value
                assert main(["train", "--config", str(write_config(tmp_path, cell_doc))]) == 0
                cell = out / f"p_{value}" / f"seed_{seed}"
                assert tree_bytes(cell) == tree_bytes(alone), cell
                if epochs[1] == 0:  # the cell trained no epoch of its own
                    _, _, (_, cfg) = checkpoint.load(cell / "last.ckpt")
                    assert cfg.merge.merge_prob == value

    def test_invalid_axis_and_values(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused"))
        assert main([
            "ablate", "--config", str(cfg), "--axis", "lr",
            "--values", "0.1", "--seeds", "1", "--out", str(tmp_path / "x"),
        ]) == 2
        assert main([
            "ablate", "--config", str(cfg), "--axis", "p",
            "--values", "1.5", "--seeds", "1", "--out", str(tmp_path / "y"),
        ]) == 2

    def test_sim_inverted_axis_parses_booleans(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused", seed=0))
        out = tmp_path / "inv"
        assert main([
            "ablate", "--config", str(cfg), "--axis", "sim_inverted",
            "--values", "false,true", "--seeds", "2", "--out", str(out),
        ]) == 0
        echo = json.loads(
            (out / "sim_inverted_True" / "seed_2" / "config_echo.json").read_text()
        )
        assert echo["train"]["merge"]["invert_gate"] is True

    @pytest.mark.parametrize("flag, values, seeds", [
        ("--values", "0.5,0.50", "0"),
        ("--values", "0.5,0.3,0.5", "0"),
        ("--seeds", "0.5", "0,0"),
        ("--seeds", "0.5", "1,2, 1"),
    ])
    def test_duplicate_cells_exit_2(self, dataset_dir, tmp_path, capsys, flag, values, seeds):
        cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "unused"))
        out = tmp_path / "dup"
        assert main([
            "ablate", "--config", str(cfg), "--axis", "p",
            "--values", values, "--seeds", seeds, "--out", str(out),
        ]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_console_entry_point_smoke(dataset_dir, tmp_path):
    cfg = write_config(tmp_path, run_config(dataset_dir, tmp_path / "sub"))
    proc = subprocess.run(
        [sys.executable, "-m", "inmerge.cli", "train", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "run complete" in proc.stdout
