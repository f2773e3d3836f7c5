"""Training engine: optimizer math, schedule, protocol bookkeeping,
baseline equivalence, and whole-stack regressions."""

import numpy as np
import pytest

from inmerge import MergeConfig, synth_make
from inmerge.data import DatasetHandle, Split
from inmerge.errors import ConfigError, DataError, NumericError
from inmerge import training
from inmerge.model import ArchConfig, build_model
from inmerge.training import (
    TrainConfig,
    evaluate,
    lr_at,
    run_protocol,
    sgd_step,
    train_epoch,
)

TINY = ArchConfig(input_shape=(1, 28, 28), num_classes=4, preset="tiny_cnn")


def small_data(seed=10, n_per_class=16):
    return synth_make("striped_textures", n_per_class, 4, 1, 28, 28, seed=seed)


def params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


class TestSgdStep:
    def _one(self, w, g, v, lr, momentum, wd):
        params = {"w": np.array([w], np.float32)}
        grads = {"w": np.array([g], np.float32)}
        vel = {"w": np.array([v], np.float32)}
        sgd_step(params, grads, vel, lr, momentum, wd)
        return float(params["w"][0]), float(vel["w"][0])

    def test_vanilla_step(self):
        w, _ = self._one(1.0, 1.0, 0.0, lr=0.1, momentum=0.0, wd=0.0)
        assert w == pytest.approx(0.9, abs=1e-7)

    def test_momentum_recurrence(self):
        params = {"w": np.array([1.0], np.float32)}
        vel = {"w": np.array([0.0], np.float32)}
        grads = {"w": np.array([1.0], np.float32)}
        sgd_step(params, grads, vel, 0.1, 0.9, 0.0)
        assert params["w"][0] == pytest.approx(0.9, abs=1e-7)
        sgd_step(params, grads, vel, 0.1, 0.9, 0.0)
        assert vel["w"][0] == pytest.approx(1.9, abs=1e-6)
        assert params["w"][0] == pytest.approx(0.71, abs=1e-6)

    def test_zero_grad_velocity_decays_geometrically(self):
        params = {"w": np.array([1.0], np.float32)}
        vel = {"w": np.array([2.0], np.float32)}
        grads = {"w": np.array([0.0], np.float32)}
        sgd_step(params, grads, vel, 0.5, 0.5, 0.0)
        assert vel["w"][0] == pytest.approx(1.0)
        assert params["w"][0] == pytest.approx(0.5)

    def test_weight_decay_coupled_into_gradient(self):
        w, v = self._one(2.0, 0.0, 0.0, lr=1.0, momentum=0.0, wd=0.1)
        assert v == pytest.approx(0.2, abs=1e-7)
        assert w == pytest.approx(1.8, abs=1e-7)


class TestLrSchedule:
    def test_examples(self):
        cfg = TrainConfig(lr0=0.01, milestones=(15,), gamma=0.1)
        assert lr_at(0, cfg) == pytest.approx(0.01)
        assert lr_at(14, cfg) == pytest.approx(0.01)
        assert lr_at(15, cfg) == pytest.approx(0.001)
        cfg2 = TrainConfig(lr0=0.01, milestones=(10, 20), gamma=0.1)
        assert lr_at(25, cfg2) == pytest.approx(0.01 * 0.1**2)

    def test_default_milestone_is_three_quarters(self):
        cfg = TrainConfig(epochs_pretrain=20, epochs_inmerge=5)
        assert cfg.resolved_milestones() == (18,)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr0=0.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(milestones=(5, 5)).validate()
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0).validate()

    def test_zero_total_epochs_rejected(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs_pretrain=0, epochs_inmerge=0).validate()
        TrainConfig(epochs_pretrain=0, epochs_inmerge=1).validate()


class TestTrainEpoch:
    def test_pretrain_records_no_sweeps(self):
        data = small_data()
        cfg = TrainConfig(
            epochs_pretrain=1, epochs_inmerge=0, batch_size=16, seed=0,
            merge=MergeConfig(),
        )
        model = build_model(TINY, cfg.seed)
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        stats = train_epoch(model, data, cfg, "pretrain", 0, vel)
        assert stats.sweeps == 0

    def test_iteration_count_and_sweep_count(self):
        data = small_data()
        n = len(data.splits["train"])
        cfg = TrainConfig(
            epochs_pretrain=0, epochs_inmerge=1, batch_size=10, seed=0,
            merge=MergeConfig(skip_layers=3, seed=0),
        )
        model = build_model(TINY, cfg.seed)
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        stats = train_epoch(model, data, cfg, "inmerge", 0, vel)
        assert stats.iterations == -(-n // 10)
        assert stats.sweeps == stats.iterations

    def test_p_zero_inmerge_epoch_matches_pretrain_epoch(self):
        data = small_data()
        cfg = TrainConfig(
            epochs_pretrain=1, epochs_inmerge=0, batch_size=16, seed=3,
            merge=MergeConfig(merge_prob=0.0, seed=3),
        )
        results = []
        for phase in ("pretrain", "inmerge"):
            model = build_model(TINY, cfg.seed)
            vel = {k: np.zeros_like(v) for k, v in model.params.items()}
            train_epoch(model, data, cfg, phase, 0, vel)
            results.append({k: v.copy() for k, v in model.params.items()})
        assert params_equal(results[0], results[1])

    def test_head_mismatch_rejected(self):
        data = synth_make("gauss_blobs", 8, 3, 1, 28, 28, seed=0)  # 3 classes
        cfg = TrainConfig(batch_size=8, seed=0)
        model = build_model(TINY, 0)  # 4-class head
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        with pytest.raises(ConfigError):
            train_epoch(model, data, cfg, "pretrain", 0, vel)

    def test_divergence_raises_numeric_error(self):
        data = small_data()
        cfg = TrainConfig(lr0=1e9, batch_size=16, seed=0)
        model = build_model(TINY, 0)
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            for e in range(5):
                train_epoch(model, data, cfg, "pretrain", e, vel)

    def test_layer_error_in_forward_names_epoch_and_batch(self):
        data = small_data()
        model = build_model(TINY, 0)
        model.params["conv1.weight"][0, 0, 0, 0] = np.nan
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        with pytest.raises(NumericError) as info:
            train_epoch(model, data, TrainConfig(batch_size=16, seed=0), "pretrain", 2, vel)
        assert str(info.value) == (
            "epoch 2 batch 0: layer 2 (conv1) forward: conv2d_forward: non-finite values in result"
        )

    def test_layer_error_in_backward_names_epoch_and_batch(self, monkeypatch):
        real = training._batch_loss
        calls = []

        def nan_grad_from_second_batch(model, logits, labels):
            calls.append(len(logits))
            loss, grad = real(model, logits, labels)
            return loss, grad if len(calls) < 2 else np.full_like(grad, np.nan)

        monkeypatch.setattr(training, "_batch_loss", nan_grad_from_second_batch)
        data = small_data()
        model = build_model(TINY, 0)
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        with pytest.raises(NumericError) as info:
            train_epoch(model, data, TrainConfig(batch_size=16, seed=0), "pretrain", 1, vel)
        assert str(info.value) == (
            "epoch 1 batch 1: layer 16 (dense0) backward: dense_backward: non-finite values in result"
        )


class TestEvaluate:
    def test_inference_purity(self):
        data = small_data()
        model = build_model(TINY, 1)
        before = {k: v.copy() for k, v in model.params.items()}
        evaluate(model, data, "val")
        assert params_equal(before, model.params)

    def test_perfect_predictor_scores_one(self):
        # dataset whose label equals argmax of a fixed linear map: train long
        # enough on stripes instead -> use the regression below; here check
        # the degenerate exact case via a hand-built model on tiny images
        data = small_data(seed=11, n_per_class=20)
        cfg = TrainConfig(epochs_pretrain=6, epochs_inmerge=0, batch_size=16, seed=2)
        result = run_protocol(TINY, data, cfg)
        bundle = evaluate(result.best_model, data, "val")
        assert bundle.accuracy is not None and bundle.accuracy > 0.9

    def test_multilabel_bundle_shape(self):
        data = synth_make("gauss_blobs", 30, 3, 1, 28, 28, seed=4, task="multilabel")
        arch = ArchConfig(
            input_shape=(1, 28, 28), num_classes=3, head="multilabel", preset="tiny_cnn"
        )
        model = build_model(arch, 0)
        bundle = evaluate(model, data, "val")
        assert bundle.accuracy is None
        assert len(bundle.per_class_auroc) == 3
        present = [v for v in bundle.per_class_auroc if v is not None]
        assert bundle.mean_auroc == pytest.approx(float(np.mean(present)))

    def test_unknown_split(self):
        with pytest.raises(ConfigError):
            evaluate(build_model(TINY, 0), small_data(), "holdout")


class TestCheckRun:
    ARCH = ArchConfig(input_shape=(1, 28, 28), num_classes=3, head="multilabel",
                      preset="tiny_cnn")

    @pytest.mark.parametrize("single_valued", [[1], [0, 1, 2]])
    def test_single_valued_class_logs_nothing(self, caplog, single_valued):
        """The gate scores a split from its labels without a log record; it
        refuses only when no class has both label values."""
        data = synth_make("gauss_blobs", 10, 3, 1, 28, 28, seed=2, task="multilabel")
        labels = data.splits["val"].labels.copy()
        labels[:, single_valued] = 0
        data.splits["val"] = Split(data.splits["val"].images, labels)
        cfg = TrainConfig(epochs_pretrain=1, epochs_inmerge=0)
        with caplog.at_level("DEBUG"):
            if len(single_valued) == 3:
                with pytest.raises(DataError, match="val split cannot be scored"):
                    training.check_run(self.ARCH, data, cfg)
            else:
                training.check_run(self.ARCH, data, cfg)
            assert caplog.records == []
            if len(single_valued) == 1:  # scoring the split warns, once per call
                evaluate(build_model(self.ARCH, 0), data, "val")
                assert [r.getMessage() for r in caplog.records] == [
                    "val split: class 1 has one label value; AUROC undefined"
                ]


class TestProtocol:
    def test_bookkeeping_2_plus_1(self):
        data = small_data()
        cfg = TrainConfig(
            epochs_pretrain=2, epochs_inmerge=1, batch_size=16, seed=5,
            merge=MergeConfig(skip_layers=3, seed=5),
        )
        result = run_protocol(TINY, data, cfg)
        log = result.log
        assert len(log.records) == 3
        assert [r.phase for r in log.records] == ["pretrain", "pretrain", "inmerge"]
        assert log.records[2].merge_sweeps > 0
        assert log.best_epoch in (0, 1, 2)
        assert log.records[log.best_epoch].val_metric == log.best_metric
        winners = [r for r in log.records if r.is_best]
        assert winners and winners[-1].epoch == log.best_epoch

    def test_epochs_inmerge_zero_is_plain_baseline(self):
        data = small_data()
        cfg = TrainConfig(
            epochs_pretrain=2, epochs_inmerge=0, batch_size=16, seed=6,
            merge=MergeConfig(seed=6),
        )
        result = run_protocol(TINY, data, cfg)
        assert all(r.phase == "pretrain" for r in result.log.records)
        assert all(r.merge_sweeps == 0 for r in result.log.records)

    def test_two_runs_identical_logs(self):
        data = small_data()
        cfg = TrainConfig(
            epochs_pretrain=1, epochs_inmerge=1, batch_size=16, seed=7,
            merge=MergeConfig(skip_layers=2, seed=7),
        )
        log_a = run_protocol(TINY, data, cfg).log
        log_b = run_protocol(TINY, data, cfg).log
        assert [r.to_record() for r in log_a.records] == [r.to_record() for r in log_b.records]

    def test_baseline_equivalence_p_zero(self):
        data = small_data()
        base = TrainConfig(epochs_pretrain=1, epochs_inmerge=1, batch_size=16, seed=8)
        with_merge = TrainConfig(
            epochs_pretrain=1, epochs_inmerge=1, batch_size=16, seed=8,
            merge=MergeConfig(merge_prob=0.0, seed=8),
        )
        res_a = run_protocol(TINY, data, base)
        res_b = run_protocol(TINY, data, with_merge)
        assert params_equal(res_a.model.params, res_b.model.params)
        assert params_equal(res_a.best_model.params, res_b.best_model.params)

    def test_empty_dataset_rejected(self):
        data = small_data()
        empty = DatasetHandle(
            task="multiclass", num_classes=4, channels=1, height=28, width=28,
            splits={
                "train": Split(
                    np.zeros((0, 1, 28, 28), np.uint8), np.zeros(0, np.int64)
                ),
                "val": data.splits["val"],
                "test": data.splits["test"],
            },
            mean=(0.5,), std=(0.5,),
        )
        with pytest.raises(DataError):
            run_protocol(TINY, empty, TrainConfig(seed=0))


class TestWholeStackRegressions:
    def test_memorizes_32_samples_within_200_epochs(self):
        data = small_data(seed=12)
        tr = data.splits["train"]
        sub = Split(tr.images[:32].copy(), tr.labels[:32].copy())
        mini = DatasetHandle(
            task="multiclass", num_classes=4, channels=1, height=28, width=28,
            splits={"train": sub, "val": sub, "test": sub},
            mean=(0.5,), std=(0.5,),
        )
        cfg = TrainConfig(epochs_pretrain=200, epochs_inmerge=0, batch_size=32, seed=1)
        model = build_model(TINY, cfg.seed)
        vel = {k: np.zeros_like(v) for k, v in model.params.items()}
        reached = None
        for epoch in range(200):
            stats = train_epoch(model, mini, cfg, "pretrain", epoch, vel)
            if stats.train_loss < 0.05:
                reached = epoch
                break
        assert reached is not None, "loss never fell below 0.05 in 200 epochs"

    def test_two_orientation_stripes_reach_95_percent(self):
        data = synth_make("striped_textures", 150, 2, 1, 28, 28, seed=5)
        arch = ArchConfig(input_shape=(1, 28, 28), num_classes=2, preset="tiny_cnn")
        cfg = TrainConfig(epochs_pretrain=4, epochs_inmerge=0, batch_size=32, seed=5)
        result = run_protocol(arch, data, cfg)
        assert result.log.best_metric > 0.95
