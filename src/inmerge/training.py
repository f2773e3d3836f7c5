"""SGD training loop, two-phase merge protocol, and evaluation.

The protocol is: ``epochs_pretrain`` standard epochs, then
``epochs_inmerge`` epochs in which a merge sweep runs at the start of
every iteration, before the forward pass, so the merged weights are the
ones the step trains. The learning-rate schedule runs over the combined
epoch count. Validation happens every epoch; the earliest epoch with the
strictly best validation metric is kept as the "best" model. Evaluation
never merges and never mutates.

Randomness per epoch comes from separate (seed, purpose, epoch) streams
(see ``seeding``), so a run resumed from an epoch-boundary checkpoint is
bit-identical to an uninterrupted one, and turning merging on or off
cannot perturb shuffling or augmentation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from . import seeding
from .data import DatasetHandle, Split, apply_flip, batch_iter, normalize
from .errors import ConfigError, DataError, NumericError, ShapeError
from .layers import sigmoid_bce_loss, softmax_ce_loss
from .merging import MergeConfig, MergeReport, inmerge_sweep
from .metrics import MetricBundle, accuracy, mean_auroc, per_class_auroc
from .model import ArchConfig, Model, build_model
from .tensor import sigmoid

PHASES = ("pretrain", "inmerge")
EVAL_BATCH = 256  # fixed so metrics reproduce bit-exactly in any context


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    milestones: tuple[int, ...] | None = None  # None: (floor(0.75 * total),)
    gamma: float = 0.1
    batch_size: int = 128
    epochs_pretrain: int = 20
    epochs_inmerge: int = 5
    seed: int = 0
    augment: bool = False
    merge: MergeConfig | None = None

    @property
    def total_epochs(self) -> int:
        return self.epochs_pretrain + self.epochs_inmerge

    def resolved_milestones(self) -> tuple[int, ...]:
        if self.milestones is not None:
            return self.milestones
        return (int(0.75 * self.total_epochs),)

    def validate(self) -> None:
        if self.lr0 <= 0:
            raise ConfigError(f"lr0 must be > 0, got {self.lr0}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs_pretrain < 0 or self.epochs_inmerge < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.total_epochs == 0:
            raise ConfigError("epochs_pretrain + epochs_inmerge must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        ms = self.resolved_milestones()
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if self.merge is not None:
            self.merge.validate()


@dataclass
class EpochRecord:
    epoch: int
    phase: str
    lr: float
    train_loss: float
    val_loss: float
    val_metric: float
    merge_sweeps: int
    merge_draws: int
    merge_applied: int
    is_best: bool

    def to_record(self) -> dict:
        return asdict(self)


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    best_metric: float | None = None


@dataclass
class EpochStats:
    train_loss: float
    iterations: int
    sweep_reports: list[MergeReport] = field(default_factory=list)

    @property
    def sweeps(self) -> int:
        return len(self.sweep_reports)

    @property
    def merge_draws(self) -> int:
        return sum(r.draws for r in self.sweep_reports)

    @property
    def merge_applied(self) -> int:
        return sum(r.merges_applied for r in self.sweep_reports)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Multi-step schedule: lr0 * gamma^(milestones passed at ``epoch``)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.gamma ** bisect_right(cfg.resolved_milestones(), epoch)


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """Classic momentum SGD, decay coupled into the gradient, in place:
    g' = g + wd * p;  v = momentum * v + g';  p -= lr * v."""
    for name, p in params.items():
        g, v = grads[name], velocity[name]
        if g.shape != p.shape or v.shape != p.shape:
            raise ShapeError(f"sgd_step({name}): shape mismatch")
        if weight_decay:
            g = g + np.float32(weight_decay) * p
        v *= np.float32(momentum)
        v += g
        p -= np.float32(lr) * v


def _batch_loss(model: Model, logits: np.ndarray, labels: np.ndarray):
    if model.head == "multiclass":
        return softmax_ce_loss(logits, labels)
    return sigmoid_bce_loss(logits, labels)


def _check_head(arch: ArchConfig, data: DatasetHandle) -> None:
    if arch.head != data.task or arch.num_classes != data.num_classes:
        raise ConfigError(
            f"model head {arch.head}/{arch.num_classes} does not match "
            f"dataset {data.task}/{data.num_classes}"
        )


def train_epoch(
    model: Model,
    data: DatasetHandle,
    cfg: TrainConfig,
    phase: str,
    epoch: int,
    velocity: dict[str, np.ndarray],
) -> EpochStats:
    """One pass over the train split. In the inmerge phase (and only
    there, with a merge config present) a sweep precedes every forward
    pass. Shuffle/augment/merge randomness derives from the configured
    seeds plus the epoch index."""
    if phase not in PHASES:
        raise ConfigError(f"phase must be one of {PHASES}, got {phase!r}")
    _check_head(model.arch, data)
    split = data.splits["train"]
    if len(split) == 0:
        raise DataError("train split is empty")
    lr = lr_at(epoch, cfg)
    shuffle_rng = seeding.stream(cfg.seed, seeding.SHUFFLE, epoch)
    flip_u = (
        seeding.stream(cfg.seed, seeding.AUGMENT, epoch).random(len(split))
        if cfg.augment
        else None
    )
    merge_rng = None
    if phase == "inmerge" and cfg.merge is not None:
        merge_rng = seeding.stream(cfg.merge.seed, seeding.MERGE, epoch)

    loss_sum = 0.0
    count = 0
    iterations = 0
    reports: list[MergeReport] = []
    for b_idx, ids in enumerate(batch_iter(split, cfg.batch_size, rng=shuffle_rng)):
        x = split.images[ids]
        if flip_u is not None:
            # decision keyed by sample id, not batch position
            x = apply_flip(x, flip_u[ids] < 0.5)
        xb = normalize(x, data.mean, data.std)
        y = split.labels[ids]
        if merge_rng is not None:
            reports.append(inmerge_sweep(model, cfg.merge, merge_rng))
        logits, caches = model.forward(xb, want_caches=True)
        try:
            loss, grad = _batch_loss(model, logits, y)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} batch {b_idx}: {exc}") from None
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch} batch {b_idx}")
        grads = model.backward(grad, caches)
        sgd_step(model.params, grads, velocity, lr, cfg.momentum, cfg.weight_decay)
        # free this batch's arrays before the next batch's forward pass
        del x, xb, logits, caches, grad, grads
        loss_sum += loss * len(ids)
        count += len(ids)
        iterations += 1
    return EpochStats(train_loss=loss_sum / count, iterations=iterations, sweep_reports=reports)


def evaluate(model: Model, data: DatasetHandle, split_name: str = "val") -> MetricBundle:
    """Inference-only metrics on a split; the model is never mutated.

    Multiclass: loss + accuracy. Multilabel: loss + per-class AUROC and
    their mean over the classes where it is defined.
    """
    _check_head(model.arch, data)
    if split_name not in data.splits:
        raise ConfigError(f"unknown split {split_name!r}")
    split = data.splits[split_name]
    if len(split) == 0:
        raise DataError(f"{split_name} split is empty")
    logits = predict_logits(model, split, data)
    loss, _ = _batch_loss(model, logits, split.labels)
    bundle = MetricBundle(n_samples=len(split), loss=loss)
    if model.head == "multiclass":
        bundle.accuracy = accuracy(logits.argmax(axis=1), split.labels)
    else:
        scores = sigmoid(logits)
        values, absent = per_class_auroc(scores, split.labels)
        bundle.per_class_auroc = values
        bundle.absent_classes = absent
        bundle.mean_auroc = mean_auroc(values)
    return bundle


def predict_logits(model: Model, split: Split, data: DatasetHandle) -> np.ndarray:
    """Forward the whole split in fixed-size batches (no augmentation)."""
    outputs = []
    for ids in batch_iter(split, EVAL_BATCH, rng=None):
        outputs.append(model.forward(normalize(split.images[ids], data.mean, data.std)))
    return np.concatenate(outputs, axis=0)


def val_metric_of(bundle: MetricBundle, task: str) -> float:
    return bundle.accuracy if task == "multiclass" else bundle.mean_auroc


@dataclass
class TrainState:
    """Everything needed to continue a run from an epoch boundary."""

    epochs_done: int
    velocity: dict[str, np.ndarray]
    best_epoch: int = -1
    best_metric: float | None = None
    best_params: dict[str, np.ndarray] | None = None
    records: list[EpochRecord] = field(default_factory=list)


@dataclass
class ProtocolResult:
    model: Model  # final weights, all epochs applied
    best_model: Model  # weights of the best-validation epoch
    log: TrainLog
    # one record per sweep executed by THIS call (not carried across resume)
    sweep_records: list[dict] = field(default_factory=list)


def run_protocol(
    arch: ArchConfig,
    data: DatasetHandle,
    cfg: TrainConfig,
    checkpoint_path=None,
    max_epochs: int | None = None,
) -> ProtocolResult:
    """Pretrain + merge-finetune protocol from scratch.

    With ``checkpoint_path`` the full state is saved there after every
    epoch, enabling ``resume_protocol``. ``max_epochs`` caps how many
    epochs this call executes (for budgeted or deliberately interrupted
    runs); the returned result then reflects the partial run.
    """
    cfg.validate()
    arch.validate()
    _check_head(arch, data)
    if any(len(data.splits[s]) == 0 for s in ("train", "val")):
        raise DataError("train and val splits must be non-empty")
    model = build_model(arch, cfg.seed)
    state = TrainState(
        epochs_done=0,
        velocity={k: np.zeros_like(v) for k, v in model.params.items()},
    )
    return _advance(model, data, arch, cfg, state, checkpoint_path, max_epochs)


def resume_protocol(
    checkpoint_path, data: DatasetHandle, max_epochs: int | None = None
) -> ProtocolResult:
    """Continue a checkpointed run to completion, saving to the same
    checkpoint after every epoch; bit-identical to the run that was never
    interrupted."""
    from .checkpoint import load  # local import to avoid a cycle

    model, state, (arch, cfg) = load(checkpoint_path)
    return _advance(model, data, arch, cfg, state, checkpoint_path, max_epochs)


def _advance(model, data, arch, cfg, state, checkpoint_path, max_epochs) -> ProtocolResult:
    from .checkpoint import save  # local import to avoid a cycle

    stop = cfg.total_epochs
    if max_epochs is not None:
        stop = min(stop, state.epochs_done + max_epochs)
    sweep_records: list[dict] = []
    for epoch in range(state.epochs_done, stop):
        phase = "pretrain" if epoch < cfg.epochs_pretrain else "inmerge"
        stats = train_epoch(model, data, cfg, phase, epoch, state.velocity)
        for it, rep in enumerate(stats.sweep_reports):
            sweep_records.append({"epoch": epoch, "iteration": it, **rep.to_record()})
        bundle = evaluate(model, data, "val")
        metric = val_metric_of(bundle, data.task)
        is_best = state.best_metric is None or metric > state.best_metric
        if is_best:
            state.best_metric = metric
            state.best_epoch = epoch
            state.best_params = {k: v.copy() for k, v in model.params.items()}
        state.records.append(
            EpochRecord(
                epoch=epoch,
                phase=phase,
                lr=lr_at(epoch, cfg),
                train_loss=stats.train_loss,
                val_loss=bundle.loss,
                val_metric=metric,
                merge_sweeps=stats.sweeps,
                merge_draws=stats.merge_draws,
                merge_applied=stats.merge_applied,
                is_best=is_best,
            )
        )
        state.epochs_done = epoch + 1
        if checkpoint_path is not None:
            save(model, state, (arch, cfg), checkpoint_path)
    best_model = model.clone()
    if state.best_params is not None:
        for k, v in state.best_params.items():
            best_model.params[k][...] = v
    log = TrainLog(
        records=list(state.records),
        best_epoch=state.best_epoch,
        best_metric=state.best_metric,
    )
    return ProtocolResult(
        model=model, best_model=best_model, log=log, sweep_records=sweep_records
    )
