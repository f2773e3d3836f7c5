"""SGD training loop, two-phase merge protocol, and evaluation.

The protocol is: ``epochs_pretrain`` standard epochs, then
``epochs_inmerge`` epochs in which a merge sweep runs at the start of
every iteration, before the forward pass, so the merged weights are the
ones the step trains. The learning-rate schedule runs over the combined
epoch count. Validation happens every epoch; the earliest epoch with the
strictly best validation metric is kept as the "best" model. Evaluation
never merges and never mutates.

``check_run`` is the one rule for whether a run may start: a fresh run
(``start_protocol``), a resumed one (``resume_protocol``) and every cell
of an ablation grid (``cli``) pass it before their first epoch.

Randomness per epoch comes from separate (seed, purpose, epoch) streams
(``seeding``), so a run resumed from an epoch-boundary checkpoint is
bit-identical to an uninterrupted one, ``merge_reports.jsonl`` included,
and turning merging on or off cannot perturb shuffling or augmentation.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass, field, fields

import numpy as np

from . import seeding
from .data import DatasetHandle, Split, apply_flip, batch_iter, normalize
from .errors import ConfigError, DataError, NumericError, ShapeError, UndefinedMetricError
from .layers import sigmoid_bce_loss, softmax_ce_loss
from .merging import MergeConfig, MergeReport, inmerge_sweep
from .metrics import MetricBundle, accuracy, mean_auroc, per_class_auroc
from .model import ArchConfig, Model, build_model, resolve_layers
from .tensor import sigmoid

logger = logging.getLogger(__name__)

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
    sweeps: list[MergeReport] = field(default_factory=list)  # this epoch's; none in older files

    def to_record(self) -> dict:  # the train_log.jsonl line
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "sweeps"}


@dataclass
class EpochStats:
    train_loss: float
    iterations: int
    sweep_reports: list[MergeReport] = field(default_factory=list)

    @property
    def sweeps(self) -> int:
        return len(self.sweep_reports)


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


def check_head(arch: ArchConfig, data: DatasetHandle) -> None:
    """Raise ConfigError unless the model's head and input shape fit the
    dataset's task, class count and (channels, height, width)."""
    if arch.head != data.task or arch.num_classes != data.num_classes:
        raise ConfigError(
            f"model head {arch.head}/{arch.num_classes} does not match "
            f"dataset {data.task}/{data.num_classes}"
        )
    model_shape, data_shape = tuple(arch.input_shape), (data.channels, data.height, data.width)
    if model_shape != data_shape:
        raise ConfigError(
            f"model input shape {model_shape} does not match dataset images {data_shape}"
        )


def check_run(arch: ArchConfig, data: DatasetHandle, cfg: TrainConfig, scored=("val",)) -> None:
    """The rule for starting a run: raise ConfigError unless both configs are
    valid, the model's layers chain (``resolve_layers``), it fits the dataset
    (``check_head``) and has a conv layer when ``cfg`` has merge epochs; raise
    DataError unless ``check_split`` passes the train and ``scored`` splits."""
    cfg.validate()
    layers = resolve_layers(arch)
    check_head(arch, data)
    if cfg.merge is not None and cfg.epochs_inmerge > 0:
        if all(spec.kind != "conv2d" for spec in layers):
            raise ConfigError("merging needs a conv layer, but the model has none")
    for name in ("train", *scored):
        check_split(data, name, scored=name in scored)


def check_split(data: DatasetHandle, name: str, scored: bool = True) -> None:
    """Raise DataError if split ``name`` is empty or, when ``scored``, has no
    metric: a multilabel split needs a class with a defined AUROC."""
    labels = data.splits[name].labels
    if len(labels) == 0:
        raise DataError(f"{name} split is empty")
    if scored and data.task == "multilabel":
        try:  # labels as scores: a class has an AUROC iff it has both label values
            mean_auroc(per_class_auroc(labels, labels)[0])
        except UndefinedMetricError as exc:
            raise DataError(f"{name} split cannot be scored: {exc}") from None


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
    check_head(model.arch, data)
    check_split(data, "train", scored=False)
    split = data.splits["train"]
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
        try:
            logits, caches = model.forward(xb, want_caches=True)
            loss, grad = _batch_loss(model, logits, y)
            if not np.isfinite(loss):
                raise NumericError("non-finite loss")
            grads = model.backward(grad, caches)
        except NumericError as exc:
            raise NumericError(f"epoch {epoch} batch {b_idx}: {exc}") from None
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
    return evaluate_with_logits(model, data, split_name)[0]


def evaluate_with_logits(model: Model, data: DatasetHandle, split_name: str = "val"):
    """``evaluate`` and the split's logits it was computed from."""
    check_head(model.arch, data)
    if split_name not in data.splits:
        raise ConfigError(f"unknown split {split_name!r}")
    check_split(data, split_name)
    split = data.splits[split_name]
    logits = predict_logits(model, split, data)
    loss, _ = _batch_loss(model, logits, split.labels)
    bundle = MetricBundle(n_samples=len(split), loss=loss)
    if model.head == "multiclass":
        bundle.accuracy = accuracy(logits.argmax(axis=1), split.labels)
    else:
        scores = sigmoid(logits)
        values, absent = per_class_auroc(scores, split.labels)
        for k in absent:
            logger.warning("%s split: class %d has one label value; AUROC undefined", split_name, k)
        bundle.per_class_auroc = values
        bundle.absent_classes = absent
        bundle.mean_auroc = mean_auroc(values)
    return bundle, logits


def predict_logits(model: Model, split: Split, data: DatasetHandle) -> np.ndarray:
    """Forward the whole split in fixed-size batches (no augmentation)."""
    outputs = []
    for ids in batch_iter(split, EVAL_BATCH, rng=None):
        outputs.append(model.forward(normalize(split.images[ids], data.mean, data.std)))
    return np.concatenate(outputs, axis=0)


def metric_name(task: str) -> str:  # the MetricBundle field that scores a task's runs
    return "accuracy" if task == "multiclass" else "mean_auroc"


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
    """A run's final and best-epoch models and its ``TrainState``, sweeps included, as ``log``."""

    model: Model  # final weights, all epochs applied
    best_model: Model  # weights of the best-validation epoch
    log: TrainState  # records, best epoch and metric, as the last epoch left them

    @property
    def sweep_records(self) -> list[dict]:  # merge_reports.jsonl, epochs before a resume too
        return [{"epoch": rec.epoch, "iteration": i, **rep.to_record()}
                for rec in self.log.records for i, rep in enumerate(rec.sweeps)]


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
    model, state = start_protocol(arch, data, cfg)
    return _advance(model, data, cfg, state, checkpoint_path, max_epochs)


def start_protocol(arch: ArchConfig, data: DatasetHandle, cfg: TrainConfig):
    """``check_run``, then the fresh (model, TrainState) a run starts from."""
    check_run(arch, data, cfg)
    model = build_model(arch, cfg.seed)
    state = TrainState(
        epochs_done=0,
        velocity={k: np.zeros_like(v) for k, v in model.params.items()},
    )
    return model, state


def resume_protocol(
    checkpoint_path, data: DatasetHandle, max_epochs: int | None = None
) -> ProtocolResult:
    """Continue a checkpointed run to completion, saving to the same
    checkpoint after every epoch; bit-identical to the run that was never
    interrupted."""
    from .checkpoint import load  # local import to avoid a cycle

    model, state, (_, cfg) = load(checkpoint_path)
    check_run(model.arch, data, cfg)
    return _advance(model, data, cfg, state, checkpoint_path, max_epochs)


def _advance(model, data, cfg, state, checkpoint_path, max_epochs) -> ProtocolResult:
    from .checkpoint import save  # local import to avoid a cycle

    stop = cfg.total_epochs
    if max_epochs is not None:
        stop = min(stop, state.epochs_done + max_epochs)
    for epoch in range(state.epochs_done, stop):
        phase = "pretrain" if epoch < cfg.epochs_pretrain else "inmerge"
        stats = train_epoch(model, data, cfg, phase, epoch, state.velocity)
        bundle = evaluate(model, data, "val")
        metric = getattr(bundle, metric_name(data.task))
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
                merge_draws=sum(r.draws for r in stats.sweep_reports),
                merge_applied=sum(r.merges_applied for r in stats.sweep_reports),
                is_best=is_best,
                sweeps=stats.sweep_reports,
            )
        )
        state.epochs_done = epoch + 1
        if checkpoint_path is not None:
            save(model, state, (model.arch, cfg), checkpoint_path)
    best_model = model.clone()
    if state.best_params is not None:
        for k, v in state.best_params.items():
            best_model.params[k][...] = v
    return ProtocolResult(model=model, best_model=best_model, log=state)
