"""Command-line surface: train, evaluate, analyze kernels, run ablations.

Commands:

    inmerge train   --config run.json [--out DIR]
    inmerge eval    --checkpoint PATH --data DIR --split {train,val,test} [--out DIR]
    inmerge analyze --checkpoint PATH --layer N [--out DIR]
    inmerge ablate  --config run.json --axis NAME --values CSV --seeds CSV --out DIR

Exit codes: 0 success, 2 config error, 3 data error (including a path
that cannot be read), 4 numeric failure.

A run config (``RunDoc``) is a JSON object with the keys "arch"
(ArchConfig fields; "layers" is a list of LayerSpec fields), "data"
({"dir": dataset directory}), "train" (TrainConfig fields; "merge" is
a MergeConfig), an optional "merge" that replaces "train.merge", and
"output" (a directory). A merge config without a "seed" takes the train
seed. Absent keys take the field defaults. Unknown keys, wrong JSON
types and out-of-range values exit 2, naming the key path (``configio``).

Every content-bearing artifact is deterministic: re-running a command
with the same config yields byte-identical files. Wall-clock timing goes
to a separate ``run_meta.json`` that is excluded from that guarantee.
``INMERGE_THREADS`` caps ablation worker parallelism (default 1). Every
layer already spreads its batch over the cores (``layers.ShardPool``);
ablation threads share that one pool, so ``INMERGE_THREADS`` > 1 shares
the same cores rather than adding any.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .configio import decode
from .data import DatasetHandle, load_dataset
from .errors import CheckpointError, ConfigError, DataError, InmergeError, NumericError
from .merging import MergeConfig, similarity_stats
from .metrics import roc_points
from .model import ArchConfig
from .tensor import log_softmax, sigmoid
from .training import (
    ProtocolResult,
    TrainConfig,
    TrainState,
    evaluate,
    predict_logits,
    run_protocol,
    val_metric_of,
)

# --axis token -> MergeConfig field
ABLATE_AXES = {
    "alpha": "alpha",
    "p": "merge_prob",
    "tau": "sim_threshold",
    "l_s": "skip_layers",
    "sim_inverted": "invert_gate",
}


@dataclass(frozen=True)
class DataSection:
    dir: str


@dataclass(frozen=True)
class RunDoc:
    """A run config; see the module docstring."""

    arch: ArchConfig
    data: DataSection
    train: TrainConfig
    output: str
    merge: MergeConfig | None = None


def load_run_config(path: str | Path) -> RunDoc:
    """The run config at ``path``, with "merge" folded into "train"."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    blob = path.read_bytes()
    # an absent merge seed is the train seed, which is known once the document is typed
    seed = decode(RunDoc, blob, ConfigError, str(path)).train.seed
    doc = decode(RunDoc, blob, ConfigError, str(path), defaults={MergeConfig: {"seed": seed}})
    train = doc.train if doc.merge is None else replace(doc.train, merge=doc.merge)
    return replace(doc, train=train, merge=None)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_run_artifacts(out_dir: Path, result: ProtocolResult, echo: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_echo.json").write_text(_dump_json(echo))
    with open(out_dir / "train_log.jsonl", "w") as fh:
        for rec in result.log.records:
            fh.write(json.dumps(rec.to_record(), sort_keys=True) + "\n")
    with open(out_dir / "merge_reports.jsonl", "w") as fh:
        for rec in result.sweep_records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _save_best_checkpoint(result: ProtocolResult, arch, cfg, path: Path) -> None:
    # Evaluation/analysis artifact: best-epoch weights with a fresh
    # optimizer state. Resume from it is not meaningful; use last/final.
    state = TrainState(
        epochs_done=cfg.total_epochs,
        velocity={k: np.zeros_like(v) for k, v in result.best_model.params.items()},
        best_epoch=result.log.best_epoch,
        best_metric=result.log.best_metric,
        best_params=None,
        records=list(result.log.records),
    )
    checkpoint.save(result.best_model, state, (arch, cfg), path)


def _run_cell(arch, handle, cfg, out_dir: Path, data_dir: Path) -> ProtocolResult:
    """Train once and write the full artifact set into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_protocol(arch, handle, cfg, checkpoint_path=out_dir / "last.ckpt")
    echo = {"arch": asdict(arch), "data": {"dir": str(data_dir)}, "train": asdict(cfg)}
    _write_run_artifacts(out_dir, result, echo)
    shutil.copyfile(out_dir / "last.ckpt", out_dir / "final.ckpt")
    _save_best_checkpoint(result, arch, cfg, out_dir / "best.ckpt")
    return result


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    out_dir = Path(args.out or rc.output)
    handle = load_dataset(rc.data.dir)
    started = time.time()
    result = _run_cell(rc.arch, handle, rc.train, out_dir, Path(rc.data.dir))
    (out_dir / "run_meta.json").write_text(
        _dump_json({"started_unix": started, "duration_s": time.time() - started})
    )
    tag = "inmerge" if rc.train.merge is not None else "baseline"
    print(
        f"{tag} run complete: {rc.train.total_epochs} epochs, "
        f"best val metric {result.log.best_metric:.6f} at epoch {result.log.best_epoch}; "
        f"artifacts in {out_dir}"
    )
    return 0


def cmd_eval(args) -> int:
    model, _, _ = checkpoint.load(args.checkpoint)
    handle = load_dataset(args.data)
    bundle = evaluate(model, handle, args.split)
    print(_dump_json(bundle.to_record()), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(_dump_json(bundle.to_record()))
        _write_roc_csvs(model, handle, args.split, out_dir)
    return 0


def _write_roc_csvs(model, handle: DatasetHandle, split_name: str, out_dir: Path) -> None:
    split = handle.splits[split_name]
    logits = predict_logits(model, split, handle)
    logits = logits.astype(np.float64)
    if handle.task == "multilabel":
        scores = sigmoid(logits)
        onehot = split.labels
    else:
        scores = np.exp(log_softmax(logits))
        onehot = (split.labels[:, None] == np.arange(handle.num_classes)[None, :]).astype(np.uint8)
    for k in range(handle.num_classes):
        labels = onehot[:, k]
        if labels.min() == labels.max():
            continue  # single-class: no curve
        rows = roc_points(scores[:, k], labels)
        with open(out_dir / f"roc_class{k}.csv", "w") as fh:
            fh.write("threshold,fpr,tpr\n")
            for t, fpr, tpr in rows.tolist():
                fh.write(f"{t!r},{fpr!r},{tpr!r}\n")


def cmd_analyze(args) -> int:
    model, _, _ = checkpoint.load(args.checkpoint)
    stats = similarity_stats(model, args.layer)
    pair_lines = ["i,j,sim", *(f"{i},{j},{s!r}" for i, j, s in stats.pairs)]
    print("\n".join(pair_lines))
    hist_lines = [
        f"# layer {stats.ordinal}: {stats.count} pairs, "
        f"min {stats.minimum} max {stats.maximum} mean {stats.mean}",
        f"# zero-norm kernels: {stats.zero_norm_kernels}",
    ]
    for count, lo, hi in zip(stats.histogram, stats.bin_edges[:-1], stats.bin_edges[1:]):
        hist_lines.append(f"# [{lo:+.2f}, {hi:+.2f}): {count}")
    print("\n".join(hist_lines), file=sys.stderr)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "pairs.csv", "w") as fh:
            fh.write("\n".join(pair_lines) + "\n")
        with open(out_dir / "histogram.csv", "w") as fh:
            fh.write("bin_lo,bin_hi,count\n")
            for count, lo, hi in zip(stats.histogram, stats.bin_edges[:-1], stats.bin_edges[1:]):
                fh.write(f"{lo!r},{hi!r},{count}\n")
    return 0


def _parse_values(axis: str, text: str) -> list:
    def boolish(tok: str) -> bool:
        low = tok.strip().lower()
        if low in ("1", "true"):
            return True
        if low in ("0", "false"):
            return False
        raise ConfigError(f"sim_inverted values must be 0/1/true/false, got {tok!r}")

    tokens = [t for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    try:
        if axis in ("alpha", "p", "tau"):
            values = [float(t) for t in tokens]
        elif axis == "l_s":
            values = [int(t) for t in tokens]
        else:
            values = [boolish(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None
    for v in values:
        probe = replace(MergeConfig(), **{ABLATE_AXES[axis]: v})
        probe.validate()
    return values


def _worker_count() -> int:
    raw = os.environ.get("INMERGE_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"INMERGE_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"INMERGE_THREADS must be >= 1, got {n}")
    return n


def cmd_ablate(args) -> int:
    if args.axis not in ABLATE_AXES:
        raise ConfigError(f"--axis must be one of {sorted(ABLATE_AXES)}, got {args.axis!r}")
    values = _parse_values(args.axis, args.values)
    try:
        seeds = [int(t) for t in args.seeds.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds: {exc}") from None
    if not seeds or any(s < 0 for s in seeds):
        raise ConfigError("--seeds must list non-negative integers")
    for flag, items in (("--values", values), ("--seeds", seeds)):
        if len(set(items)) < len(items):
            raise ConfigError(f"{flag} lists a value more than once")

    rc = load_run_config(args.config)
    handle = load_dataset(rc.data.dir)
    for name, split in handle.splits.items():  # each cell trains on train and val, then tests
        if len(split) == 0:
            raise DataError(f"{name} split is empty")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    base_merge = rc.train.merge if rc.train.merge is not None else MergeConfig()
    field = ABLATE_AXES[args.axis]

    def cell_cfg(value, seed: int) -> TrainConfig:
        merge = replace(base_merge, seed=seed, **{field: value})
        return replace(rc.train, seed=seed, merge=merge)

    jobs = [(value, seed) for value in values for seed in seeds]

    def run_one(job):
        value, seed = job
        cell_dir = out_dir / f"{args.axis}_{value}" / f"seed_{seed}"
        result = _run_cell(rc.arch, handle, cell_cfg(value, seed), cell_dir, Path(rc.data.dir))
        test_bundle = evaluate(result.best_model, handle, "test")
        return job, val_metric_of(test_bundle, handle.task)

    workers = min(_worker_count(), len(jobs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = dict(pool.map(run_one, jobs))
    else:
        outcomes = dict(map(run_one, jobs))

    metric_name = "accuracy" if handle.task == "multiclass" else "mean_auroc"
    with open(out_dir / "cells.csv", "w") as fh:
        fh.write(f"axis,value,seed,test_{metric_name}\n")
        for value in values:
            for seed in seeds:
                fh.write(f"{args.axis},{value},{seed},{outcomes[(value, seed)]!r}\n")
    lines = [f"axis,value,n_seeds,test_{metric_name}_mean,test_{metric_name}_std"]
    for value in values:
        cell = [outcomes[(value, seed)] for seed in seeds]
        mean = float(np.mean(cell))
        std = float(np.std(cell, ddof=1)) if len(cell) > 1 else 0.0
        lines.append(f"{args.axis},{value},{len(cell)},{mean!r},{std!r}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inmerge",
        description="Train and analyze CNNs with in-model kernel merging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the pretrain + merge-finetune protocol")
    p_train.add_argument("--config", required=True, help="run config JSON")
    p_train.add_argument("--out", default=None, help="override the config's output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--split", default="test", choices=("train", "val", "test"))
    p_eval.add_argument("--out", default=None, help="also write metrics + ROC point CSVs here")
    p_eval.set_defaults(func=cmd_eval)

    p_an = sub.add_parser("analyze", help="dump pairwise kernel similarities of a conv layer")
    p_an.add_argument("--checkpoint", required=True)
    p_an.add_argument("--layer", required=True, type=int, help="conv layer ordinal")
    p_an.add_argument("--out", default=None, help="also write pairs.csv/histogram.csv here")
    p_an.set_defaults(func=cmd_analyze)

    p_ab = sub.add_parser("ablate", help="grid of runs over one merge hyperparameter")
    p_ab.add_argument("--config", required=True, help="base run config JSON")
    p_ab.add_argument("--axis", required=True, help=f"one of {sorted(ABLATE_AXES)}")
    p_ab.add_argument("--values", required=True, help="comma-separated values for the axis")
    p_ab.add_argument("--seeds", required=True, help="comma-separated run seeds")
    p_ab.add_argument("--out", required=True, help="grid output directory")
    p_ab.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except InmergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
