"""Command-line surface: train, evaluate, analyze kernels, run ablations.

Commands:

    inmerge train   --config run.json [--out DIR]
    inmerge eval    --checkpoint PATH --data DIR --split {train,val,test} [--out DIR]
    inmerge analyze --checkpoint PATH --layer N [--out DIR]
    inmerge ablate  --config run.json --axis NAME --values CSV --seeds CSV --out DIR

Exit codes: 0 success, 2 config error (a ``ConfigError``), 3 data error
(a ``DataError``, a ``CheckpointError`` or a path that cannot be read), 4
numeric failure (a ``NumericError``); every engine error is one of these.

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
A ``train`` run or ``ablate`` cell whose merge sweeps drew kernels but
merged none logs one warning to stderr (``logging``), naming tau and the
range of pair similarities of each layer the sweeps touch; stdout and
files stay as they are.

``ablate`` passes every cell's config through ``training.check_run``,
test split included, before it creates ``--out``. It trains each seed's
pretrain epochs once, since no merge setting touches them; each value's
cell continues from its own copy and writes what ``train`` on the cell's
config would. Seeds run one after another, each seed's cells in turn;
every layer spreads its batch over the cores (``layers.ShardPool``).
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import shutil
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import checkpoint
from .configio import decode
from .data import DatasetHandle, load_dataset
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .merging import MergeConfig, similarity_stats
from .metrics import roc_points
from .model import ArchConfig
from .tensor import log_softmax, sigmoid
from .training import (
    ProtocolResult,
    TrainConfig,
    _advance,
    check_run,
    evaluate,
    evaluate_with_logits,
    metric_name,
    start_protocol,
)

logger = logging.getLogger(__name__)

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


def _run_cell(start, handle, cfg, out_dir: Path, data_dir: Path) -> ProtocolResult:
    """Continue ``start`` (model, TrainState) under ``cfg``; write every artifact
    into ``out_dir``. ``best.ckpt`` has zero velocity: evaluate it, resume from last."""
    model, state = start
    ckpt = out_dir / "last.ckpt"
    if state.epochs_done == cfg.total_epochs:  # no epoch left to save this config
        checkpoint.save(model, state, (model.arch, cfg), ckpt)
    result = _advance(model, handle, cfg, state, ckpt, None)
    echo = {"arch": asdict(model.arch), "data": {"dir": str(data_dir)}, "train": asdict(cfg)}
    _write_run_artifacts(out_dir, result, echo)
    shutil.copyfile(out_dir / "last.ckpt", out_dir / "final.ckpt")
    velocity = {k: np.zeros_like(v) for k, v in result.best_model.params.items()}
    best_state = replace(result.log, velocity=velocity, best_params=None)
    checkpoint.save(result.best_model, best_state, (model.arch, cfg), out_dir / "best.ckpt")
    _warn_if_never_merged(result, cfg.merge, out_dir)
    return result


def _warn_if_never_merged(result: ProtocolResult, merge: MergeConfig | None, out_dir: Path):
    """Log one warning when the run's sweeps drew kernels but merged none,
    naming tau and the range of each swept layer's pair similarities at the
    end of the run (its maximum is the one the default gate needed above tau)."""
    draws = sum(rec.merge_draws for rec in result.log.records)
    if merge is None or not draws or any(rec.merge_applied for rec in result.log.records):
        return
    ranges = []
    for ordinal in range(merge.skip_layers, result.model.n_conv):
        stats = similarity_stats(result.model, ordinal)
        span = "none" if not stats.pairs else f"[{stats.minimum:.4f}, {stats.maximum:.4f}]"
        ranges.append(f"conv{ordinal} {span}")
    logger.warning(
        "%s: %d merge draws, 0 merges at tau %s; pair similarities at the end: %s",
        out_dir, draws, merge.sim_threshold, ", ".join(ranges),
    )


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    out_dir = Path(args.out or rc.output)
    handle = load_dataset(rc.data.dir)
    started = time.time()
    start = start_protocol(rc.arch, handle, rc.train)
    result = _run_cell(start, handle, rc.train, out_dir, Path(rc.data.dir))
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
    bundle, logits = evaluate_with_logits(model, handle, args.split)
    print(_dump_json(bundle.to_record()), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(_dump_json(bundle.to_record()))
        _write_roc_csvs(logits, handle, args.split, out_dir)
    return 0


def _write_roc_csvs(logits: np.ndarray, handle: DatasetHandle, split_name: str, out_dir: Path):
    split = handle.splits[split_name]
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
    kind = get_type_hints(MergeConfig)[ABLATE_AXES[axis]]  # the range is check_run's
    parse = boolish if kind is bool else kind
    try:
        return [parse(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from None


def _worker_count() -> int:
    """Grid workers; ``bench/run.py`` reports this as ``cli.workers``."""
    return 1


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
    base_merge = rc.train.merge if rc.train.merge is not None else MergeConfig()
    field = ABLATE_AXES[args.axis]

    def cell_cfg(value, seed: int) -> TrainConfig:
        merge = replace(base_merge, seed=seed, **{field: value})
        return replace(rc.train, seed=seed, merge=merge)

    cfgs = {(value, seed): cell_cfg(value, seed) for value in values for seed in seeds}
    for (_, seed), cfg in cfgs.items():
        check_run(rc.arch, handle, cfg, scored=("val", "test"))  # before --out is made
        # a seed's cells share its pretraining, which never merges, so nothing else may differ
        assert replace(cfg, merge=None) == replace(cfgs[values[0], seed], merge=None)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    outcomes, name = {}, metric_name(handle.task)
    for seed in seeds:
        cfg = cfgs[values[0], seed]
        model, state = start_protocol(rc.arch, handle, cfg)
        _advance(model, handle, cfg, state, None, cfg.epochs_pretrain)
        for value in values:
            cell_dir = out_dir / f"{args.axis}_{value}" / f"seed_{seed}"
            start = copy.deepcopy((model, state))  # this cell's own (model, state)
            result = _run_cell(start, handle, cfgs[value, seed], cell_dir, Path(rc.data.dir))
            test_bundle = evaluate(result.best_model, handle, "test")
            merges = sum(rec.merge_applied for rec in result.log.records)
            outcomes[value, seed] = (getattr(test_bundle, name), merges)

    with open(out_dir / "cells.csv", "w") as fh:
        fh.write(f"axis,value,seed,test_{name},merges\n")
        for value, seed in cfgs:  # value-major, as the cells were keyed
            metric, merges = outcomes[value, seed]
            fh.write(f"{args.axis},{value},{seed},{metric!r},{merges}\n")
    lines = [f"axis,value,n_seeds,test_{name}_mean,test_{name}_std,merges_mean"]
    for value in values:
        metrics, merges = zip(*(outcomes[value, seed] for seed in seeds))
        mean = float(np.mean(metrics))
        std = float(np.std(metrics, ddof=1)) if len(metrics) > 1 else 0.0
        merges_mean = float(np.mean(merges))
        lines.append(f"{args.axis},{value},{len(metrics)},{mean!r},{std!r},{merges_mean!r}")
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


if __name__ == "__main__":
    raise SystemExit(main())
