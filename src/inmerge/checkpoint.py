"""Bit-exact, platform-portable checkpoint files.

Layout (single file, single-pass writable):

    magic    b"IMRG1"                                 5 bytes
    u64      header length, little-endian             8 bytes
    header   UTF-8 JSON ``Header``: per tensor dtype, shape, offset, length
    payload  concatenated little-endian float32       P bytes
    trailer  UTF-8 JSON ``Trailer`` to EOF: config echo (``model.arch`` and
             the TrainConfig), training state scalars, epoch log so far with
             each epoch's merge sweep reports (older files load with none; older
             engines refuse the key, so they load no file written since), RNG position

Tensor names are namespaced: ``param/<name>`` for model parameters
(each exactly once), ``momentum/<name>`` for optimizer velocity,
``best/<name>`` for the best-validation weights when one exists.

The RNG position is just the next epoch index: all training streams are
derived per epoch (see ``seeding``), so an epoch boundary fully
determines every generator. ``load`` refuses, as a corrupt header, any
format but ``FORMAT_VERSION``, an arch that does not build and a run state
that ``Trailer.validate`` rejects. Files are written via temp file +
rename, so readers never observe a half-written checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .configio import decode
from .errors import (
    ConfigError,
    CorruptHeaderError,
    HeaderLayoutError,
    TruncatedFileError,
    UnknownDtypeError,
)
from .merging import MergeConfig
from .model import ArchConfig, Model, build_model
from .training import EpochRecord, TrainConfig, TrainState

MAGIC = b"IMRG1"
FORMAT_VERSION = 1
RNG_SCHEME = "per-epoch-streams"


@dataclass(frozen=True)
class TensorEntry:
    dtype: str
    shape: tuple[int, ...]
    offset: int
    length: int


@dataclass(frozen=True)
class Header:
    format: int
    payload_bytes: int
    tensors: dict[str, TensorEntry]


@dataclass(frozen=True)
class TrailerConfigs:
    arch: ArchConfig
    train: TrainConfig
    merge: MergeConfig | None = None  # older files repeat train.merge here; ignored


@dataclass(frozen=True)
class TrailerState:
    epochs_done: int
    best_epoch: int
    best_metric: float | None
    records: tuple[EpochRecord, ...]


@dataclass(frozen=True)
class RngPosition:
    scheme: str
    next_epoch: int


@dataclass(frozen=True)
class Trailer:
    configs: TrailerConfigs
    state: TrailerState
    rng: RngPosition

    def validate(self) -> None:
        """Raise ConfigError unless the run state fits itself and the run config."""
        st, total = self.state, self.configs.train.total_epochs
        done, best = st.epochs_done, st.best_epoch
        if self.rng != RngPosition(RNG_SCHEME, done):
            raise ConfigError(f"RNG position {asdict(self.rng)} != {RNG_SCHEME!r} at epochs_done")
        if not -1 <= best < done <= total:
            raise ConfigError(f"need -1 <= best_epoch {best} < epochs_done {done} <= {total}")
        if (st.best_metric is None) != (best == -1):
            raise ConfigError(f"best_metric {st.best_metric} does not fit best_epoch {best}")
        if len(st.records) > done or any(r.epoch != i for i, r in enumerate(st.records)):
            raise ConfigError(f"records must hold epochs 0, 1, ... and at most {done}")
        for r in st.records:  # records from older files have no sweeps to add up
            sums = (len(r.sweeps), sum(s.draws for s in r.sweeps),
                    sum(s.merges_applied for s in r.sweeps))
            if r.sweeps and sums != (r.merge_sweeps, r.merge_draws, r.merge_applied):
                raise ConfigError(f"state.records[{r.epoch}]: sweeps sum to {sums}, not its counts")


def save(model: Model, state: TrainState, train_cfg: TrainConfig, path: str | Path) -> None:
    """Write model + optimizer/merge state + config echo atomically; the
    trailer's arch is ``model.arch``."""
    tensors: dict[str, np.ndarray] = {}
    for name in model.param_names():
        tensors[f"param/{name}"] = model.params[name]
        tensors[f"momentum/{name}"] = state.velocity[name]
    if state.best_params is not None:
        for name in model.param_names():
            tensors[f"best/{name}"] = state.best_params[name]

    entries: dict[str, TensorEntry] = {}
    chunks: list[bytes] = []
    offset = 0
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries[name] = TensorEntry("f32", arr.shape, offset, len(raw))
        chunks.append(raw)
        offset += len(raw)

    header = json.dumps(
        asdict(Header(FORMAT_VERSION, offset, entries)), sort_keys=True
    ).encode("utf-8")
    # no TrailerConfigs here: its legacy merge field would be written as null
    trailer = json.dumps(
        {
            "configs": {"arch": asdict(model.arch), "train": asdict(train_cfg)},
            "state": asdict(TrailerState(
                state.epochs_done, state.best_epoch, state.best_metric, tuple(state.records)
            )),
            "rng": asdict(RngPosition(RNG_SCHEME, state.epochs_done)),
        },
        sort_keys=True,
    ).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)
        fh.write(trailer)
    os.replace(tmp, path)


def load(path: str | Path) -> tuple[Model, TrainState, TrainConfig]:
    """Read a checkpoint back; exact inverse of ``save``. The model is built
    from the trailer's arch, so ``model.arch`` is the arch it was saved with."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MAGIC) + 8:
        raise TruncatedFileError(f"{path}: {len(blob)} bytes is too short for a header")
    if blob[: len(MAGIC)] != MAGIC:
        raise CorruptHeaderError(f"{path}: bad magic bytes {blob[:len(MAGIC)]!r}")
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC))
    header_start = len(MAGIC) + 8
    if header_len == 0:
        raise CorruptHeaderError(f"{path}: header length 0")
    if header_start + header_len > len(blob):
        raise TruncatedFileError(f"{path}: header length {header_len} exceeds file")
    header = decode(
        Header, blob[header_start : header_start + header_len], CorruptHeaderError,
        f"{path}: unreadable header",
    )
    if header.format != FORMAT_VERSION:
        raise CorruptHeaderError(f"{path}: unknown checkpoint format {header.format}")
    payload_bytes, entries = header.payload_bytes, header.tensors

    payload_start = header_start + header_len
    if payload_start + payload_bytes > len(blob):
        raise TruncatedFileError(
            f"{path}: payload of {payload_bytes} bytes exceeds file size {len(blob)}"
        )

    # validate offsets: ascending, non-overlapping, exact coverage
    covered = 0
    for name, ent in sorted(entries.items(), key=lambda kv: kv[1].offset):
        if ent.dtype != "f32":
            raise UnknownDtypeError(f"{path}: tensor {name!r} has dtype {ent.dtype!r}")
        if ent.offset != covered:
            verb = "overlaps" if ent.offset < covered else "leaves a gap before"
            raise HeaderLayoutError(f"{path}: tensor {name!r} {verb} offset {covered}")
        expect = math.prod(ent.shape) * 4
        if ent.length != expect:
            raise HeaderLayoutError(
                f"{path}: tensor {name!r} length {ent.length} != shape size {expect}"
            )
        covered += ent.length
    if covered != payload_bytes:
        raise HeaderLayoutError(
            f"{path}: tensors cover {covered} bytes, payload declares {payload_bytes}"
        )

    trailer = decode(
        Trailer, blob[payload_start + payload_bytes :], CorruptHeaderError,
        f"{path}: unreadable trailer",
    )
    train_cfg = trailer.configs.train
    try:
        model = build_model(trailer.configs.arch, train_cfg.seed)
    except ConfigError as exc:
        raise CorruptHeaderError(f"{path}: trailer arch does not build: {exc}") from None
    namespaces = ["param", "momentum"]
    if any(n.startswith("best/") for n in entries):
        namespaces.append("best")
    expected = {f"{ns}/{n}" for ns in namespaces for n in model.param_names()}
    if set(entries) != expected:
        missing = sorted(expected - set(entries))
        extra = sorted(set(entries) - expected)
        raise HeaderLayoutError(
            f"{path}: tensor names mismatch (missing {missing}, unexpected {extra})"
        )

    def tensors(ns: str) -> dict[str, np.ndarray]:
        out = {}
        for name, want in model.params.items():
            ent = entries[f"{ns}/{name}"]
            if ent.shape != want.shape:
                raise HeaderLayoutError(
                    f"{path}: tensor {ns}/{name} has shape {list(ent.shape)}, "
                    f"model needs {list(want.shape)}"
                )
            start = payload_start + ent.offset
            flat = np.frombuffer(blob, dtype="<f4", count=ent.length // 4, offset=start)
            out[name] = flat.reshape(ent.shape).astype(np.float32)
        return out

    for name, value in tensors("param").items():
        model.params[name][...] = value
    velocity = tensors("momentum")
    best_params = tensors("best") if "best" in namespaces else None

    state = TrainState(
        epochs_done=trailer.state.epochs_done,
        velocity=velocity,
        best_epoch=trailer.state.best_epoch,
        best_metric=trailer.state.best_metric,
        best_params=best_params,
        records=list(trailer.state.records),
    )
    return model, state, train_cfg
