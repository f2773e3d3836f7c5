"""Bit-exact, platform-portable checkpoint files.

Layout (single file, single-pass writable):

    magic  b"IMRG1"                          5 bytes
    u64    header length, little-endian     8 bytes
    header UTF-8 JSON: {"format": 1,
                        "payload_bytes": P,
                        "tensors": {name: {"dtype": "f32",
                                           "shape": [...],
                                           "offset": o,   # into payload
                                           "length": l}}}
    payload  concatenated little-endian float32           P bytes
    trailer  UTF-8 JSON to EOF: config echo (arch / train, the merge
             config inside train),
             training state scalars, epoch log so far, RNG position

Tensor names are namespaced: ``param/<name>`` for model parameters
(each exactly once), ``momentum/<name>`` for optimizer velocity,
``best/<name>`` for the best-validation weights when one exists.

The RNG position is just the next epoch index: all training streams are
derived per epoch (see ``seeding``), so an epoch boundary fully
determines every generator. Files are written via temp file + rename,
so readers never observe a half-written checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .configio import arch_from_dict, train_from_dict
from .errors import (
    CorruptHeaderError,
    HeaderLayoutError,
    TruncatedFileError,
    UnknownDtypeError,
)
from .model import ArchConfig, Model, build_model
from .training import EpochRecord, TrainConfig, TrainState

MAGIC = b"IMRG1"
FORMAT_VERSION = 1


def save(
    model: Model,
    state: TrainState,
    configs: tuple[ArchConfig, TrainConfig],
    path: str | Path,
) -> None:
    """Write model + optimizer/merge state + config echo atomically."""
    arch, train_cfg = configs
    tensors: dict[str, np.ndarray] = {}
    for name in model.param_names():
        tensors[f"param/{name}"] = model.params[name]
        tensors[f"momentum/{name}"] = state.velocity[name]
    if state.best_params is not None:
        for name in model.param_names():
            tensors[f"best/{name}"] = state.best_params[name]

    entries: dict[str, dict] = {}
    chunks: list[bytes] = []
    offset = 0
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        entries[name] = {
            "dtype": "f32",
            "shape": list(arr.shape),
            "offset": offset,
            "length": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)

    header = json.dumps(
        {"format": FORMAT_VERSION, "payload_bytes": offset, "tensors": entries},
        sort_keys=True,
    ).encode("utf-8")
    trailer = json.dumps(
        {
            "configs": {"arch": asdict(arch), "train": asdict(train_cfg)},
            "state": {
                "epochs_done": state.epochs_done,
                "best_epoch": state.best_epoch,
                "best_metric": state.best_metric,
                "records": [r.to_record() for r in state.records],
            },
            "rng": {"scheme": "per-epoch-streams", "next_epoch": state.epochs_done},
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


def load(path: str | Path) -> tuple[Model, TrainState, tuple[ArchConfig, TrainConfig]]:
    """Read a checkpoint back; exact inverse of ``save``."""
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
    try:
        header = json.loads(blob[header_start : header_start + header_len].decode("utf-8"))
        payload_bytes = int(header["payload_bytes"])
        # name -> (dtype, offset, length, shape)
        entries = {
            name: (
                ent.get("dtype"), int(ent["offset"]), int(ent["length"]),
                tuple(map(int, ent["shape"])),
            )
            for name, ent in header["tensors"].items()
        }
    except (
        UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError
    ) as exc:
        raise CorruptHeaderError(f"{path}: unreadable header ({exc!r})") from None

    payload_start = header_start + header_len
    if payload_start + payload_bytes > len(blob):
        raise TruncatedFileError(
            f"{path}: payload of {payload_bytes} bytes exceeds file size {len(blob)}"
        )

    # validate offsets: ascending, non-overlapping, exact coverage
    covered = 0
    for name, (dtype, offset, length, shape) in sorted(entries.items(), key=lambda kv: kv[1][1]):
        if dtype != "f32":
            raise UnknownDtypeError(f"{path}: tensor {name!r} has dtype {dtype!r}")
        if offset != covered:
            verb = "overlaps" if offset < covered else "leaves a gap before"
            raise HeaderLayoutError(f"{path}: tensor {name!r} {verb} offset {covered}")
        expect = math.prod(shape) * 4
        if length != expect:
            raise HeaderLayoutError(
                f"{path}: tensor {name!r} length {length} != shape size {expect}"
            )
        covered += length
    if covered != payload_bytes:
        raise HeaderLayoutError(
            f"{path}: tensors cover {covered} bytes, payload declares {payload_bytes}"
        )

    try:
        trailer = json.loads(blob[payload_start + payload_bytes :].decode("utf-8"))
        arch_d, train_d = trailer["configs"]["arch"], trailer["configs"]["train"]
        state_d = trailer["state"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptHeaderError(f"{path}: unreadable trailer ({exc!r})") from None

    arch = arch_from_dict(arch_d)
    train_cfg = train_from_dict(train_d)

    model = build_model(arch, train_cfg.seed)
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
            _, offset, length, shape = entries[f"{ns}/{name}"]
            if shape != want.shape:
                raise HeaderLayoutError(
                    f"{path}: tensor {ns}/{name} has shape {list(shape)}, "
                    f"model needs {list(want.shape)}"
                )
            start = payload_start + offset
            flat = np.frombuffer(blob, dtype="<f4", count=length // 4, offset=start)
            out[name] = flat.reshape(shape).astype(np.float32)
        return out

    for name, value in tensors("param").items():
        model.params[name][...] = value
    velocity = tensors("momentum")
    best_params = tensors("best") if "best" in namespaces else None

    try:
        state = TrainState(
            epochs_done=int(state_d["epochs_done"]),
            velocity=velocity,
            best_epoch=int(state_d["best_epoch"]),
            best_metric=state_d["best_metric"],
            best_params=best_params,
            records=[EpochRecord.from_record(r) for r in state_d["records"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptHeaderError(f"{path}: unreadable trailer state ({exc!r})") from None
    return model, state, (arch, train_cfg)
