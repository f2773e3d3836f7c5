"""Dataset container format, synthetic generators, augmentation, batching.

On-disk layout of a dataset directory:

    meta.json          task kind, class count, image extents, split sizes,
                       normalization constants
    train_images.bin   raw little-endian uint8 bytes, N*C*H*W, row-major
    val_images.bin / test_images.bin           same layout
    train_labels.bin   multiclass: 1 byte (class index) per sample
                       multilabel: K bytes (0/1 indicators) per sample
    val_labels.bin / test_labels.bin           same layout

The loader validates byte counts and label domains against meta.json
before returning a handle; any inconsistency raises a specific error and
no partial handle ever escapes.

Synthetic datasets are deterministic per seed:

- ``gauss_blobs``: class-conditional Gaussian spot position and scale.
- ``striped_textures``: class-conditional stripe orientation and
  frequency - a texture task where classes differ only in subtle
  oriented structure.

Splits sizes follow the requested fractions with floor rounding for val
and test; the remainder goes to train. Optional label noise reassigns a
fixed fraction of *train* labels uniformly to a different class, leaving
val/test clean so generalization stays measurable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import seeding
from .configio import decode
from .errors import (
    ConfigError,
    DataError,
    DatasetMissingFileError,
    DatasetSizeError,
    LabelDomainError,
    ShapeError,
)

TASKS = ("multiclass", "multilabel")
SPLIT_NAMES = ("train", "val", "test")
SYNTH_KINDS = ("gauss_blobs", "striped_textures")


@dataclass(frozen=True)
class Normalization:
    mean: tuple[float, ...]
    std: tuple[float, ...]


@dataclass(frozen=True)
class Meta:  # the meta.json document
    task: str
    num_classes: int
    channels: int
    height: int
    width: int
    splits: dict[str, int]  # split name -> sample count
    normalization: Normalization


@dataclass
class Split:
    images: np.ndarray  # uint8 (N, C, H, W)
    labels: np.ndarray  # multiclass: (N,) int64; multilabel: (N, K) uint8

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass
class DatasetHandle:
    task: str
    num_classes: int
    channels: int
    height: int
    width: int
    splits: dict[str, Split]
    mean: tuple[float, ...]  # per channel, in [0, 1] pixel units
    std: tuple[float, ...]

    def validate(self) -> None:
        if self.task not in TASKS:
            raise DataError(f"unknown task kind {self.task!r}")
        if set(self.splits) != set(SPLIT_NAMES):
            raise DataError(f"splits must be exactly {SPLIT_NAMES}, got {sorted(self.splits)}")
        if len(self.mean) != self.channels or len(self.std) != self.channels:
            raise DataError("normalization constants must have one entry per channel")
        if not all(math.isfinite(v) for v in (*self.mean, *self.std)):
            raise DataError("normalization constants must be finite")
        if any(s <= 0 for s in self.std):
            raise DataError("normalization std must be > 0 per channel")
        shape = (self.channels, self.height, self.width)
        for name, split in self.splits.items():
            if split.images.dtype != np.uint8 or split.images.shape[1:] != shape:
                raise DataError(f"{name}: images must be uint8 with shape (N,)+{shape}")
            n = len(split)
            if self.task == "multiclass":
                if split.labels.shape != (n,):
                    raise DataError(f"{name}: multiclass labels must be ({n},)")
                if n and (split.labels.min() < 0 or split.labels.max() >= self.num_classes):
                    raise LabelDomainError(
                        f"{name}: label outside [0, {self.num_classes})"
                    )
            else:
                if split.labels.shape != (n, self.num_classes):
                    raise DataError(f"{name}: multilabel labels must be ({n}, {self.num_classes})")
                if n and not np.isin(split.labels, (0, 1)).all():
                    raise LabelDomainError(f"{name}: multilabel values must be 0 or 1")


# ---------------------------------------------------------------------------
# directory format


def save_dataset(handle: DatasetHandle, directory: str | Path) -> None:
    """Write the directory format; bit-exact roundtrip with load_dataset."""
    handle.validate()
    if handle.task == "multiclass" and handle.num_classes > 256:
        raise DataError(
            f"multiclass labels are stored in 1 byte, so at most 256 classes fit; "
            f"got {handle.num_classes}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = Meta(
        task=handle.task,
        num_classes=handle.num_classes,
        channels=handle.channels,
        height=handle.height,
        width=handle.width,
        splits={name: len(handle.splits[name]) for name in SPLIT_NAMES},
        normalization=Normalization(mean=handle.mean, std=handle.std),
    )
    (directory / "meta.json").write_text(json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n")
    for name in SPLIT_NAMES:
        split = handle.splits[name]
        (directory / f"{name}_images.bin").write_bytes(split.images.tobytes())
        labels = split.labels.astype(np.uint8)
        (directory / f"{name}_labels.bin").write_bytes(labels.tobytes())


def load_dataset(directory: str | Path) -> DatasetHandle:
    """Load and fully validate a dataset directory."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise DatasetMissingFileError(f"missing {meta_path}")
    meta = decode(Meta, meta_path.read_bytes(), DataError, str(meta_path))
    task, k, c, h, w = meta.task, meta.num_classes, meta.channels, meta.height, meta.width
    if task not in TASKS:
        raise DataError(f"{meta_path}: unknown task kind {task!r}")
    if set(meta.splits) != set(SPLIT_NAMES):
        raise DataError(f"{meta_path}: splits must be exactly {SPLIT_NAMES}")
    if min(k, c, h, w) < 1 or min(meta.splits.values()) < 0:
        raise DataError(f"{meta_path}: class count and image extents must be >= 1, sizes >= 0")

    splits: dict[str, Split] = {}
    for name in SPLIT_NAMES:
        n = meta.splits[name]
        images = _read_blob(directory / f"{name}_images.bin", n * c * h * w)
        label_bytes = n if task == "multiclass" else n * k
        raw_labels = _read_blob(directory / f"{name}_labels.bin", label_bytes)
        if task == "multiclass":
            labels = raw_labels.astype(np.int64)
        else:
            labels = raw_labels.reshape(n, k)
        splits[name] = Split(images=images.reshape(n, c, h, w), labels=labels)

    handle = DatasetHandle(
        task=task, num_classes=k, channels=c, height=h, width=w,
        splits=splits, mean=meta.normalization.mean, std=meta.normalization.std,
    )
    handle.validate()  # label domains, shapes, normalization constants
    return handle


def _read_blob(path: Path, expected_bytes: int) -> np.ndarray:
    if not path.is_file():
        raise DatasetMissingFileError(f"missing {path}")
    raw = path.read_bytes()
    if len(raw) != expected_bytes:
        raise DatasetSizeError(
            f"{path}: expected {expected_bytes} bytes, found {len(raw)}"
        )
    return np.frombuffer(raw, dtype=np.uint8)


# ---------------------------------------------------------------------------
# synthetic datasets


def synth_make(
    kind: str,
    n_per_class: int,
    num_classes: int,
    channels: int,
    height: int,
    width: int,
    seed: int,
    task: str = "multiclass",
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15),
    label_noise: float = 0.0,
) -> DatasetHandle:
    """Deterministic synthetic dataset of ``n_per_class * num_classes``
    samples, split per ``split_fractions`` (val/test floored, remainder
    to train). Normalization constants default to mean 0.5 / std 0.5 per
    channel and are recorded in the handle."""
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown synthetic kind {kind!r}; known: {SYNTH_KINDS}")
    if task not in TASKS:
        raise ConfigError(f"unknown task kind {task!r}")
    if kind == "striped_textures" and task == "multilabel":
        raise ConfigError("striped_textures supports multiclass only")
    if min(n_per_class, num_classes, channels, height, width) < 1:
        raise ConfigError("synth_make: all size parameters must be positive")
    if not 0.0 <= label_noise < 1.0:
        raise ConfigError(f"label_noise must be in [0, 1), got {label_noise}")
    if label_noise > 0.0 and (task != "multiclass" or num_classes < 2):
        raise ConfigError("label_noise needs a multiclass task with at least 2 classes")
    if len(split_fractions) != 3 or not all(math.isfinite(f) and f >= 0 for f in split_fractions):
        raise ConfigError(f"split_fractions must be 3 finite values >= 0, got {split_fractions}")
    if abs(sum(split_fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split_fractions must sum to 1, got {split_fractions}")

    rng = seeding.stream(seed, seeding.SYNTH)
    total = n_per_class * num_classes
    if task == "multiclass":
        labels = np.tile(np.arange(num_classes), n_per_class).astype(np.int64)
    else:
        labels = (rng.random((total, num_classes)) < 0.5).astype(np.uint8)

    if kind == "gauss_blobs":
        images = _gauss_blob_images(rng, labels, task, num_classes, channels, height, width)
    else:
        images = _striped_images(rng, labels, num_classes, channels, height, width)

    perm = rng.permutation(total)
    images, labels = images[perm], labels[perm]

    n_val = int(total * split_fractions[1])
    n_test = int(total * split_fractions[2])
    n_train = total - n_val - n_test
    bounds = (0, n_train, n_train + n_val, total)
    splits = {
        name: Split(images=images[a:b].copy(), labels=labels[a:b].copy())
        for name, a, b in zip(SPLIT_NAMES, bounds[:-1], bounds[1:])
    }

    if label_noise > 0.0 and n_train > 0:
        noise_rng = seeding.stream(seed, seeding.LABEL_NOISE)
        n_noisy = round(label_noise * n_train)
        chosen = noise_rng.choice(n_train, size=n_noisy, replace=False)
        offsets = noise_rng.integers(1, num_classes, size=n_noisy)
        train_labels = splits["train"].labels
        train_labels[chosen] = (train_labels[chosen] + offsets) % num_classes

    handle = DatasetHandle(
        task=task, num_classes=num_classes,
        channels=channels, height=height, width=width,
        splits=splits, mean=(0.5,) * channels, std=(0.5,) * channels,
    )
    handle.validate()
    return handle


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values), 0, 255).astype(np.uint8)


def _gauss_blob_images(rng, labels, task, k, c, h, w) -> np.ndarray:
    """Bright Gaussian spots; class determines position on a ring and size."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    angles = 2.0 * np.pi * np.arange(k) / k
    radius = 0.3 * min(h, w)
    centers_y = h / 2.0 + radius * np.sin(angles)
    centers_x = w / 2.0 + radius * np.cos(angles)
    sigmas = 0.09 * min(h, w) * (1.0 + 0.5 * np.arange(k) / max(k - 1, 1))
    n = labels.shape[0]
    images = np.empty((n, c, h, w), dtype=np.uint8)
    present = (
        labels[:, None] == np.arange(k)[None, :] if task == "multiclass" else labels.astype(bool)
    )
    for s in range(n):
        canvas = np.zeros((h, w), dtype=np.float64)
        for cls in np.flatnonzero(present[s]):
            cy = centers_y[cls] + rng.normal(0.0, 1.0)
            cx = centers_x[cls] + rng.normal(0.0, 1.0)
            d2 = (yy - cy) ** 2 + (xx - cx) ** 2
            canvas += 200.0 * np.exp(-d2 / (2.0 * sigmas[cls] ** 2))
        canvas += 20.0 + rng.normal(0.0, 12.0, size=(h, w))
        images[s] = _quantize(canvas)[None, :, :]
    return images


def _striped_images(rng, labels, k, c, h, w) -> np.ndarray:
    """Sinusoidal stripe textures; class determines orientation (and a mild
    frequency ramp so flipped orientations stay distinguishable)."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    yn, xn = yy / h, xx / w
    theta_cls = np.pi * np.arange(k) / k
    freq_cls = 3.0 * (1.0 + 0.25 * np.arange(k) / max(k - 1, 1))
    n = labels.shape[0]
    images = np.empty((n, c, h, w), dtype=np.uint8)
    for s in range(n):
        cls = int(labels[s])
        theta = theta_cls[cls] + rng.normal(0.0, 0.06)
        freq = freq_cls[cls] * (1.0 + rng.normal(0.0, 0.05))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * freq * (xn * np.cos(theta) + yn * np.sin(theta)) + phase)
        canvas = 127.5 + 70.0 * wave + rng.normal(0.0, 25.0, size=(h, w))
        images[s] = _quantize(canvas)[None, :, :]
    return images


# ---------------------------------------------------------------------------
# augmentation / normalization / batching


def apply_flip(batch: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Copy of the batch with the masked samples mirrored along width."""
    if batch.ndim != 4:
        raise ShapeError(f"apply_flip: need a rank-4 batch, got rank {batch.ndim}")
    out = batch.copy()
    out[mask] = out[mask][..., ::-1]
    return out


def normalize(batch: np.ndarray, mean, std) -> np.ndarray:
    """(pixel/255 - mean) / std per channel, as float32."""
    if batch.ndim != 4:
        raise ShapeError(f"normalize: need a rank-4 batch, got rank {batch.ndim}")
    mean = np.asarray(mean, dtype=np.float32).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=np.float32).reshape(1, -1, 1, 1)
    if mean.shape[1] != batch.shape[1] or std.shape[1] != batch.shape[1]:
        raise ShapeError("normalize: one mean/std entry per channel required")
    if np.any(std <= 0):
        raise DataError("normalize: std must be > 0")
    return (batch.astype(np.float32) / np.float32(255.0) - mean) / std


def batch_iter(
    split: Split, batch_size: int, rng: np.random.Generator | None = None
) -> Iterator[np.ndarray]:
    """Index batches covering the split exactly once; shuffled when a
    generator is supplied, the final partial batch kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(split)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
