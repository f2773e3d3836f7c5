"""Plain-dict -> config conversion with strict key checking.

Used by the checkpoint trailer (config echo) and the CLI's run-config
files; the other direction is ``dataclasses.asdict``. Unknown keys are
rejected everywhere so a typo like "aplha" fails loudly instead of
silently training with a default.

Run-config layout (JSON)::

    {"arch": {ArchConfig fields; "layers": [{LayerSpec fields}, ...]},
     "data": {"dir": dataset directory},
     "train": {TrainConfig fields}, "merge": {MergeConfig fields},
     "output": output directory}

"merge" is optional and overrides "train.merge"; without a seed it takes
the train seed. Keys, defaults and casts come from the dataclass fields:
a missing key takes the field's default, and a ``bool`` field accepts
only a JSON boolean.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, replace

from .errors import ConfigError
from .layers import LayerSpec
from .merging import MergeConfig
from .model import ArchConfig
from .training import TrainConfig


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _int_tuple(value) -> tuple[int, ...]:
    if not isinstance(value, list | tuple):
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(int(v) for v in value)


def _optional(cast):
    return lambda value: None if value is None else cast(value)


_CASTS = {"int": int, "float": float, "str": str, "bool": _json_bool}


def _build(cls, section: str, d, casts=None, **defaults):
    """``cls`` built from ``d``: unknown or missing-required keys rejected,
    every given value cast per its field type (or ``casts[name]``), absent
    ones left to ``defaults`` and then to the dataclass default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{section}: must be an object, got {type(d).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(d) - set(known)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}; allowed: {sorted(known)}")
    for name, f in known.items():
        if f.default is MISSING and name not in d:
            raise ConfigError(f"{section}: missing required key {name!r}")
    kwargs = dict(defaults)
    for key, value in d.items():
        cast = (casts or {}).get(key) or _CASTS[known[key].type]
        try:
            kwargs[key] = cast(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{section}.{key}: {exc}") from None
    return cls(**kwargs)


def merge_from_dict(d: dict, default_seed: int = 0) -> MergeConfig:
    cfg = _build(MergeConfig, "merge", d, seed=default_seed)
    cfg.validate()
    return cfg


def train_from_dict(d: dict) -> TrainConfig:
    cfg = _build(
        TrainConfig, "train", d,
        casts={"milestones": _optional(_int_tuple), "merge": lambda merge: merge},
    )
    if cfg.merge is not None:
        cfg = replace(cfg, merge=merge_from_dict(cfg.merge, default_seed=cfg.seed))
    cfg.validate()
    return cfg


def _layers_from_list(layers) -> tuple[LayerSpec, ...]:
    return tuple(_build(LayerSpec, f"arch.layers[{i}]", ld) for i, ld in enumerate(layers))


def arch_from_dict(d: dict) -> ArchConfig:
    cfg = _build(
        ArchConfig, "arch", d,
        casts={
            "input_shape": _int_tuple,
            "preset": _optional(str),
            "layers": _optional(_layers_from_list),
        },
    )
    cfg.validate()
    return cfg
