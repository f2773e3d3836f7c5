"""Strict decoding of JSON documents into typed dataclasses.

``decode`` is the one reader of every JSON document the engine loads:
run configs (``cli``), dataset ``meta.json`` (``data``), and checkpoint
headers and trailers (``checkpoint``). A document is UTF-8 bytes holding
one JSON value, read into the target type by its annotations:

- dataclass: an object. Unknown keys and missing required keys are
  rejected; an absent key takes the field default.
- ``int``: an integer, not ``true``/``false``. ``float``: a finite
  number, an integer widened. ``str``: a string. ``bool``: a boolean.
- ``X | None``: ``null`` or an X. ``tuple[T, ...]`` and ``list[T]``: a
  list of T (a ``tuple[T, T, T]`` too; its length is left to
  ``validate``). ``dict[str, T]``: an object of T.

Nothing is coerced. A mismatch raises the caller's error class and names
the key path, e.g. ``run.json: train.merge.skip_layers: expected an
integer, got 2.5``. A decoded dataclass with a ``validate`` method is
then checked by it; an out-of-range value fails the same way.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing

from .errors import ConfigError

_hints = functools.cache(typing.get_type_hints)
_EXPECTED = {
    int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
    tuple: "a list", list: "a list", dict: "an object",
}


class _Mismatch(Exception):
    """(key path, message): a JSON value does not fit its annotation."""


def decode(cls, doc, error: type[Exception], source: str, defaults=None):
    """``cls`` read from ``doc``: UTF-8 JSON bytes, or a value already
    parsed from JSON. Every failure raises ``error``, its message led by
    ``source``. ``defaults`` maps a dataclass to field values that stand
    in for its own defaults wherever that class occurs in the document."""
    if isinstance(doc, bytes):
        try:
            doc = json.loads(doc.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
            raise error(f"{source}: not a UTF-8 JSON document ({exc})") from None
    try:
        return _value(cls, doc, "", defaults or {})
    except _Mismatch as exc:
        path, message = exc.args  # paths start with "." below the top level
        raise error(": ".join(filter(None, (source, path.removeprefix("."), message)))) from None


def _value(tp, value, path: str, defaults: dict):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return _object(tp, value, path, defaults)
    if origin in (types.UnionType, typing.Union):  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else _value(inner, value, path, defaults)
    if origin in (tuple, list) and type(value) is list:  # validate checks a tuple[T, T, T] length
        return origin(_value(args[0], v, f"{path}[{i}]", defaults) for i, v in enumerate(value))
    if origin is dict and type(value) is dict:
        return {k: _value(args[1], v, f"{path}.{k}", defaults) for k, v in value.items()}
    if tp is float:
        # comparing with the largest float also fails NaN, +-inf and huge integers
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is tp:
        return value
    raise _Mismatch(path, f"expected {_EXPECTED[origin or tp]}, got {value!r:.80}")


def _object(cls, value, path: str, defaults: dict):
    if type(value) is not dict:
        raise _Mismatch(path, f"expected an object, got {value!r:.80}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(value) - set(fields))
    if unknown:
        raise _Mismatch(path, f"unknown key(s) {unknown}; allowed: {sorted(fields)}")
    given = {**defaults.get(cls, {}), **value}
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in given:
            raise _Mismatch(path, f"missing required key {name!r}")
    obj = cls(**{k: _value(_hints(cls)[k], v, f"{path}.{k}", defaults) for k, v in given.items()})
    if hasattr(obj, "validate"):
        try:
            obj.validate()
        except ConfigError as exc:
            raise _Mismatch(path, str(exc)) from None
    return obj
