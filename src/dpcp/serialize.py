"""JSON and key=value serialization helpers for report and config dataclasses."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import types
import typing

import numpy as np


def as_plain(obj):
    """Recursively convert dataclasses / numpy values to plain Python containers."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: as_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): as_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_plain(v) for v in obj]
    return obj


def to_json(obj) -> str:
    return json.dumps(as_plain(obj), indent=2, allow_nan=True)


def _typed(value, tp):
    """value as a field of type tp, with JSON lists as tuples; a bool is not a
    number, and an int is a valid float. Raises ValueError on a mismatch."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        for arm in args:
            with contextlib.suppress(ValueError):
                return _typed(value, arm)
    elif origin is tuple:
        if isinstance(value, list):
            return tuple(_typed(v, args[0]) for v in value)
    elif isinstance(value, bool) == (tp is bool) and isinstance(
            value, (int, float) if tp is float else tp):
        return value
    raise ValueError


def fields_from_json(cls, path: str) -> dict:
    """The JSON object in the file at path as keyword arguments of the dataclass
    cls; raises ValueError naming every unknown key and missing required field,
    or the first value that does not match its field's type."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object of {cls.__name__} fields")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    missing = [f.name for f in fields if f.name not in raw
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    bad = [f"{what} keys {keys}" for what, keys in (("unknown", unknown), ("missing", missing))
           if keys]
    if bad:
        raise ValueError(f"{path}: {'; '.join(bad)} for {cls.__name__}")
    hints = typing.get_type_hints(cls)
    for key, value in raw.items():
        try:
            raw[key] = _typed(value, hints[key])
        except ValueError:
            tp = hints[key]
            name = str(tp) if typing.get_origin(tp) else tp.__name__
            raise ValueError(f"{path}: {key} must be {name}, got {value!r}") from None
    return raw


def _kv_lines(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        for k in value:
            _kv_lines(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        out.append(f"{prefix}=" + ",".join(_scalar(v) for v in value))
    else:
        out.append(f"{prefix}={_scalar(value)}")


def _scalar(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def to_kv(obj) -> str:
    """Line-oriented key=value rendering; nested fields use dotted keys."""
    out: list[str] = []
    _kv_lines("", as_plain(obj), out)
    return "\n".join(out) + "\n"
