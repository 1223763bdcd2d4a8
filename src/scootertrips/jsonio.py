"""JSON files in and out: read_json reads an input file, decode checks a value
read from it against the type it stands for, encode is decode's inverse for a
dataclass and write_json writes an artifact. A bad input raises InvalidConfig
naming the file and the key."""

from __future__ import annotations

import json
import math
import reprlib
import sys
from contextlib import nullcontext
from dataclasses import MISSING, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import InvalidConfig

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
_hints = cache(get_type_hints)


def held_as(*keys: str):
    """A dataclass field whose NamedTuple value JSON holds as one key per item."""
    return field(metadata={"json_keys": keys})


@cache
def _layout(cls) -> list[tuple]:
    """(field, its keys, its type, whether it is required) per field of a dataclass."""
    return [(f.name, f.metadata.get("json_keys", (f.name,)), _hints(cls)[f.name],
             f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)]


def read_json(path, what: str, key: str | None = None):
    """The JSON value in the file at path; with key, the value under key in
    the root object, which may hold notes besides. Bytes that are not UTF-8,
    text that is not JSON, nesting deeper than the recursion limit or another
    root raise InvalidConfig."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise InvalidConfig(f"{what} {path} is not JSON: {exc}") from None
    except RecursionError:  # a value nested deeper than the recursion limit
        raise InvalidConfig(f"{what} {path}: a value is nested too deeply to read") from None
    if key is not None and not (isinstance(value, dict) and key in value and value.keys() <= {key, "notes"}):
        raise InvalidConfig(f"{what} {path}: the root is not an object of {key} and notes: {reprlib.repr(value)}")
    return value if key is None else value[key]


def decode(hint, value, where: str, parse: dict = {}, path: str = ""):
    """The JSON value at path in where, as a field of type hint holds it.

    A value whose path is in parse is that function of it. A dataclass is built from an
    object with a key per field (a held_as field: its keys); a field with a default may be
    left out. Any other value must have the JSON type hint gives, and keeps it: no number
    is converted; a list becomes a tuple or NamedTuple where hint is one. A missing or
    unknown key, another type, a parse function's error or a dataclass's own range check
    (an InvalidConfig its __post_init__ raises) raises InvalidConfig naming where and the path.
    """
    if path in parse:
        try:
            return parse[path](value)
        except (AttributeError, TypeError, ValueError, KeyError, IndexError) as exc:
            raise InvalidConfig(f"{where}: {path} {reprlib.repr(value)} does not parse: {exc}") from None
    if type(hint) is UnionType:  # X | None
        if value is None:
            return None
        (hint,) = [t for t in get_args(hint) if t is not NoneType]
    if hint in _TYPE_NAMES:  # a JSON scalar; bool is an int, and an int a float
        if isinstance(value, bool) or hint is not float:
            ok = isinstance(value, hint) and (hint is bool or not isinstance(value, bool))
        else:
            ok = isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
        if ok:
            return value
        want = _TYPE_NAMES[hint]
    elif is_dataclass(hint):
        if isinstance(value, dict):
            specs, prefix = _layout(hint), path and f"{path}."
            missing = [prefix + k for _, keys, _, required in specs if required for k in keys if k not in value]
            unknown = sorted(prefix + k for k in value.keys() - {k for _, keys, _, _ in specs for k in keys})
            if missing or unknown:
                found = [f"missing keys {missing}"] * bool(missing) + [f"unknown keys {unknown}"] * bool(unknown)
                raise InvalidConfig(f"{where}: {', '.join(found)}")
            kwargs = {}
            for name, keys, field_hint, _ in specs:
                if keys[0] in value:  # else the default
                    field_value = value[name] if len(keys) == 1 else tuple(value[k] for k in keys)
                    kwargs[name] = decode(field_hint, field_value, where, parse, prefix + "/".join(keys))
            try:
                return hint(**kwargs)
            except InvalidConfig as exc:  # a range check of the dataclass's __post_init__
                raise InvalidConfig(f"{where}: {path + ': ' if path else ''}{exc}") from None
        want = "an object"
    elif hasattr(hint, "_fields"):  # a NamedTuple, held as a list
        types = list(_hints(hint).values())
        if isinstance(value, (list, tuple)) and len(value) == len(types):
            return hint(*(decode(t, v, where, parse, path) for t, v in zip(types, value)))
        want = f"a list of {len(types)} items"
    elif (origin := get_origin(hint) or hint) in (list, tuple):
        if isinstance(value, list):
            args = get_args(hint)
            items = [decode(args[0], v, where, parse, f"{path}[{i}]") for i, v in enumerate(value)] if args else value
            return items if origin is list else tuple(items)
        want = "a list"
    elif origin is dict:
        if isinstance(value, dict):
            args = get_args(hint)
            return {k: decode(args[1], v, where, parse, f"{path}.{k}") for k, v in value.items()} if args else value
        want = "an object"
    else:  # a type no JSON value has
        want = hint.__name__
    raise InvalidConfig(f"{where}: {path or 'the root'} {reprlib.repr(value)} is not {want}")


def encode(record) -> dict:
    """The JSON object decode reads back as the dataclass record."""
    obj = {}
    for name, keys, _, _ in _layout(type(record)):
        if len(keys) == 1:
            obj[name] = getattr(record, name)
        else:
            obj.update(zip(keys, getattr(record, name)))
    return obj


def write_json(obj, path=None) -> None:
    """Write obj to path, or else stdout, as every JSON artifact is written:
    indent 1, sorted keys and a trailing newline, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
