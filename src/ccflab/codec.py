"""One JSON codec for the result records, the one JSON writer and the one
CSV writer.

A record is a frozen dataclass deriving from :class:`Record`.  Its JSON keys
are its dataclass fields, in declaration order, unless its JSON differs from
them; then it lists its keys, in order, in ``_keys``.  A key names the
attribute it holds; a ``(key, attribute)`` pair renames it.  A key whose
attribute is not a dataclass field is a derived property: it is written, and
ignored when read back.  Values are encoded by type (arrays and tuples
become lists, nested records recurse, norms go through :func:`norm_to_dict`)
and decoded by each field's type annotation; an int, float, str or bool
field takes only a JSON value of that type (a float takes any number), and
an array field only nested lists of numbers, with no coercion.  Decoding
names a missing required key, and the key of a value that does not decode,
and ignores unknown keys, so payloads that carry retired keys still load.

:func:`json_text` and :func:`csv_text` give the text of every JSON and CSV
artifact, and :func:`write_text` writes it.  JSON text is standard JSON: a
NaN or infinite number raises ValueError instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
import typing
from pathlib import Path

import numpy as np

from .norms import NormSpec, json_scalar, norm_from_dict, norm_to_dict


class Record:
    """Base of the result dataclasses: ``to_dict``, ``from_dict`` and ``==``."""

    _keys: tuple = ()  # empty: the keys are the dataclass fields

    def to_dict(self) -> dict:
        return {key: _encode(getattr(self, attr)) for key, attr, _, _ in _schema(type(self))}

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ValueError(f"malformed {cls.__name__} object: {obj!r}")
        kwargs = {}
        for key, attr, decode, required in _schema(cls):
            if decode is None:
                continue
            if key not in obj:
                if required:
                    raise ValueError(f"{cls.__name__} object is missing key {key!r}")
                continue
            try:
                kwargs[attr] = decode(obj[key])
            except (TypeError, ValueError) as e:
                raise ValueError(f"{cls.__name__} key {key!r}: {e}") from e
        return cls(**kwargs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


@functools.cache
def _schema(cls) -> tuple:
    """(key, attribute, decoder or None for derived keys, required) per key."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    schema = []
    for entry in cls._keys or fields:
        key, attr = entry if isinstance(entry, tuple) else (entry, entry)
        f = fields.get(attr)
        if f is None:
            schema.append((key, attr, None, False))
        else:
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            schema.append((key, attr, _decoder(hints[attr]), required))
    return tuple(schema)


def _decoder(hint):
    if typing.get_origin(hint) is tuple:
        item = _decoder(typing.get_args(hint)[0])
        return lambda v: tuple(item(x) for x in v)
    if hint is np.ndarray:
        return lambda v: np.asarray(_numbers(v), dtype=float)
    if hint is NormSpec:
        return norm_from_dict
    if issubclass(hint, Record):
        return hint.from_dict
    if hint is dict:
        return dict
    return functools.partial(json_scalar, hint)


def _numbers(value):
    """A nested JSON list with each leaf checked to be a number, at any depth."""
    if isinstance(value, list):
        return [_numbers(v) for v in value]
    return json_scalar(float, value)


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, NormSpec):
        return norm_to_dict(value)
    return value


def json_text(payload) -> str:
    """The text of every JSON artifact: two-space indent, trailing newline.
    Standard JSON only: a NaN or infinite number raises ValueError."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("a result left the float range (NaN or infinity), so it has no JSON text") from None


def csv_text(rows) -> str:
    """The text of every CSV artifact: cells joined by commas, strings as they
    are and numbers by ``repr``, and a newline after each row.  Pass Python
    floats: numpy 2 scalars repr as ``np.float64(...)``."""
    return "".join(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n" for row in rows)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename), creating
    parent directories; the temp file is removed if the write fails."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
