"""One reader and one writer for the mappings the package reads and writes.

The dataclasses are the schema. A mapping is read into one dataclass by
walking its fields: a key that is present is type-checked (an int is
accepted as a float, a float must be finite, an enum is read by value, a
list becomes a list, tuple or frozenset, and ``X | None`` accepts null),
a key that is absent takes the field's default, and a key is required
only when its field has no default. A key that no field reads is an
error, except a record's ``DERIVED`` keys. A dataclass's own
``ValueError`` becomes a ``ConfigError``. Scenario files and records
share this reader; only ``config`` renames keys. A ``Record`` is written
by the reverse walk, planned once per class: an enum becomes its value,
a tuple or list a list, and a nested record recurses.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import sys
import types
import typing
from enum import Enum
from pathlib import Path


class ConfigError(Exception):
    pass


ABSENT = object()


class Record:
    """Base of the dataclasses written as JSON records. ``DERIVED`` names
    properties written after the fields, which the reader ignores;
    ``OMITTED`` names fields neither written nor read."""

    __slots__ = ()
    DERIVED: tuple[str, ...] = ()
    OMITTED: tuple[str, ...] = ()

    def to_record(self) -> dict:
        rec = {}
        for key, encode in _plan(type(self)):
            value = getattr(self, key)
            rec[key] = value if encode is None or value is None else encode(value)
        return rec

    @classmethod
    def from_record(cls, mapping, source: str = "record"):
        """The record ``mapping`` holds; ``source`` names it in errors."""
        if not isinstance(mapping, dict):
            raise ConfigError(f"{source}: expected a mapping")
        read = Reader(source)
        record = read.build(cls, mapping, "")
        read.reject_unread()
        return record


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, typing.Any, bool], ...]:
    """(name, type, required) of each field of ``cls`` that is read."""
    hints = typing.get_type_hints(cls)
    omitted = cls.OMITTED if issubclass(cls, Record) else ()
    return tuple(
        (f.name, hints[f.name],
         f.default is dataclasses.MISSING
         and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if f.name not in omitted
    )


@functools.cache
def _plan(cls: type) -> tuple[tuple[str, typing.Callable | None], ...]:
    """(key, ``_encoder``) of each key a ``cls`` record writes."""
    return tuple(
        (name, _encoder(tp)) for name, tp, _ in _fields(cls)
    ) + tuple((name, None) for name in cls.DERIVED)


def _encoder(tp) -> typing.Callable | None:
    """How a non-null value of annotation ``tp`` is written; ``None``: as
    it is."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        (tp,) = (a for a in typing.get_args(tp) if a is not type(None))
    if typing.get_origin(tp) in (list, tuple):
        return list
    if isinstance(tp, type) and issubclass(tp, Enum):
        return operator.attrgetter("value")
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.to_record
    return None


class Reader:
    """Reads one source's mappings into dataclasses, under the renames
    ``keys`` (see ``config._KEYS``); ``where`` is the key path of the
    mapping at hand, empty or ending in a dot. It remembers the keys it
    looked up in each mapping, so a section that several fields read
    accepts the key of any of them."""

    def __init__(self, source, keys: dict | None = None):
        self.source = source
        self.keys = keys or {}
        self._looked_up: dict[int, tuple[dict, str, set]] = {}

    def _look_up(self, mapping: dict, where: str, key: str) -> None:
        # The entry holds the mapping, so its id is not reused.
        self._looked_up.setdefault(id(mapping), (mapping, where, set()))[2].add(key)

    def reject_unread(self) -> None:
        """Raise on a key of a mapping read so far that was never looked up."""
        for mapping, where, looked_up in self._looked_up.values():
            for key in mapping:
                if key not in looked_up:
                    raise ConfigError(f"{self.source}: unknown key {where}{key}")

    def get(self, mapping: dict, key: str, tp, where: str,
            required: bool = True):
        """``mapping[key]`` as a ``tp``, or ``ABSENT``; a dotted key walks
        the sections on its way."""
        *sections, key = key.split(".")
        for name in sections:
            self._look_up(mapping, where, name)
            where += name
            mapping = self.convert(mapping.get(name, {}), dict, where)
            where += "."
        self._look_up(mapping, where, key)
        if key in mapping:
            return self.convert(mapping[key], tp, where + key)
        if required:
            raise ConfigError(f"{self.source}: missing key {where}{key}")
        return ABSENT

    def build(self, cls: type, mapping: dict, where: str, **given):
        """``cls`` from the keys of ``mapping``; ``given`` fields are set by
        the caller instead."""
        kwargs = dict(given)
        for name in getattr(cls, "DERIVED", ()):
            self._look_up(mapping, where, name)
        for name, tp, required in _fields(cls):
            key = self.keys.get((cls, name), name)
            if key is not None and name not in kwargs:
                value = self.get(mapping, key, tp, where, required)
                if value is not ABSENT:
                    kwargs[name] = value
        try:
            return cls(**kwargs)
        except ValueError as exc:
            section = where.rstrip(".")
            prefix = f"{section}: " if section else ""
            raise ConfigError(f"{self.source}: {prefix}{exc}") from exc

    def convert(self, value, tp, key: str):
        """Check ``value`` (found at ``key``) against the annotation ``tp``.

        Tuples are homogeneous: every item is read as the first type
        argument, and the dataclass checks the length.
        """
        origin, args = typing.get_origin(tp), typing.get_args(tp)
        if origin in (typing.Union, types.UnionType):
            if value is None:
                return None
            (tp,) = (a for a in args if a is not type(None))
            return self.convert(value, tp, key)
        if dataclasses.is_dataclass(tp):
            return self.build(tp, self.convert(value, dict, key), key + ".")
        if origin is dict:
            return {
                k: self.convert(v, args[1], f"{key}.{k}")
                for k, v in self.convert(value, dict, key).items()
            }
        if origin in (list, tuple, frozenset):
            return origin(
                self.convert(v, args[0], f"{key}[{i}]")
                for i, v in enumerate(self.convert(value, list, key))
            )
        if issubclass(tp, Enum):
            try:
                return tp(value)
            except ValueError:
                name = key.rpartition(".")[2]
                raise ConfigError(
                    f"{self.source}: {key}: unknown {name} {value!r}"
                ) from None
        if tp is float and type(value) is int:
            value = float(value)
        if not isinstance(value, tp) or (
            isinstance(value, bool) and tp is not bool
        ):
            raise ConfigError(
                f"{self.source}: {key}: expected {tp.__name__}, "
                f"got {type(value).__name__}"
            )
        if tp is float and not math.isfinite(value):
            raise ConfigError(
                f"{self.source}: {key}: expected a finite float, got {value}"
            )
        return value


def write_json(obj, path: str | Path | None = None) -> None:
    """``obj`` as indented JSON with sorted keys, to ``path`` or stdout."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def write_jsonl(path: str | Path, records: typing.Iterable[Record]) -> None:
    """One record per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.to_record(), sort_keys=True) + "\n")


def read_jsonl(path: str | Path, cls: type) -> typing.Iterator:
    """The ``cls`` records of a file ``write_jsonl`` wrote, one per
    non-blank line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                source = f"{path}:{lineno}"
                try:
                    rec = json.loads(line)
                except ValueError as exc:  # UnicodeDecodeError included
                    raise ConfigError(f"{source}: invalid JSON: {exc}") from None
                yield cls.from_record(rec, source)
