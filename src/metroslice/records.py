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
by the reverse walk: an enum becomes its value, a tuple or list a list,
and a nested record recurses.

Both directions come from one plan per class (``_plan``), built on first
use: each field's name, whether it is required, and the decoder and
encoder that one walk of its annotation gives (``_codec``). Reading and
writing a value then calls these, and looks at no type hint again.
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
        for key, _, _, encode in _plan(type(self)):
            value = getattr(self, key)
            rec[key] = value if encode is None or value is None else encode(value)
        for key in self.DERIVED:
            rec[key] = getattr(self, key)
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
def _plan(cls: type) -> tuple[tuple, ...]:
    """(name, required, decoder, encoder) of each field of ``cls`` that is
    read and written; see ``_codec``."""
    hints = typing.get_type_hints(cls)
    omitted = cls.OMITTED if issubclass(cls, Record) else ()
    return tuple(
        (f.name,
         f.default is dataclasses.MISSING
         and f.default_factory is dataclasses.MISSING,
         *_codec(hints[f.name]))
        for f in dataclasses.fields(cls)
        if f.name not in omitted
    )


@functools.cache
def _codec(tp) -> tuple[typing.Callable, typing.Callable | None]:
    """(decoder, encoder) of the annotation ``tp``, from one walk of it.

    ``decode(read, value, key)`` checks ``value``, found at ``key`` by the
    ``Reader`` ``read``, and returns it as a ``tp``. Tuples are
    homogeneous: every item is read as the first type argument, and the
    dataclass checks the length. ``encode`` writes a non-null value;
    ``None``: as it is.
    """
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        (tp,) = (a for a in args if a is not type(None))
        decode_value, encode = _codec(tp)

        def decode(read, value, key):
            return None if value is None else decode_value(read, value, key)
        return decode, encode
    if dataclasses.is_dataclass(tp):
        as_dict = _codec(dict)[0]

        def decode(read, value, key):
            return read.build(tp, as_dict(read, value, key), key + ".")
        return decode, tp.to_record if issubclass(tp, Record) else None
    if origin is dict:
        as_dict, decode_item = _codec(dict)[0], _codec(args[1])[0]

        def decode(read, value, key):
            return {k: decode_item(read, v, f"{key}.{k}")
                    for k, v in as_dict(read, value, key).items()}
        return decode, None
    if origin in (list, tuple, frozenset):
        as_list, decode_item = _codec(list)[0], _codec(args[0])[0]

        def decode(read, value, key):
            return origin(decode_item(read, v, f"{key}[{i}]")
                          for i, v in enumerate(as_list(read, value, key)))
        return decode, list if origin is not frozenset else None
    if issubclass(tp, Enum):
        def decode(read, value, key):
            try:
                return tp(value)
            except ValueError:
                name = key.rpartition(".")[2]
                raise ConfigError(
                    f"{read.source}: {key}: unknown {name} {value!r}"
                ) from None
        return decode, operator.attrgetter("value")

    def decode(read, value, key):
        if tp is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(
                    f"{read.source}: {key}: expected a finite float, got an "
                    f"integer past the float range"
                ) from None
        if not isinstance(value, tp) or (
            isinstance(value, bool) and tp is not bool
        ):
            raise ConfigError(
                f"{read.source}: {key}: expected {tp.__name__}, "
                f"got {type(value).__name__}"
            )
        if tp is float and not math.isfinite(value):
            raise ConfigError(
                f"{read.source}: {key}: expected a finite float, got {value}"
            )
        return value
    return decode, None


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

    def _look_up(self, mapping: dict, where: str) -> set:
        """The keys looked up so far in ``mapping``."""
        # The entry holds the mapping, so its id is not reused.
        return self._looked_up.setdefault(id(mapping), (mapping, where, set()))[2]

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
        return self._get(mapping, key, _codec(tp)[0], where, required)

    def _get(self, mapping: dict, key: str, decode, where: str, required: bool):
        """``get``, given the annotation's decoder in place of it."""
        *sections, key = key.split(".")
        for name in sections:
            self._look_up(mapping, where).add(name)
            where += name
            mapping = _codec(dict)[0](self, mapping.get(name, {}), where)
            where += "."
        self._look_up(mapping, where).add(key)
        if key in mapping:
            return decode(self, mapping[key], where + key)
        if required:
            raise ConfigError(f"{self.source}: missing key {where}{key}")
        return ABSENT

    def build(self, cls: type, mapping: dict, where: str, **given):
        """``cls`` from the keys of ``mapping``; ``given`` fields are set by
        the caller instead."""
        self._look_up(mapping, where).update(getattr(cls, "DERIVED", ()))
        for name, required, decode, _ in _plan(cls):
            key = self.keys.get((cls, name), name)
            if key is not None and name not in given:
                value = self._get(mapping, key, decode, where, required)
                if value is not ABSENT:
                    given[name] = value
        try:
            return cls(**given)
        except ValueError as exc:
            section = where.rstrip(".")
            prefix = f"{section}: " if section else ""
            raise ConfigError(f"{self.source}: {prefix}{exc}") from exc


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
                # ValueError includes UnicodeDecodeError; RecursionError is
                # a line nested past the interpreter's recursion limit.
                try:
                    rec = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise ConfigError(f"{source}: invalid JSON: {exc}") from None
                yield cls.from_record(rec, source)
