"""JSON files as the package writes and reads them.

A written file holds exactly ``json.dumps(doc)``: compact text on one line,
made by CPython's C encoder. It is written a piece at a time, so that
saving a large document never holds all of its text: a list longer than
``_BLOCK`` items goes out one block of items at a time, and a dict that
holds such a list one key at a time. Loading accepts any JSON whitespace.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

# Items of a list that one json.dumps call encodes together.
_BLOCK = 16

_SCALARS = frozenset((str, int, float, bool, type(None)))


def _key(key: Any) -> str:
    """A dict key as json.dumps writes it, non-string keys included."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    return json.dumps({key: None})[1:-len(": null}")]


def _flat(items: list) -> bool:
    """Whether every item is a scalar, a list of at most ``_BLOCK``
    scalars or a dict of scalars. C-level passes, with no Python loop."""
    types = set(map(type, items))
    if types <= _SCALARS:
        return True
    if types == {list}:
        inner = chain.from_iterable(items)
        return max(map(len, items)) <= _BLOCK and set(map(type, inner)) <= _SCALARS
    if types == {dict}:
        return set(map(type, chain.from_iterable(map(dict.values, items)))) <= _SCALARS
    return False


def _small(value: Any) -> bool:
    """Whether json.dumps may encode ``value`` in one call: it is a scalar,
    a flat list of at most ``_BLOCK`` items, or a dict of small values."""
    if type(value) is list:
        return len(value) <= _BLOCK and _flat(value)
    if type(value) is dict:
        return all(map(_small, value.values()))
    return True


def _pieces(value: Any) -> Iterator[str]:
    """The text of ``json.dumps(value)``, in pieces."""
    if _small(value):
        yield json.dumps(value)
    elif type(value) is dict:
        yield "{"
        for n, (key, item) in enumerate(value.items()):
            yield (", " if n else "") + _key(key) + ": "
            yield from _pieces(item)
        yield "}"
    else:
        flat = _flat(value)
        yield "["
        for start in range(0, len(value), _BLOCK):
            block = value[start : start + _BLOCK]
            if start:
                yield ", "
            if flat or all(map(_small, block)):
                yield json.dumps(block)[1:-1]
            else:
                for n, item in enumerate(block):
                    if n:
                        yield ", "
                    yield from _pieces(item)
        yield "]"


def write_json(doc: Any, path: str | os.PathLike) -> None:
    """Write ``json.dumps(doc)`` to ``path``, without holding all of it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_pieces(doc))


def _read_text(path: str | os.PathLike, error: type[Exception]) -> str:
    """The text of ``path``. Bytes that are not UTF-8 raise ``error``,
    naming the path and the byte where decoding failed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc


def read_json(path: str | os.PathLike, error: type[Exception]) -> Any:
    """The document in ``path``. Text that is not UTF-8 or not JSON raises
    ``error``, naming the byte, or the line and column, where reading failed."""
    try:
        return json.loads(_read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
