"""JSON inputs: every file the package reads, bundled or given by path.

A parsed object names its file in each error, so a malformed input is a
usage error (CLI exit 2). Kept apart from the physics layers, so that a
layer that only reads a file loads none of the others.
"""
from __future__ import annotations

import json
import numbers
import sys
from importlib import resources
from pathlib import Path


class _JsonObject(dict):
    """A parsed JSON object whose missing key raises ValueError naming the
    file and the key, so a malformed input is a usage error (CLI exit 2)
    and a bare KeyError stays a programming error."""

    def __init__(self, pairs, where):
        super().__init__(pairs)
        self.where = where

    def __missing__(self, key):
        raise ValueError(f"{self.where}: missing key '{key}'")

    def refuse_unknown(self, keys, what: str) -> None:
        """ValueError naming the file and every key outside ``keys``, the
        keys that ``what`` holds, so that no key a loader does not read is
        silently ignored."""
        unknown = sorted(set(self) - set(keys))
        if unknown:
            raise ValueError(f"{self.where}: unknown key(s) {unknown}; "
                             f"{what} holds {list(keys)}")

    def number(self, key, default=None):
        """The JSON number at ``key`` (``default`` when given and the key
        is absent); ValueError naming the file and the key otherwise."""
        value = self[key] if default is None else self.get(key, default)
        return _number(value, f"{self.where}: '{key}'")

    def object(self, key) -> "_JsonObject":
        """The JSON object at ``key``; ValueError naming the file and the
        key otherwise."""
        value = self[key]
        if not isinstance(value, _JsonObject):
            raise ValueError(f"{self.where}: '{key}' must be a JSON object, "
                             f"not {type(value).__name__}")
        return value

    def pairs(self, key, name=None) -> list:
        """The list of two-element lists at ``key``, as tuples; ValueError
        naming the file and ``name`` (default ``key``), or the entry that is
        no pair, otherwise."""
        name, value = name or key, self[key]
        if not isinstance(value, list):
            raise ValueError(f"{self.where}: '{name}' must be a list of "
                             "pairs")
        for k, item in enumerate(value):
            if not (isinstance(item, list) and len(item) == 2):
                raise ValueError(f"{self.where}: '{name}[{k}]' must be a "
                                 f"pair, not {item!r}")
        return [tuple(item) for item in value]

    def bounds(self, key) -> tuple:
        """The [low, high] pair at ``key``, each checked as by ``number``."""
        pair = self[key]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{self.where}: '{key}' must be [low, high]")
        return tuple(_number(v, f"{self.where}: '{key}'") for v in pair)


def _number(value, what: str):
    """``value`` if it is a finite real number (a bool is not a number, and
    an int too large for a float is not finite: the comparison is exact
    for any int, and false for NaN); otherwise ValueError saying that
    ``what`` must be one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, not {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be finite, not {value!r}")
    return value


def _loads(text: str, where):
    """The JSON value of ``text``, objects as _JsonObject naming ``where``;
    ValueError naming ``where`` when ``text`` is no JSON that Python can
    read (a syntax error, an integer of too many digits, nesting deeper
    than the recursion limit)."""
    try:
        return json.loads(text,
                          object_pairs_hook=lambda p: _JsonObject(p, where))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: not readable as JSON: {exc}") from None


def _json_file(path, what: str = "file") -> dict:
    """The JSON object in file ``path``, objects as _JsonObject naming the
    file; FileNotFoundError "no such <what>: <path>" when it is missing,
    ValueError naming it unless it holds an object."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such {what}: {path}")
    payload = _loads(path.read_text(encoding="utf-8"), path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object, not "
                         f"{type(payload).__name__}")
    return payload


def _read_json(kind: str, source) -> dict:
    """Parsed JSON of ``source``: an existing file path, else the bundled
    ``data/<kind>/<source>.json`` of this package (under whatever name it
    was imported); FileNotFoundError naming both otherwise."""
    path = Path(source)
    if not path.is_file():
        path = resources.files(__package__).joinpath(
            f"data/{kind}/{source}.json")
        if not path.is_file():
            raise FileNotFoundError(f"no file '{source}' and no bundled "
                                    f"data/{kind}/{source}.json")
    return _json_file(path)
