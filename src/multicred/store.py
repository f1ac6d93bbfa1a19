"""Everything that reads or writes the format of a file multicred keeps:
one JSON parser (:func:`read_json`), one typed field accessor
(:func:`field`), one CSV row reader (:func:`read_csv`), whole-file
replacement (:func:`atomic_write`), and the stored form of float arrays
(:func:`encode_array`, :func:`decode_array`, :func:`write_json`). Each
reader raises the error class it is given: DomainError for dataset files
(exit 2 through the dataset reader), StateError for state files (exit 1).
"""

from __future__ import annotations

import base64
import csv
import json
import math
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from .domain import StateError


@contextmanager
def atomic_write(path: str | Path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` when the block exits.

    The content goes to a temporary file in the same directory, renamed
    over ``path`` once complete, so a reader sees the old file or the
    whole new one; if the block raises, ``path`` is left as it was. This
    guards against a failed process, not power loss (no fsync).
    ``newline`` is passed to :func:`open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# The escape of a UTF-16 surrogate, the only way a parsed string gets one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(path: str | Path, what: str, error: type[Exception], shape: type = dict):
    """The JSON value in ``path``, a file ``what`` names: an object if
    ``shape`` is dict, an array of objects if it is list.

    The file must be UTF-8 and strict JSON: no key repeated within an
    object, no ``NaN`` or ``Infinity``, and no escape of an unpaired UTF-16
    surrogate (``\\ud800``), which is no character. A file that breaks
    this, nests too deeply for the parser or holds another top-level value
    raises ``error`` naming ``what`` and ``path``.
    """
    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise error(f"{what} {path} repeats the key {key!r} in one object")
        return obj

    def constant(literal: str):
        raise error(f"{what} {path} holds {literal}, which is not a JSON number")

    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
        doc = json.loads(text, object_pairs_hook=unique, parse_constant=constant)
        if "\\" in text and _SURROGATE_ESCAPE.search(text):
            # The parser joins an escaped pair into one character, so a
            # surrogate left in a string is unpaired: UTF-8 has no form for it.
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
    except error:  # from the hooks; a DomainError is a ValueError too
        raise
    except UnicodeEncodeError as exc:
        raise error(f"{what} {path} holds \\u{ord(exc.object[exc.start]):04x}, "
                    f"an unpaired UTF-16 surrogate escape") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason} "
                    f"at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        offset = len(text[:exc.pos].encode("utf-8"))
        raise error(f"{what} {path} is not valid JSON: {exc.msg} at line {exc.lineno} "
                    f"column {exc.colno} (byte offset {offset})") from None
    except RecursionError:
        raise error(f"{what} {path} nests JSON arrays or objects too deeply") from None
    except ValueError as exc:  # an integer literal beyond the digit limit
        raise error(f"{what} {path} is not valid JSON: {exc}") from None
    if shape is dict and type(doc) is not dict:
        raise error(f"{what} {path} does not hold a JSON object")
    if shape is list and not (type(doc) is list and all(type(v) is dict for v in doc)):
        raise error(f"{what} {path} does not hold a JSON array of objects")
    return doc


def _shown(value) -> str:
    """``value`` as JSON for a message, its start only if it is long."""
    text = json.dumps(value)
    return text if len(text) <= 80 else f"{text[:60]}... ({len(text)} characters of JSON)"


_ABSENT = object()

_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", dict: "a JSON object", list: "a JSON array",
               type(None): "null", object: "a value"}


def field(doc: dict, name: str, kind: type | tuple[type, ...], what: str,
          error: type[Exception], default=_ABSENT,
          valid: Optional[Callable] = None, requirement: str = "", at: str = ""):
    """The value at the dotted ``name`` in the parsed JSON ``doc``.

    ``kind`` is a type or a tuple of them: bool, int (never a bool), float
    (any finite number, returned as a float), str, dict, list,
    ``type(None)``, or ``object`` for any value. An absent field gives
    ``default``; without one it is an ``error``, as is a value of another
    kind or one failing ``valid``, which ``requirement`` words. Messages
    name the document ``what`` and the field ``at + name``.
    """
    if type(doc) is dict and "." not in name:
        value = doc.get(name, _ABSENT)
    else:
        value, keys = doc, name.split(".")
        for j, key in enumerate(keys):
            if type(value) is not dict:
                where = (at + ".".join(keys[:j])).rstrip(".")
                raise error(f"{what} field {where} is {_shown(value)}, "
                            f"expected a JSON object")
            value = value.get(key, _ABSENT)
            if value is _ABSENT:
                break
    if value is _ABSENT:
        if default is _ABSENT:
            raise error(f"{what} has no field {at}{name}")
        return default
    # The common case first: a value of a wanted type that needs no conversion.
    found = type(value)
    if ((found is kind or type(kind) is tuple and found in kind) and found is not float
            and (valid is None or valid(value))):
        return value
    kinds = kind if type(kind) is tuple else (kind,)
    got = value
    if float in kinds and found in (int, float):
        try:
            got = float(value)
        except OverflowError:  # an integer beyond the float range
            got = math.inf
        ok = math.isfinite(got)
    else:
        ok = object in kinds or found in kinds
    if not ok or valid is not None and not valid(got):
        wanted = " or ".join(_KIND_NAMES[k] for k in kinds)
        raise error(f"{what} field {at}{name} is {_shown(value)}, "
                    f"expected {wanted}{' ' + requirement if requirement else ''}")
    return got


def read_csv(path: str | Path, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """The rows of the UTF-8 CSV file ``path``, each with the 1-based line
    it ends on. A byte that is not UTF-8, or a row the csv module rejects,
    raises ``error`` naming the path and line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                yield reader.line_num, row
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}:{line}: not UTF-8 text: {exc.reason} "
                        f"at byte offset {exc.start}") from None
        raise
    except csv.Error as exc:  # such as a field beyond the csv module's size limit
        raise error(f"{path}:{reader.line_num}: {exc}") from None


# Stored float arrays are little-endian float64 values, row-major, as one
# base64 string: 8 bytes a value, 32 base64 characters per 3 values.
STORED_DTYPE = np.dtype("<f8")


def encode_array(values: np.ndarray) -> str:
    """The stored form of a float array: its values as little-endian float64,
    row-major, in base64. :func:`decode_array` returns the same bits."""
    data = np.ascontiguousarray(values, dtype=STORED_DTYPE)
    return base64.b64encode(data).decode("ascii")


def decode_array(value, size: int, name: str) -> np.ndarray:
    """The ``size`` finite float64 values :func:`encode_array` stored as
    ``value``, a read-only array over the decoded bytes.

    ``value`` must be canonical base64 (no whitespace, padding only in the
    last 4-character group) of exactly ``size`` finite float64 values; any
    other value raises a StateError that begins with ``name``.
    """
    if not isinstance(value, str):
        raise StateError(f"{name} is not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError:  # binascii.Error, or a non-ASCII character
        raise StateError(f"{name} is not valid base64") from None
    if len(value) != 4 * -(-len(raw) // 3):  # "=" beyond the last group's padding
        raise StateError(f"{name} is not valid base64")
    if len(raw) % STORED_DTYPE.itemsize:
        raise StateError(f"{name} holds {len(raw)} bytes, not a whole number of float64 values")
    values = np.frombuffer(raw, dtype=STORED_DTYPE)
    if values.shape != (size,):
        raise StateError(f"{name} has shape {values.shape}, expected ({size},)")
    if not np.isfinite(values).all():
        raise StateError(f"{name} holds non-finite values")
    return values


# Values per chunk :func:`write_json` encodes at once: a whole number of
# 3-value (24-byte) groups, so no chunk but the last ends in base64 padding.
WRITE_BLOCK = 3 * 1024


def write_json(fh: TextIO, doc) -> None:
    """Write ``doc`` to ``fh`` as ``json.dumps(doc, sort_keys=True)`` would,
    with every numpy array as the string :func:`encode_array` gives.

    An array goes out :data:`WRITE_BLOCK` values at a time, so no string
    of a whole array and none of the whole document is ever built.
    """
    if isinstance(doc, np.ndarray):
        flat = np.ascontiguousarray(doc, dtype=STORED_DTYPE).ravel()
        fh.write('"')
        for lo in range(0, flat.size, WRITE_BLOCK):
            fh.write(encode_array(flat[lo:lo + WRITE_BLOCK]))
        fh.write('"')
    elif isinstance(doc, dict):
        fh.write("{")
        for j, key in enumerate(sorted(doc)):
            fh.write((", " if j else "") + json.dumps(key) + ": ")
            write_json(fh, doc[key])
        fh.write("}")
    elif isinstance(doc, list):
        fh.write("[")
        for j, item in enumerate(doc):
            if j:
                fh.write(", ")
            write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(doc))
