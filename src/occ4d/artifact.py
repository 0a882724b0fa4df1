"""The one on-disk container for every occ4d artifact.

An artifact (format 3) is the magic ``OCC4D\\0``, an 8-byte little-endian
header length, a sorted-key JSON header (``kind``, ``version``, the kind's
meta scalars and ``arrays``, a list of ``[name, dtype.str, shape]``), each
array's C-order bytes at the next 64-byte-aligned offset after zero padding,
and the little-endian CRC-32 of all bytes before it. Equal inputs give equal
bytes. Only bool, int, uint and float arrays are stored: no unpickling.

=============  ==========================================================
kind           arrays (dtype, shape) and meta scalars
=============  ==========================================================
scan           origins, dirs <f8 (n, 3); ranges, times, thickness <f8 (n,);
               miss u1 (n,); hit_kind <i4 (n,); meta rows, cols, max_range
feature-image  rotation <f8 (3, 3); translation <f8 (3,); depth <f8 (h, w);
               features <f4 (h, w, d_raw); intrinsics <f4 (4,) = fx, fy,
               cx, cy; meta time
pca            mean <f8 (d_raw,); components <f8 (d, d_raw);
               explained_variance <f8 (d,)
queryset       tags, labels u1 (n,); times <f4 (n,); positions <f4 (n, 3);
               feats <f4 (m, d), one row per FEATURE record
encoder-input  points0, points1, ... <f8 (n_i, 3); rel_times <f8 (k,)
checkpoint     one <f8 array per parameter, exactly the field's; meta mode,
               field_config, meta
=============  ==========================================================

The JSON helpers serve the run config, the scene files, the checkpoint's
field config and the report inputs. ``read_json`` reads a strict JSON file,
``check_json`` checks a document against a template of defaults, and
``to_json`` and ``from_json`` map a dataclass to and from a JSON object.
This module imports nothing else from occ4d, so each of those modules can
use them.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import asdict

import numpy as np

VERSION = 3
_MAGIC = b"OCC4D\0"
_ALIGN = 64
_KINDS = "biuf"  # bool, int, uint, float: no dtype that would need unpickling


def save(path, kind: str, meta: dict, **arrays) -> None:
    """Write ``arrays`` and ``meta`` as a ``kind`` artifact at exactly ``path``."""
    arrays = {name: np.asarray(a, order="C") for name, a in arrays.items()}
    for name, a in arrays.items():
        if a.dtype.kind not in _KINDS:
            raise ValueError(f"{path}: array {name!r} has dtype {a.dtype}, which a {kind} file cannot store")
    specs = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    header = json.dumps({"kind": kind, "version": VERSION, **meta, "arrays": specs}, sort_keys=True).encode()
    crc = 0
    with open(path, "wb") as f:
        for part in (_MAGIC + len(header).to_bytes(8, "little") + header, *arrays.values()):
            for b in (bytes(-f.tell() % _ALIGN), part):
                f.write(b)
                crc = zlib.crc32(b, crc)
        f.write(crc.to_bytes(4, "little"))


def load(path, kind: str):
    """Return ``(meta, arrays)`` of a ``kind`` artifact; ValueError naming
    ``path`` if it is cut short, corrupt, of another kind or format. Each
    array is read into its own buffer, so none keeps the file's bytes."""
    def corrupt(why):
        return ValueError(f"{path}: truncated or corrupt {kind} file ({why})")

    with open(path, "rb") as f:
        size, head = os.fstat(f.fileno()).st_size, f.read(len(_MAGIC) + 8)
        if not _MAGIC.startswith(head[: len(_MAGIC)]):
            hint = "; it is a format 2 zip" if head.startswith(b"PK\x03\x04") else ""
            raise ValueError(f"{path}: not an occ4d {kind} file (format {VERSION}){hint}")
        n = int.from_bytes(head[len(_MAGIC) :], "little")
        if len(head) < len(_MAGIC) + 8 or n > size - len(head):
            raise corrupt(f"{size} bytes")
        header = f.read(n)
        try:
            meta = json.loads(header)
            specs = [(name, np.dtype(dt), tuple(shape)) for name, dt, shape in meta.pop("arrays")]
        except (ValueError, TypeError, KeyError, AttributeError) as e:
            raise corrupt(e) from None
        if meta.get("kind") != kind or meta.get("version") != VERSION:
            found = f"{meta.get('kind')} format {meta.get('version')}"
            raise ValueError(f"{path}: not an occ4d {kind} file (format {VERSION}); it holds {found}")
        end = len(head) + n
        for name, dt, shape in specs:
            if not (isinstance(name, str) and dt.kind in _KINDS and all(type(d) is int and d >= 0 for d in shape)):
                raise corrupt(f"array {name!r} of dtype {dt.str} and shape {shape}")
            end += -end % _ALIGN + dt.itemsize * math.prod(shape)
        if end + 4 != size:
            raise corrupt(f"{size} bytes where the header lays out {end + 4}")
        crc, arrays = zlib.crc32(head + header), {}
        for name, dt, shape in specs:
            pad, arrays[name] = f.read(-f.tell() % _ALIGN), np.empty(shape, dt)
            f.readinto(arrays[name].reshape(-1))
            crc = zlib.crc32(arrays[name], zlib.crc32(pad, crc))
        if f.read(4) != crc.to_bytes(4, "little"):
            raise corrupt("CRC-32 mismatch")
    return meta, arrays


def to_json(obj) -> dict:
    """A dataclass instance as a JSON object: nested dataclasses become
    objects and tuples become lists."""
    return json.loads(json.dumps(asdict(obj)))


def from_json(cls, doc: dict, **extra):
    """A ``cls`` with the fields of the JSON object ``doc``, JSON lists as
    tuples, and the fields in ``extra``; absent fields keep their defaults."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}, **extra)


def read_json(path):
    """The JSON document in the file ``path``; ValueError naming ``path`` if
    it is not UTF-8 JSON (with line and column) or holds a number that is
    not finite (``NaN``, ``Infinity``, or one too large for a float)."""
    def number(text):
        x = float(text)
        if not math.isfinite(x):
            raise ValueError(f"{path}: {text} is not allowed; JSON numbers must be finite")
        return x

    with open(path) as f:
        try:
            return json.load(f, parse_float=number, parse_constant=number)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string", dict: "object", list: "array", tuple: "array"}


def check_json(doc, template, required=()) -> None:
    """Check the JSON value ``doc`` against ``template``, whose leaves are
    defaults of the JSON type each value must have; the ValueError starts
    with the key path and names the value given.

    - An object may hold only its template's keys, and must hold each key
      whose path is in ``required`` (``*`` stands for any array index).
    - Any number fits a float; a bool fits only a bool; 64.0 is no integer.
    - A tuple fixes its array's length, and so does a two-item list (a
      [low, high] pair); any other list takes any length. Every item must
      fit the template's first item.
    """
    _check(doc, template, {tuple(r.split("/")) for r in required}, ())


def _check(v, t, required, path) -> None:
    if not (type(v) is type(t) or type(t) is float and type(v) is int or type(t) is tuple and type(v) is list):
        raise ValueError(f"{_key(path)}: {v!r} is not of type {_JSON_TYPES[type(t)]!r}")
    if isinstance(t, dict):
        slot = tuple("*" if isinstance(p, int) else p for p in path)
        for k in t:
            if k not in v and (*slot, k) in required:
                raise ValueError(f"{_key((*path, k))}: missing required key")
        for k, x in v.items():
            if k not in t:
                raise ValueError(f"{_key((*path, k))}: unknown key")
            _check(x, t[k], required, (*path, k))
    elif isinstance(t, (list, tuple)):
        if (isinstance(t, tuple) or len(t) == 2) and len(v) != len(t):
            short = len(v) < len(t)
            raise ValueError(f"{_key(path)}: {v!r} is too {'short' if short else 'long'}; it must have {len(t)} items")
        for i, x in enumerate(v):
            _check(x, t[0], required, (*path, i))


def _key(path) -> str:
    """A key path as ``boxes/0/center``; the whole document is ``<root>``."""
    return "/".join(map(str, path)) or "<root>"
