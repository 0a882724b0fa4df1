"""The one on-disk container for every occ4d artifact.

An artifact is an uncompressed ``np.savez`` zip archive: one ``.npy`` member
per array, plus a ``meta`` member holding a JSON document with ``kind``,
``version`` and the kind's scalars. Zip members carry a fixed timestamp, so
equal inputs give equal bytes. Loading never unpickles. Members per kind:

=============  ==========================================================
kind           members (dtype, shape) and meta scalars
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
checkpoint     one <f8 member per parameter, then ``adam.m.<name>`` and
               ``adam.v.<name>`` moments; meta mode, step, field_config, meta
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
import zipfile
from dataclasses import asdict

import numpy as np

VERSION = 2
_ZIP_PREFIX = b"PK\x03\x04"


def save(path, kind: str, meta: dict, **arrays) -> None:
    """Write ``arrays`` and ``meta`` as a ``kind`` artifact at exactly ``path``."""
    doc = json.dumps({"kind": kind, "version": VERSION, **meta}, sort_keys=True)
    with open(path, "wb") as f:  # a handle, so np.savez appends no ".npz"
        np.savez(f, meta=np.array(doc), **arrays)


def load(path, kind: str):
    """Return ``(meta, arrays)`` of a ``kind`` artifact; ValueError naming
    ``path`` if it is cut short, corrupt, of another kind or format."""
    with open(path, "rb") as f:
        head = f.read(len(_ZIP_PREFIX))
        if len(head) < len(_ZIP_PREFIX):
            raise ValueError(f"{path}: truncated or corrupt {kind} file ({len(head)} bytes)")
        if head != _ZIP_PREFIX:
            raise ValueError(f"{path}: not an occ4d {kind} file (format {VERSION})")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as z:
                arrays = {name: z[name] for name in z.files}
            meta = json.loads(str(arrays.pop("meta")))
        except (KeyError, ValueError, zipfile.BadZipFile) as e:
            raise ValueError(f"{path}: truncated or corrupt {kind} file ({e})") from e
    if meta.get("kind") != kind or meta.get("version") != VERSION:
        found = f"{meta.get('kind')} format {meta.get('version')}"
        raise ValueError(f"{path}: not an occ4d {kind} file (format {VERSION}); it holds {found}")
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
    it is not JSON (with line and column) or holds a number that is not
    finite (``NaN``, ``Infinity``, or one too large for a float)."""
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
