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

``to_json`` and ``from_json`` map a dataclass to and from a JSON object, for
the checkpoint's field config, the run config's sections and the scene
file's sensors; this module imports nothing else from occ4d, so each of
those modules can use them.
"""

from __future__ import annotations

import json
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
