"""Run configuration: one JSON document drives every pipeline stage.

The canonical-JSON sha256 of the fully-merged config is the run digest;
every artifact embeds it, and eval refuses checkpoints whose digest does
not match its own config unless forced.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import math
import os
import shutil
from dataclasses import fields
from pathlib import Path

from .artifact import from_json, to_json
from .evaluation import PAST_OFFSETS, EvalGrid
from .field import FieldConfig
from .geom import AugmentConfig
from .queries import Roi4, SamplerConfig
from .training import TrainConfig


def _section(cls, *leave_out: str) -> dict:
    """The defaults of dataclass ``cls`` as a config section, without the
    fields named in ``leave_out`` (set from other sections)."""
    doc = to_json(cls())
    for name in leave_out:
        del doc[name]
    return doc


DEFAULT_CONFIG = {
    "seed": 0,
    "suite": {
        "n_scenes": 4,
        "scene_seed_base": 1000,
        "n_boxes": [3, 6],
        "speed_max": 2.5,
        "ego_speed": [2.0, 3.5],
        "yaw_rate_max": 0.12,
        "region_half": 12.0,
        "ground_range": [0.0, 0.0],
        "d_raw": 24,
        "past_offsets": list(PAST_OFFSETS),
        "future_dt": 0.3,
        "n_future": 10,
        "image_times": [0.0, 0.6, 1.2, 1.8, 2.4, 3.0],
    },
    "pca": {"d": 16, "fit_subset": 50000},
    "sampler": _section(SamplerConfig, "seed"),
    # in degrees, where AugmentConfig holds radians: see augment_from
    "augment": {
        "theta_min_deg": -20.0,
        "theta_max_deg": 20.0,
        "rotation_enabled": True,
        "jitter_enabled": False,
        "jitter_tau": 1.0,
    },
    "field": _section(FieldConfig, "d_feat"),
    "train": _section(TrainConfig, "seed"),
    "eval": {**_section(EvalGrid), "raytrace": True, "ego_bev_step": 0.5, "thresholds": {}},
    "scaling": {"sample_counts": [1, 4, 16, 64], "seeds": [0], "total_steps": 800, "warmup_steps": 50},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if k not in out:
            raise KeyError(f"unknown config key: {k!r}")
        if isinstance(v, dict) and isinstance(out[k], dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        def reject(constant):
            raise ValueError(f"{path}: {constant} is not allowed; config numbers must be finite")

        with open(path) as f:
            try:
                user = json.load(f, parse_constant=reject)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
        try:
            cfg = _deep_merge(cfg, user)
        except KeyError as e:
            raise ValueError(f"{path}: {e.args[0]}") from None
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    return cfg


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def sampler_from(cfg: dict, seed: int | None = None) -> SamplerConfig:
    s = cfg["sampler"]
    return from_json(SamplerConfig, {**s, "roi": from_json(Roi4, s["roi"])}, seed=cfg["seed"] if seed is None else seed)


def augment_from(cfg: dict) -> AugmentConfig:
    a = cfg["augment"]
    return AugmentConfig(
        theta_min=math.radians(a["theta_min_deg"]),
        theta_max=math.radians(a["theta_max_deg"]),
        jitter_tau=a["jitter_tau"],
        rotation_enabled=a["rotation_enabled"],
        jitter_enabled=a["jitter_enabled"],
    )


def field_from(cfg: dict) -> FieldConfig:
    return from_json(FieldConfig, cfg["field"], d_feat=cfg["pca"]["d"])


def train_from(cfg: dict, seed: int | None = None, **overrides) -> TrainConfig:
    return from_json(TrainConfig, {**cfg["train"], **overrides}, seed=cfg["seed"] if seed is None else seed)


def evalgrid_from(cfg: dict) -> EvalGrid:
    return from_json(EvalGrid, {f.name: cfg["eval"][f.name] for f in fields(EvalGrid)})


# ---------------------------------------------------------------------------
# artifact manifests


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, stage: str, digest: str, extra: dict | None = None) -> Path:
    """List every file under out_dir with size + sha256; written last so its
    presence marks the stage complete."""
    out_dir = Path(out_dir)
    files = []
    for p in sorted(out_dir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            files.append(
                {
                    "path": p.relative_to(out_dir).as_posix(),
                    "bytes": p.stat().st_size,
                    "sha256": file_sha256(p),
                }
            )
    doc = {"stage": stage, "config_digest": digest, "files": files}
    if extra:
        doc.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
    return path


def read_manifest(out_dir) -> dict:
    with open(Path(out_dir) / "manifest.json") as f:
        return json.load(f)


@contextlib.contextmanager
def staged_output(path, force: bool = False):
    """Stage a directory atomically: work in a temp sibling, rename into
    place on success, clean up on failure."""
    out = Path(path)
    if out.exists() and not force:
        raise FileExistsError(f"output directory {out} already exists (use --force to overwrite)")
    tmp = out.parent / f".{out.name}.tmp-{os.getpid()}"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out.exists():
        shutil.rmtree(out)
    os.replace(tmp, out)


def env_default(name: str):
    return os.environ.get(f"OCC4D_{name.upper()}")
