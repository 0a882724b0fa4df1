"""Training loop: Adam with warmup + cosine decay, checkpoints, loss CSV.

Batch composition at step s is a pure function of (seed, s) through
counter-based streams, so a run repeats exactly.

``train`` runs every step in float32, TRAIN_DTYPE: it copies the params into
a flat float32 arena and works on views of it, beside two flat float32 Adam
moments, so a step runs one elementwise ``adam_step``; it returns float64
copies of the params, which checkpoints store. ``init_params`` draws values
that float32 holds exactly, and a float32 value survives the round trip, so
a tensor that training never moves comes back with its bits. Eval scores in
float32 too: ``scene_grid_for`` builds each grid in TRAIN_DTYPE, and the
heads score in their grid's dtype.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import artifact
from .field import (
    HEAD_NAMES,
    Batch,
    FieldConfig,
    FieldParams,
    MODE_AMORTIZED,
    MODE_FIT_PER_SCENE,
    _param_shapes,
    init_params,
    loss_and_grads,
)
from .geom import per_ray_rng
from .queries import HEAD_TAGS, EncoderInput, QuerySet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAIN_DTYPE = np.float32

_STREAM_SAMPLE_SEL = 0x5E1
_STREAM_BATCH_IDX = 0xB1D


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, value: float):
        self.step = step
        super().__init__(f"non-finite loss {value} at step {step}")


@dataclass(frozen=True)
class TrainConfig:
    """Loss weights and schedule. lambda defaults and the 4e-4 peak learning
    rate follow the published regime; step counts are desk scale."""

    lambda_occ: float = 1.0
    lambda_dino: float = 0.5
    lambda_ego: float = 0.1
    lr_max: float = 4e-4
    warmup_steps: int = 100
    total_steps: int = 2000
    batch_occ: int = 512
    batch_feat: int = 128
    batch_ego: int = 64
    seed: int = 0
    mode: str = MODE_AMORTIZED
    per_term_average: bool = True

    def __post_init__(self):
        if min(self.lambda_occ, self.lambda_dino, self.lambda_ego) < 0:
            raise ValueError("loss weights must be >= 0")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ValueError("warmup_steps must lie in [0, total_steps]")

    @property
    def weights(self) -> tuple:
        return (self.lambda_occ, self.lambda_dino, self.lambda_ego)


def lr_schedule(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max at step == warmup_steps, then cosine to 0 at
    the final step. ``step`` is 1-based."""
    if step < 1:
        raise ValueError("step is 1-based")
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.lr_max * step / cfg.warmup_steps
    span = max(cfg.total_steps - cfg.warmup_steps, 1)
    progress = (step - cfg.warmup_steps) / span
    return cfg.lr_max * 0.5 * (1.0 + math.cos(math.pi * min(progress, 1.0)))


def adam_step(p, g, m, v, step_index: int, lr: float) -> None:
    """Standard bias-corrected Adam update of the array ``p`` and of its
    moments ``m`` and ``v``, all in place, from the gradient ``g``.
    step_index is 1-based.

    Two scratch buffers take the textbook expressions
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    lr m_hat / (sqrt(v_hat) + eps) through the same operations in ``p``'s
    dtype (the Python-float constants take it), so the result has
    the same bits as evaluating them out of place."""
    bc1 = 1.0 - ADAM_BETA1 ** step_index
    bc2 = 1.0 - ADAM_BETA2 ** step_index
    a = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += a
    b = np.multiply(g, g)
    b *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += b
    m_hat = np.divide(m, bc1, out=a)
    denom = np.divide(v, bc2, out=b)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    m_hat *= lr
    m_hat /= denom
    p -= m_hat


@dataclass
class TrainSample:
    queries: QuerySet
    enc_input: EncoderInput | None = None


@dataclass
class TrainResult:
    params: FieldParams
    best_loss: float         # lowest single-minibatch loss seen
    history: list            # rows (step, lr, total, occ, dino, ego)


def draw_batch(sample: TrainSample, subsets: dict, cfg: TrainConfig, step: int) -> Batch:
    """Batch composition for one step: with-replacement draws per query kind,
    from a stream keyed only by (seed, step)."""
    gen = per_ray_rng(cfg.seed, step, _STREAM_BATCH_IDX)
    picked = []
    for name, want in zip(HEAD_NAMES, (cfg.batch_occ, cfg.batch_feat, cfg.batch_ego)):
        pool = subsets[name]
        if want > 0 and len(pool) > 0:
            picked.append(pool[gen.integers(0, len(pool), size=want)])
    if not picked:
        raise ValueError("batch composition selected no queries")
    return Batch.from_queryset(sample.queries, np.concatenate(picked))


def train(samples: list, field_cfg: FieldConfig, cfg: TrainConfig, on_step=None) -> TrainResult:
    """Optimize the field on pre-generated samples.

    fit_per_scene mode requires exactly one sample and learns the grid
    directly; amortized mode re-encodes the selected sample each step.
    Non-finite losses abort with the failing step index. The steps run in
    float32 (see the module docstring); the returned params are float64.
    """
    if not samples:
        raise ValueError("dataset must contain at least one sample")
    if cfg.mode == MODE_FIT_PER_SCENE and len(samples) != 1:
        raise ValueError("fit_per_scene expects exactly one sample")
    if cfg.mode == MODE_AMORTIZED and any(s.enc_input is None for s in samples):
        raise ValueError("amortized mode needs encoder inputs")

    fp = init_params(field_cfg, cfg.seed, cfg.mode)
    keys = list(fp.params)
    flat_p = np.concatenate([fp.params[k].ravel() for k in keys], dtype=TRAIN_DTYPE)
    ends = np.cumsum([fp.params[k].size for k in keys])
    views = {k: flat_p[end - t.size : end].reshape(t.shape) for (k, t), end in zip(fp.params.items(), ends)}
    fp = FieldParams(fp.config, fp.mode, views)
    flat_g, flat_m, flat_v = np.empty_like(flat_p), np.zeros_like(flat_p), np.zeros_like(flat_p)
    subsets = [{name: s.queries.indices_for(*tags) for name, tags in HEAD_TAGS.items()} for s in samples]

    history = []
    best_loss = math.inf
    for step in range(1, cfg.total_steps + 1):
        sel = int(per_ray_rng(cfg.seed, step, _STREAM_SAMPLE_SEL).integers(0, len(samples)))
        batch = draw_batch(samples[sel], subsets[sel], cfg, step)
        terms, grads = loss_and_grads(
            fp,
            batch,
            enc_input=samples[sel].enc_input if cfg.mode == MODE_AMORTIZED else None,
            weights=cfg.weights,
            per_term_average=cfg.per_term_average,
        )
        if not math.isfinite(terms.total):
            raise TrainingDiverged(step, terms.total)
        lr = lr_schedule(step, cfg)
        np.concatenate([grads[k].ravel() for k in keys], out=flat_g)
        adam_step(flat_p, flat_g, flat_m, flat_v, step, lr)
        history.append((step, lr, terms.total, terms.occ, terms.feat, terms.ego))
        best_loss = min(best_loss, terms.total)
        if on_step is not None:
            on_step(step, terms)
    return TrainResult(fp.astype(np.float64), best_loss, history)


# ---------------------------------------------------------------------------
# artifacts


def write_loss_csv(history, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "lr", "total", "occ", "dino", "ego"])
        for row in history:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])


def save_checkpoint(path, fp: FieldParams, meta: dict | None = None) -> None:
    """Versioned checkpoint artifact: mode, field config and meta as
    metadata; the parameters as named f64 arrays."""
    doc = {"mode": fp.mode, "field_config": asdict(fp.config), "meta": meta or {}}
    artifact.save(path, "checkpoint", doc, **{k: np.asarray(v, "<f8") for k, v in fp.params.items()})


def load_checkpoint(path):
    """Returns (FieldParams, meta dict). The arrays must be exactly the
    field's parameters, by name and shape."""
    doc, tensors = artifact.load(path, "checkpoint")
    cfg = artifact.from_json(FieldConfig, doc["field_config"])
    want = dict(_param_shapes(cfg, doc["mode"]))
    got = {k: t.shape for k, t in tensors.items()}
    if got != want:
        problems = {
            "missing": sorted(want.keys() - got.keys()),
            "unexpected": sorted(got.keys() - want.keys()),
            "misshapen": sorted(k for k in want.keys() & got.keys() if got[k] != want[k]),
        }
        found = "; ".join(f"{what} {', '.join(names)}" for what, names in problems.items() if names)
        raise ValueError(f"{path}: checkpoint arrays do not match the {doc['mode']} field: {found}")
    return FieldParams(cfg, doc["mode"], tensors), doc["meta"]
