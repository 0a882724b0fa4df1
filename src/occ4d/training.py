"""Training loop: Adam with warmup + cosine decay, checkpoints, loss CSV.

Batch composition at step s is a pure function of (seed, s) through
counter-based streams, so resuming from a checkpoint reproduces the
uninterrupted run exactly.
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
    init_params,
    loss_and_grads,
)
from .geom import per_ray_rng
from .queries import HEAD_TAGS, EncoderInput, QuerySet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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
    freeze_encoder: bool = False
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


@dataclass
class AdamState:
    m: dict
    v: dict

    @staticmethod
    def zeros(params: dict) -> "AdamState":
        return AdamState(
            {k: np.zeros_like(p) for k, p in params.items()},
            {k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(params: dict, grads: dict, state: AdamState, step_index: int, lr: float) -> None:
    """Standard bias-corrected Adam update of ``params`` and of the moment
    arrays in ``state``, all in place. step_index is 1-based.

    Per tensor, two scratch buffers take the textbook expressions
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
    lr m_hat / (sqrt(v_hat) + eps) through the same float64 operations, so
    the result has the same bits as evaluating them out of place."""
    bc1 = 1.0 - ADAM_BETA1 ** step_index
    bc2 = 1.0 - ADAM_BETA2 ** step_index
    for k, p in params.items():
        g, m, v = grads[k], state.m[k], state.v[k]
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
    adam_state: "AdamState"
    last_step: int


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


def train(
    samples: list,
    field_cfg: FieldConfig,
    cfg: TrainConfig,
    init: FieldParams | None = None,
    adam_state: AdamState | None = None,
    start_step: int = 0,
    stop_step: int | None = None,
    on_step=None,
) -> TrainResult:
    """Optimize the field on pre-generated samples.

    fit_per_scene mode requires exactly one sample and learns the grid
    directly; amortized mode re-encodes the selected sample each step.
    ``start_step``/``stop_step`` resume and interrupt a run without changing
    the schedule, so a resumed run reproduces the uninterrupted one exactly.
    Non-finite losses abort with the failing step index.
    """
    if not samples:
        raise ValueError("dataset must contain at least one sample")
    if cfg.mode == MODE_FIT_PER_SCENE and len(samples) != 1:
        raise ValueError("fit_per_scene expects exactly one sample")
    if cfg.mode == MODE_AMORTIZED and any(s.enc_input is None for s in samples):
        raise ValueError("amortized mode needs encoder inputs")

    fp = init.copy() if init is not None else init_params(field_cfg, cfg.seed, cfg.mode)
    if fp.mode != cfg.mode:
        raise ValueError(f"parameter mode {fp.mode!r} != train mode {cfg.mode!r}")
    state = adam_state if adam_state is not None else AdamState.zeros(fp.params)
    subsets = [{name: s.queries.indices_for(*tags) for name, tags in HEAD_TAGS.items()} for s in samples]

    history = []
    best_loss = math.inf
    last = cfg.total_steps if stop_step is None else min(stop_step, cfg.total_steps)
    for step in range(start_step + 1, last + 1):
        sel = int(per_ray_rng(cfg.seed, step, _STREAM_SAMPLE_SEL).integers(0, len(samples)))
        batch = draw_batch(samples[sel], subsets[sel], cfg, step)
        terms, grads = loss_and_grads(
            fp,
            batch,
            enc_input=samples[sel].enc_input if cfg.mode == MODE_AMORTIZED else None,
            weights=cfg.weights,
            per_term_average=cfg.per_term_average,
            freeze_encoder=cfg.freeze_encoder,
        )
        if not math.isfinite(terms.total):
            raise TrainingDiverged(step, terms.total)
        lr = lr_schedule(step, cfg)
        adam_step(fp.params, grads, state, step, lr)
        history.append((step, lr, terms.total, terms.occ, terms.feat, terms.ego))
        best_loss = min(best_loss, terms.total)
        if on_step is not None:
            on_step(step, terms)
    return TrainResult(fp, best_loss, history, state, last)


# ---------------------------------------------------------------------------
# artifacts


def write_loss_csv(history, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "lr", "total", "occ", "dino", "ego"])
        for row in history:
            w.writerow([row[0]] + [repr(float(v)) for v in row[1:]])


def save_checkpoint(path, fp: FieldParams, state: AdamState | None = None, step: int = 0, meta: dict | None = None) -> None:
    """Versioned checkpoint artifact: mode, step, field config and meta as
    metadata; parameters, then optional Adam moments, as named f64 arrays."""
    tensors = dict(fp.params)
    if state is not None:
        tensors.update({f"adam.m.{k}": v for k, v in state.m.items()})
        tensors.update({f"adam.v.{k}": v for k, v in state.v.items()})
    doc = {"mode": fp.mode, "step": int(step), "field_config": asdict(fp.config), "meta": meta or {}}
    artifact.save(path, "checkpoint", doc, **{k: np.asarray(v, "<f8") for k, v in tensors.items()})


def load_checkpoint(path):
    """Returns (FieldParams, AdamState | None, step, meta dict)."""
    doc, tensors = artifact.load(path, "checkpoint")
    cfg = artifact.from_json(FieldConfig, doc["field_config"])
    params = {k: v for k, v in tensors.items() if not k.startswith("adam.")}
    fp = FieldParams(cfg, doc["mode"], params)
    state = None
    moments_m = {k[len("adam.m.") :]: t for k, t in tensors.items() if k.startswith("adam.m.")}
    moments_v = {k[len("adam.v.") :]: t for k, t in tensors.items() if k.startswith("adam.v.")}
    if moments_m:
        state = AdamState(moments_m, moments_v)
    return fp, state, doc["step"], doc["meta"]
