"""The learnable continuous 4D field.

A pillar-histogram encoder (linear embed + two 3x3 convolutions) produces a
bird's-eye-view feature grid; three small perceptron heads decode occupancy
logits, feature vectors, and ego-path logits at continuous (x, y, z, t) via
bilinear grid interpolation concatenated with a Fourier encoding of (z, t).

Everything is plain numpy with hand-derived backward passes; tests pin the
gradients against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import per_ray_rng
from .queries import EncoderInput, OCCUPANCY_TAGS, QuerySet, TAG_EGO_NEG, TAG_EGO_POS, TAG_FEATURE

_INIT_STREAM = 0x1417

MODE_FIT_PER_SCENE = "fit_per_scene"
MODE_AMORTIZED = "amortized"

HEAD_NAMES = ("occ", "feat", "ego")


class OutOfRegionError(ValueError):
    pass


@dataclass(frozen=True)
class FieldConfig:
    x_range: tuple = (-18.0, 18.0)
    y_range: tuple = (-18.0, 18.0)
    cell: float = 0.5
    channels: int = 32
    z_range: tuple = (-0.4, 3.0)
    t_max: float = 3.0
    n_freqs: int = 4
    head_hidden: int = 64
    d_feat: int = 16
    k_past: int = 3
    leaky_slope: float = 0.1

    def __post_init__(self):
        if self.cell <= 0 or self.channels < 1 or self.head_hidden < 1:
            raise ValueError("invalid field config")
        if not 0.0 <= self.leaky_slope <= 1.0:
            raise ValueError("leaky_slope must be in [0, 1]")

    @property
    def grid_w(self) -> int:
        return int(round((self.x_range[1] - self.x_range[0]) / self.cell))

    @property
    def grid_h(self) -> int:
        return int(round((self.y_range[1] - self.y_range[0]) / self.cell))

    @property
    def hist_channels(self) -> int:
        return 2 * self.k_past

    @property
    def fourier_dim(self) -> int:
        return 4 * self.n_freqs

    @property
    def head_in(self) -> int:
        return self.channels + self.fourier_dim

    def head_out(self, name: str) -> int:
        return self.d_feat if name == "feat" else 1


@dataclass
class FieldParams:
    """Named parameter tensors plus the geometry they were built for."""

    config: FieldConfig
    mode: str
    params: dict

    def copy(self) -> "FieldParams":
        return FieldParams(self.config, self.mode, {k: v.copy() for k, v in self.params.items()})


def _param_shapes(cfg: FieldConfig, mode: str) -> list:
    shapes = []
    if mode == MODE_FIT_PER_SCENE:
        shapes.append(("grid.z", (cfg.grid_h, cfg.grid_w, cfg.channels)))
    elif mode == MODE_AMORTIZED:
        c = cfg.channels
        shapes += [
            ("enc.embed.w", (cfg.hist_channels, c)),
            ("enc.embed.b", (c,)),
            ("enc.conv1.w", (3, 3, c, c)),
            ("enc.conv1.b", (c,)),
            ("enc.conv2.w", (3, 3, c, c)),
            ("enc.conv2.b", (c,)),
        ]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for name in HEAD_NAMES:
        hid, out = cfg.head_hidden, cfg.head_out(name)
        shapes += [
            (f"head.{name}.w1", (cfg.head_in, hid)),
            (f"head.{name}.b1", (hid,)),
            (f"head.{name}.w2", (hid, hid)),
            (f"head.{name}.b2", (hid,)),
            (f"head.{name}.w3", (hid, out)),
            (f"head.{name}.b3", (out,)),
        ]
    return shapes


def init_params(cfg: FieldConfig, seed: int, mode: str = MODE_AMORTIZED, zero: bool = False) -> FieldParams:
    """Weights U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero, grid zero.

    ``zero=True`` zeroes every tensor (constant 0.5-probability predictor,
    used as the untrained baseline in tests)."""
    gen = per_ray_rng(seed, 0, _INIT_STREAM)
    params = {}
    for name, shape in _param_shapes(cfg, mode):
        base = name.rsplit(".", 1)[-1]
        if zero or base.startswith("b") or name == "grid.z":
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / math.sqrt(fan_in)
            params[name] = gen.uniform(-bound, bound, size=shape)
    return FieldParams(cfg, mode, params)


# ---------------------------------------------------------------------------
# encoder


def pillar_histogram(enc: EncoderInput, cfg: FieldConfig) -> np.ndarray:
    """Per-scan pillar features: log-scaled point count and mean height.

    Points outside the grid region contribute nothing. Output shape
    (H, W, 2 * k_past); missing trailing scans leave zero channels.
    """
    h, w = cfg.grid_h, cfg.grid_w
    out = np.zeros((h, w, 2 * cfg.k_past))
    for k, pts in enumerate(enc.point_sets[: cfg.k_past]):
        if len(pts) == 0:
            continue
        ix = np.floor((pts[:, 0] - cfg.x_range[0]) / cfg.cell).astype(np.int64)
        iy = np.floor((pts[:, 1] - cfg.y_range[0]) / cfg.cell).astype(np.int64)
        keep = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        ix, iy, z = ix[keep], iy[keep], pts[keep, 2]
        count = np.zeros((h, w))
        zsum = np.zeros((h, w))
        np.add.at(count, (iy, ix), 1.0)
        np.add.at(zsum, (iy, ix), z)
        out[:, :, 2 * k] = np.log1p(count)
        with np.errstate(invalid="ignore"):
            out[:, :, 2 * k + 1] = np.where(count > 0, zsum / np.maximum(count, 1.0), 0.0)
    return out


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 same-padded convolution, (H,W,Cin) x (3,3,Cin,Cout) -> (H,W,Cout)."""
    h, wd, cin = x.shape
    xp = np.zeros((h + 2, wd + 2, cin))
    xp[1:-1, 1:-1] = x
    out = np.broadcast_to(b, (h, wd, w.shape[3])).copy()
    for dy in range(3):
        for dx in range(3):
            out += xp[dy : dy + h, dx : dx + wd] @ w[dy, dx]
    return out


def _conv2d_backward(x: np.ndarray, w: np.ndarray, dout: np.ndarray):
    h, wd, cin = x.shape
    cout = w.shape[3]
    xp = np.zeros((h + 2, wd + 2, cin))
    xp[1:-1, 1:-1] = x
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    flat_dout = dout.reshape(-1, cout)
    for dy in range(3):
        for dx in range(3):
            patch = xp[dy : dy + h, dx : dx + wd].reshape(-1, cin)
            dw[dy, dx] = patch.T @ flat_dout
            dxp[dy : dy + h, dx : dx + wd] += dout @ w[dy, dx].T
    db = flat_dout.sum(axis=0)
    return dw, db, dxp[1:-1, 1:-1]


def _leaky(x: np.ndarray, slope: float, out=None) -> np.ndarray:
    # for 0 <= slope <= 1 the same bits as np.where(x > 0, x, slope * x)
    return np.maximum(x, slope * x, out=out)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, 1.0, slope)


def encode(fp: FieldParams, enc_input: EncoderInput, want_cache: bool = False):
    """Pillar histogram -> linear embed -> conv -> leaky -> conv -> Z."""
    if fp.mode != MODE_AMORTIZED:
        raise ValueError("encode requires amortized-mode parameters")
    cfg = fp.config
    p = fp.params
    hist = pillar_histogram(enc_input, cfg)
    x0 = hist @ p["enc.embed.w"] + p["enc.embed.b"]
    pre1 = _conv2d(x0, p["enc.conv1.w"], p["enc.conv1.b"])
    h1 = _leaky(pre1, cfg.leaky_slope)
    z = _conv2d(h1, p["enc.conv2.w"], p["enc.conv2.b"])
    if want_cache:
        return z, {"hist": hist, "x0": x0, "pre1": pre1, "h1": h1}
    return z


def encode_backward(fp: FieldParams, cache: dict, dz: np.ndarray) -> dict:
    cfg = fp.config
    p = fp.params
    grads = {}
    dw2, db2, dh1 = _conv2d_backward(cache["h1"], p["enc.conv2.w"], dz)
    grads["enc.conv2.w"] = dw2
    grads["enc.conv2.b"] = db2
    dpre1 = dh1 * _leaky_grad(cache["pre1"], cfg.leaky_slope)
    dw1, db1, dx0 = _conv2d_backward(cache["x0"], p["enc.conv1.w"], dpre1)
    grads["enc.conv1.w"] = dw1
    grads["enc.conv1.b"] = db1
    hist_flat = cache["hist"].reshape(-1, cfg.hist_channels)
    dx0_flat = dx0.reshape(-1, cfg.channels)
    grads["enc.embed.w"] = hist_flat.T @ dx0_flat
    grads["enc.embed.b"] = dx0_flat.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# decoding


def fourier_zt(z: np.ndarray, t: np.ndarray, cfg: FieldConfig) -> np.ndarray:
    """sin/cos features of normalized z and t at octave frequencies.

    Column order: per octave k, [sin(w_k u_z), cos(w_k u_z), sin(w_k u_t),
    cos(w_k u_t)]."""
    uz = (np.asarray(z, dtype=np.float64) - cfg.z_range[0]) / (cfg.z_range[1] - cfg.z_range[0])
    ut = np.asarray(t, dtype=np.float64) / cfg.t_max
    cols = []
    for k in range(cfg.n_freqs):
        w = 2.0 * math.pi * (2.0 ** k)
        cols += [np.sin(w * uz), np.cos(w * uz), np.sin(w * ut), np.cos(w * ut)]
    return np.stack(cols, axis=-1)


def fourier_zt_grads(z: np.ndarray, t: np.ndarray, cfg: FieldConfig):
    """(d features / dz, d features / dt), same column order as fourier_zt."""
    sz = cfg.z_range[1] - cfg.z_range[0]
    uz = (np.asarray(z, dtype=np.float64) - cfg.z_range[0]) / sz
    ut = np.asarray(t, dtype=np.float64) / cfg.t_max
    dz_cols, dt_cols = [], []
    zero = np.zeros_like(uz)
    for k in range(cfg.n_freqs):
        w = 2.0 * math.pi * (2.0 ** k)
        dz_cols += [w / sz * np.cos(w * uz), -w / sz * np.sin(w * uz), zero, zero]
        dt_cols += [zero, zero, w / cfg.t_max * np.cos(w * ut), -w / cfg.t_max * np.sin(w * ut)]
    return np.stack(dz_cols, axis=-1), np.stack(dt_cols, axis=-1)


def _interp_setup(z_grid: np.ndarray, x: np.ndarray, y: np.ndarray, cfg: FieldConfig):
    if np.any(x < cfg.x_range[0]) or np.any(x > cfg.x_range[1]) or np.any(y < cfg.y_range[0]) or np.any(y > cfg.y_range[1]):
        raise OutOfRegionError("query position outside the field's x-y region")
    h, w = cfg.grid_h, cfg.grid_w
    u = np.clip((x - cfg.x_range[0]) / cfg.cell - 0.5, 0.0, w - 1.0)
    v = np.clip((y - cfg.y_range[0]) / cfg.cell - 0.5, 0.0, h - 1.0)
    i0 = np.minimum(np.floor(u).astype(np.int64), w - 2)
    j0 = np.minimum(np.floor(v).astype(np.int64), h - 2)
    fx = u - i0
    fy = v - j0
    w00 = (1 - fy) * (1 - fx)
    w01 = (1 - fy) * fx
    w10 = fy * (1 - fx)
    w11 = fy * fx
    return i0, j0, (w00, w01, w10, w11)


def interp_grid(z_grid: np.ndarray, x: np.ndarray, y: np.ndarray, cfg: FieldConfig, want_cache=False):
    """Bilinear interpolation of the grid at continuous (x, y); the outer
    half-cell ring clamps to the edge cells, keeping outputs continuous up
    to the region boundary."""
    i0, j0, (w00, w01, w10, w11) = _interp_setup(z_grid, x, y, cfg)
    out = (
        w00[:, None] * z_grid[j0, i0]
        + w01[:, None] * z_grid[j0, i0 + 1]
        + w10[:, None] * z_grid[j0 + 1, i0]
        + w11[:, None] * z_grid[j0 + 1, i0 + 1]
    )
    if want_cache:
        return out, (i0, j0, (w00, w01, w10, w11))
    return out


def interp_backward(cache, dfeat: np.ndarray, grid_shape) -> np.ndarray:
    """Gradient of interp_grid's output w.r.t. the grid.

    One bincount over corner-major flat indices (corner, query, channel)
    adds into each grid entry in the order of one unbuffered scatter-add
    per corner, (j0, i0), (j0, i0+1), (j0+1, i0), (j0+1, i0+1), starting
    from 0.0; so no entry is -0.0."""
    i0, j0, weights = cache
    h, w, c = grid_shape
    cell = j0 * w + i0
    corners = np.concatenate([cell, cell + 1, cell + w, cell + w + 1])
    flat = (corners[:, None] * c + np.arange(c)).ravel()
    vals = np.concatenate([wk[:, None] * dfeat for wk in weights]).ravel()
    return np.bincount(flat, weights=vals, minlength=h * w * c).reshape(grid_shape)


def head_forward(fp: FieldParams, name: str, x: np.ndarray, want_cache=False):
    p = fp.params
    slope = fp.config.leaky_slope
    # in place where nothing is cached: the same bits from fewer, reused buffers
    pre1 = x @ p[f"head.{name}.w1"]
    pre1 += p[f"head.{name}.b1"]
    h1 = _leaky(pre1, slope, out=None if want_cache else pre1)
    pre2 = h1 @ p[f"head.{name}.w2"]
    pre2 += p[f"head.{name}.b2"]
    h2 = _leaky(pre2, slope, out=None if want_cache else pre2)
    out = h2 @ p[f"head.{name}.w3"] + p[f"head.{name}.b3"]
    if want_cache:
        return out, (x, pre1, h1, pre2, h2)
    return out


def head_backward(fp: FieldParams, name: str, cache, dout: np.ndarray):
    p = fp.params
    slope = fp.config.leaky_slope
    x, pre1, h1, pre2, h2 = cache
    grads = {}
    grads[f"head.{name}.w3"] = h2.T @ dout
    grads[f"head.{name}.b3"] = dout.sum(axis=0)
    dh2 = dout @ p[f"head.{name}.w3"].T
    dpre2 = dh2 * _leaky_grad(pre2, slope)
    grads[f"head.{name}.w2"] = h1.T @ dpre2
    grads[f"head.{name}.b2"] = dpre2.sum(axis=0)
    dh1 = dpre2 @ p[f"head.{name}.w2"].T
    dpre1 = dh1 * _leaky_grad(pre1, slope)
    grads[f"head.{name}.w1"] = x.T @ dpre1
    grads[f"head.{name}.b1"] = dpre1.sum(axis=0)
    dx = dpre1 @ p[f"head.{name}.w1"].T
    return grads, dx


def head_input(z_grid: np.ndarray, positions: np.ndarray, times: np.ndarray, cfg: FieldConfig, want_cache=False):
    positions = np.atleast_2d(positions)
    grid_feat = interp_grid(z_grid, positions[:, 0], positions[:, 1], cfg, want_cache=want_cache)
    if want_cache:
        grid_feat, cache = grid_feat
    ft = fourier_zt(positions[:, 2], times, cfg)
    x = np.concatenate([grid_feat, ft], axis=1)
    if want_cache:
        return x, cache
    return x


def query_field(fp: FieldParams, z_grid: np.ndarray, positions: np.ndarray, times: np.ndarray):
    """(occ_logit, feat, ego_logit) at continuous 4D points."""
    x = head_input(z_grid, np.atleast_2d(positions), np.asarray(times, dtype=np.float64), fp.config)
    occ = head_forward(fp, "occ", x)[:, 0]
    feat = head_forward(fp, "feat", x)
    ego = head_forward(fp, "ego", x)[:, 0]
    return occ, feat, ego


def query_head(fp: FieldParams, z_grid: np.ndarray, name: str, positions: np.ndarray, times: np.ndarray):
    """One head only; the occupancy fast path for dense evaluation."""
    x = head_input(z_grid, np.atleast_2d(positions), np.asarray(times, dtype=np.float64), fp.config)
    return head_forward(fp, name, x)


def lattice_head(fp: FieldParams, z_grid: np.ndarray, name: str, xy: np.ndarray, zs, t: float, chunk: int = 65536) -> np.ndarray:
    """One head on the lattice of (x, y) columns ``xy`` and heights ``zs`` at
    time ``t``, z-major (row k * len(xy) + i is column i at height zs[k]).
    Interpolates each column and encodes each height once, then runs the
    same ``chunk``-row blocks as ``query_head`` on ``chunk``-probe blocks:
    bit-identical, as BLAS rounds a row by its place in the block."""
    cfg = fp.config
    feat = interp_grid(z_grid, xy[:, 0], xy[:, 1], cfg)
    ft = fourier_zt(np.asarray(zs, dtype=np.float64), np.full(len(zs), float(t)), cfg)
    out = np.empty((len(zs) * len(xy), cfg.head_out(name)))
    for lo in range(0, len(out), chunk):
        rows = np.arange(lo, min(lo + chunk, len(out)))
        x = np.concatenate([feat[rows % len(xy)], ft[rows // len(xy)]], axis=1)
        out[lo : lo + len(rows)] = head_forward(fp, name, x)
    return out


def query_input_grads(fp: FieldParams, z_grid: np.ndarray, name: str, positions: np.ndarray, times: np.ndarray):
    """Analytic d(head output)/d(z, t) per query, for gradient checks."""
    positions = np.atleast_2d(positions)
    times = np.asarray(times, dtype=np.float64)
    x, _ = head_input(z_grid, positions, times, fp.config, want_cache=True)
    out, cache = head_forward(fp, name, x, want_cache=True)
    n_out = out.shape[1]
    cfg = fp.config
    dfz, dft = fourier_zt_grads(positions[:, 2], times, cfg)
    dz_out = np.zeros((len(positions), n_out))
    dt_out = np.zeros((len(positions), n_out))
    for j in range(n_out):
        dout = np.zeros_like(out)
        dout[:, j] = 1.0
        _, dx = head_backward(fp, name, cache, dout)
        dz_out[:, j] = np.sum(dx[:, cfg.channels :] * dfz, axis=1)
        dt_out[:, j] = np.sum(dx[:, cfg.channels :] * dft, axis=1)
    return out, dz_out, dt_out


# ---------------------------------------------------------------------------
# loss


def _bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # stable: max(x,0) - x*y + log(1 + exp(-|x|))
    return np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class Batch:
    """Flat training batch extracted from a QuerySet."""

    positions: np.ndarray
    times: np.ndarray
    occ_rows: np.ndarray
    occ_labels: np.ndarray
    feat_rows: np.ndarray
    feat_targets: np.ndarray
    ego_rows: np.ndarray
    ego_labels: np.ndarray

    @staticmethod
    def from_queryset(qs: QuerySet, record_indices: np.ndarray | None = None) -> "Batch":
        idx = np.arange(qs.n) if record_indices is None else np.asarray(record_indices)
        tags = qs.tags[idx]
        occ_sel = np.isin(tags, np.array(OCCUPANCY_TAGS, dtype=np.uint8))
        feat_sel = tags == TAG_FEATURE
        ego_sel = np.isin(tags, np.array([TAG_EGO_POS, TAG_EGO_NEG], dtype=np.uint8))
        rows = np.arange(len(idx))
        return Batch(
            positions=qs.positions[idx],
            times=qs.times[idx],
            occ_rows=rows[occ_sel],
            occ_labels=qs.labels[idx][occ_sel].astype(np.float64),
            feat_rows=rows[feat_sel],
            feat_targets=qs.feature_targets(idx[feat_sel]) if feat_sel.any() else np.zeros((0, qs.d)),
            ego_rows=rows[ego_sel],
            ego_labels=qs.labels[idx][ego_sel].astype(np.float64),
        )

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass
class LossTerms:
    total: float
    occ: float
    feat: float
    ego: float


def _term_weights(batch: Batch, weights, per_term_average: bool):
    lam_occ, lam_feat, lam_ego = weights
    if per_term_average:
        co = lam_occ / max(len(batch.occ_rows), 1)
        cf = lam_feat / max(len(batch.feat_rows), 1)
        ce = lam_ego / max(len(batch.ego_rows), 1)
    else:
        co = cf = ce = 1.0 / max(batch.n, 1)
        co *= lam_occ
        cf *= lam_feat
        ce *= lam_ego
    return co, cf, ce


def loss(fp: FieldParams, z_grid: np.ndarray, batch, weights=(1.0, 0.5, 0.1), per_term_average=True) -> LossTerms:
    """Weighted sum of per-term means: BCE for occupancy and ego labels,
    elementwise L1 for feature targets. Absent subsets contribute 0."""
    if isinstance(batch, QuerySet):
        batch = Batch.from_queryset(batch)
    if batch.n == 0:
        raise ValueError("batch must be non-empty")
    x = head_input(z_grid, batch.positions, batch.times, fp.config)
    occ_term = feat_term = ego_term = 0.0
    if len(batch.occ_rows):
        logits = head_forward(fp, "occ", x[batch.occ_rows])[:, 0]
        occ_term = float(np.mean(_bce_from_logits(logits, batch.occ_labels)))
    if len(batch.feat_rows):
        pred = head_forward(fp, "feat", x[batch.feat_rows])
        feat_term = float(np.mean(np.abs(pred - batch.feat_targets)))
    if len(batch.ego_rows):
        logits = head_forward(fp, "ego", x[batch.ego_rows])[:, 0]
        ego_term = float(np.mean(_bce_from_logits(logits, batch.ego_labels)))
    lam_occ, lam_feat, lam_ego = weights
    if per_term_average:
        total = lam_occ * occ_term + lam_feat * feat_term + lam_ego * ego_term
    else:
        co, cf, ce = _term_weights(batch, weights, False)
        total = (
            co * occ_term * len(batch.occ_rows)
            + cf * feat_term * len(batch.feat_rows)
            + ce * ego_term * len(batch.ego_rows)
        )
    return LossTerms(float(total), occ_term, feat_term, ego_term)


def loss_and_grads(
    fp: FieldParams,
    batch,
    z_grid: np.ndarray | None = None,
    enc_input: EncoderInput | None = None,
    weights=(1.0, 0.5, 0.1),
    per_term_average: bool = True,
    freeze_encoder: bool = False,
):
    """Loss plus exact analytic gradients of every parameter.

    In amortized mode pass ``enc_input`` (the grid is recomputed and the
    encoder receives gradients unless frozen); in fit-per-scene mode the
    grid itself is the parameter. Returns (LossTerms, grads dict).
    """
    if isinstance(batch, QuerySet):
        batch = Batch.from_queryset(batch)
    if batch.n == 0:
        raise ValueError("batch must be non-empty")
    cfg = fp.config
    enc_cache = None
    if fp.mode == MODE_AMORTIZED:
        if enc_input is None:
            raise ValueError("amortized mode needs enc_input")
        z_grid, enc_cache = encode(fp, enc_input, want_cache=True)
    elif z_grid is None:
        z_grid = fp.params["grid.z"]

    x, interp_cache = head_input(z_grid, batch.positions, batch.times, cfg, want_cache=True)
    co, cf, ce = _term_weights(batch, weights, per_term_average)
    lam = dict(zip(HEAD_NAMES, weights))

    grads = {}
    dx_total = np.zeros_like(x)
    occ_term = feat_term = ego_term = 0.0

    if len(batch.occ_rows):
        out, cache = head_forward(fp, "occ", x[batch.occ_rows], want_cache=True)
        logits = out[:, 0]
        occ_term = float(np.mean(_bce_from_logits(logits, batch.occ_labels)))
        dlogits = (co * (sigmoid(logits) - batch.occ_labels))[:, None]
        hg, dxh = head_backward(fp, "occ", cache, dlogits)
        grads.update(hg)
        dx_total[batch.occ_rows] += dxh
    if len(batch.feat_rows):
        out, cache = head_forward(fp, "feat", x[batch.feat_rows], want_cache=True)
        resid = out - batch.feat_targets
        feat_term = float(np.mean(np.abs(resid)))
        dout = cf / cfg.d_feat * np.sign(resid)
        hg, dxh = head_backward(fp, "feat", cache, dout)
        grads.update(hg)
        dx_total[batch.feat_rows] += dxh
    if len(batch.ego_rows):
        out, cache = head_forward(fp, "ego", x[batch.ego_rows], want_cache=True)
        logits = out[:, 0]
        ego_term = float(np.mean(_bce_from_logits(logits, batch.ego_labels)))
        dlogits = (ce * (sigmoid(logits) - batch.ego_labels))[:, None]
        hg, dxh = head_backward(fp, "ego", cache, dlogits)
        grads.update(hg)
        dx_total[batch.ego_rows] += dxh

    if per_term_average:
        total = lam["occ"] * occ_term + lam["feat"] * feat_term + lam["ego"] * ego_term
    else:
        total = (
            co * occ_term * len(batch.occ_rows)
            + cf * feat_term * len(batch.feat_rows)
            + ce * ego_term * len(batch.ego_rows)
        )

    dz = interp_backward(interp_cache, dx_total[:, : cfg.channels], z_grid.shape)
    if fp.mode == MODE_AMORTIZED and not freeze_encoder:
        grads.update(encode_backward(fp, enc_cache, dz))
    for v in grads.values():
        v += 0.0  # -0.0 -> +0.0, the gradient a sum from 0.0 gives; nothing else moves
    if fp.mode == MODE_FIT_PER_SCENE:
        grads["grid.z"] = dz  # summed from 0.0 already
    # a head with no rows in the batch, or a frozen encoder, gets zeros
    grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in fp.params.items()}
    return LossTerms(float(total), occ_term, feat_term, ego_term), grads
