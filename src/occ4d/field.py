"""The learnable continuous 4D field.

A pillar-histogram encoder (linear embed + two 3x3 convolutions) produces a
bird's-eye-view feature grid; three small perceptron heads decode occupancy
logits, feature vectors, and ego-path logits at continuous (x, y, z, t) via
bilinear grid interpolation concatenated with a Fourier encoding of (z, t).

The embed is linear, so conv1 folds it in (structural re-parameterisation,
as in RepVGG): it convolves the padded histogram plus a channel of ones with
taps E @ W1[tap], E = [embed.w; embed.b]. A tap costs (2 * k_past + 1) * C
multiply-adds a cell, not C * C, and conv1's input needs no gradient. The
params and the checkpoint keep the embed and conv1 apart.

A batch reads the grid only at its queries' bilinear corner cells T, so a
training step makes only those rows: ``loss_and_grads`` finds T, and the
encoder runs conv2 on T and conv1 on D, the grid cells of T's 3x3 windows.
Each conv is one GEMM of a cell's whole window, gathered by flat index from
the input padded by a ring of zeros, with the stacked taps; conv2 reads
conv1's output from a zeroed padded grid filled only on D. The backward
pass runs over T and D alone. Eval encodes every cell the same way, and a
row's bits do not depend on the cells beside it, where BLAS computes each
GEMM row on its own (OpenBLAS does at the default 32 channels). In
fit-per-scene mode the learned grid is read and differentiated whole.

A head's first layer is split at the grid's C channels: pre1 = x[:, :C] @
W1[:C], then pre1 += (x[:, C:] @ W1[C:] + b1). ``lattice_head`` takes the
first term once per (x, y) column and the second once per (time, z) layer.

Everything is plain numpy with hand-derived backward passes; tests pin the
gradients against central finite differences.

Two dtype rules. In training the params set the dtype: each float64 array
that meets them (the pillar histogram, padding, the leaky gradient's
constants, the interpolation weights and scatter, the Fourier columns and
the loss derivative) is cast once, with ``copy=False`` or into a buffer,
to the dtype of the parameter or grid it meets; conv1's input is built
once per (config, dtype) and kept on the EncoderInput. In
scoring (``query_head``, ``lattice_head``) the grid sets it: the head's
tensors are cast to the grid's dtype, so a float32 grid scores in float32
even from float64 params. With float64 everywhere every cast is a no-op and
every bit is kept. Positions and times stay float64 up to those casts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import per_ray_rng
from .queries import HEAD_TAGS, EncoderInput, QuerySet

_INIT_STREAM = 0x1417

MODE_FIT_PER_SCENE = "fit_per_scene"
MODE_AMORTIZED = "amortized"

HEAD_NAMES = tuple(HEAD_TAGS)


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
        geometry = f"x_range={self.x_range}, y_range={self.y_range}, z_range={self.z_range}, cell={self.cell}"
        if not all(map(math.isfinite, (*self.x_range, *self.y_range, *self.z_range, self.cell, self.t_max))):
            raise ValueError(f"field ranges, cell and t_max must be finite: {geometry}, t_max={self.t_max}")
        if self.cell <= 0 or self.channels < 1 or self.head_hidden < 1:
            raise ValueError("invalid field config")
        if min(self.grid_w, self.grid_h) < 1:
            raise ValueError(
                f"field {geometry} has a {self.grid_w} x {self.grid_h} grid; x and y each need at least one cell"
            )
        if not self.z_range[0] < self.z_range[1]:
            raise ValueError(f"field z_range={self.z_range} must run from low to high")
        if self.t_max <= 0:
            raise ValueError(f"field t_max must be positive, got {self.t_max}")
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

    def astype(self, dtype) -> "FieldParams":
        """A copy with every tensor in ``dtype``."""
        return FieldParams(self.config, self.mode, {k: v.astype(dtype) for k, v in self.params.items()})


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


def init_params(cfg: FieldConfig, seed: int, mode: str = MODE_AMORTIZED) -> FieldParams:
    """Weights U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero, grid zero."""
    gen = per_ray_rng(seed, 0, _INIT_STREAM)
    params = {}
    for name, shape in _param_shapes(cfg, mode):
        base = name.rsplit(".", 1)[-1]
        if base.startswith("b") or name == "grid.z":
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            bound = 1.0 / math.sqrt(fan_in)
            # values float32 holds exactly, so a float32 round trip keeps them
            params[name] = gen.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)
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


def _padded(cells: np.ndarray, w: int) -> np.ndarray:
    """Flat cell indices j * W + i as flat indices into the grid inside a
    one-cell ring, (H + 2) x (W + 2)."""
    return cells + 2 * (cells // w) + w + 3


def _taps(w: int) -> np.ndarray:
    """The padded flat offsets of a 3x3 window's taps, in (dy, dx) order."""
    return ((np.arange(3)[:, None] - 1) * (w + 2) + np.arange(3) - 1).ravel()


def _conv_at(xp: np.ndarray, p: np.ndarray, taps: np.ndarray, w: np.ndarray, b: np.ndarray):
    """A 3x3 conv (3,3,Cin,Cout) of the flat padded input ``xp`` at the
    padded flat cells ``p``: (windows, out). A cell's row of windows holds
    its taps' inputs in (dy, dx) order, (len(p), 9 * Cin), and out is one
    GEMM of them with the stacked taps, plus b."""
    windows = xp.take((p[:, None] + taps).ravel(), axis=0).reshape(len(p), -1)
    return windows, _gemm_rows(windows, w.reshape(-1, w.shape[3])) + b


def _conv_dx(dout: np.ndarray, w: np.ndarray, p: np.ndarray, taps: np.ndarray, n_pad: int) -> np.ndarray:
    """The input gradient of ``_conv_at`` on the n_pad rows of the flat
    padded input: each tap's dout @ W[tap]^T, an NN GEMM with the tap's
    contiguous transpose, scattered into zeros in (dy, dx) order."""
    dwin = dout @ np.ascontiguousarray(w.reshape(9, *w.shape[2:]).transpose(0, 2, 1))
    dxp = np.zeros((n_pad, w.shape[2]), dout.dtype)
    for k, off in enumerate(taps):  # p holds each cell once, so one tap's rows are distinct
        dxp[p + off] += dwin[k]
    return dxp


def _leaky(x: np.ndarray, slope: float, out=None) -> np.ndarray:
    # for 0 <= slope <= 1 the same bits as np.where(x > 0, x, slope * x)
    return np.maximum(x, slope * x, out=out)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.maximum(x > 0, x.dtype.type(slope))  # np.where(x > 0, 1, slope)'s bits, with no branch


def _gemm_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w with each row's bits independent of the other rows: numpy
    sends a 1-row ``a`` to BLAS gemv, which sums in another order than
    gemm, so it runs as two copies of its row."""
    return a @ w if len(a) != 1 else (np.concatenate([a, a]) @ w)[:1]


def encode(fp: FieldParams, enc_input: EncoderInput, cells=None, want_cache: bool = False):
    """Pillar histogram -> linear embed -> conv -> leaky -> conv -> Z at the
    distinct flat cells ``cells`` (j * W + i), as rows (len(cells), C), or
    as the grid (H, W, C) when ``cells`` is None. The embed is folded into
    conv1, which runs only on D, the grid cells of the cells' 3x3 windows
    (see the module docstring). The cache holds the padded cells ``pt`` and
    ``pd``, both convs' windows, the stacked embed ``e`` and conv1's output
    ``pre1``."""
    if fp.mode != MODE_AMORTIZED:
        raise ValueError("encode requires amortized-mode parameters")
    cfg = fp.config
    p = fp.params
    h, wd, c = cfg.grid_h, cfg.grid_w, cfg.channels
    dtype = p["enc.conv1.w"].dtype
    xp = enc_input.conv_input.get((cfg, dtype))
    if xp is None:  # flat, read-only, and shared by every step on the sample
        xp = np.zeros((h + 2, wd + 2, cfg.hist_channels + 1), dtype)
        xp[1:-1, 1:-1] = np.dstack([pillar_histogram(enc_input, cfg), np.ones((h, wd))])
        xp = enc_input.conv_input[cfg, dtype] = xp.reshape(-1, xp.shape[2])
        xp.flags.writeable = False
    taps = _taps(wd)
    pt = _padded(np.arange(h * wd) if cells is None else np.asarray(cells), wd)
    in_d = np.zeros((h + 2, wd + 2), bool)
    in_d.ravel()[(pt[:, None] + taps).ravel()] = True
    in_d[[0, -1]] = in_d[:, [0, -1]] = False  # the ring stays zero
    pd = np.flatnonzero(in_d)
    e = np.vstack([p["enc.embed.w"], p["enc.embed.b"]])
    cols1, pre1 = _conv_at(xp, pd, taps, e @ p["enc.conv1.w"], p["enc.conv1.b"])
    hp1 = np.zeros((in_d.size, c), dtype)
    hp1[pd] = _leaky(pre1, cfg.leaky_slope)
    cols2, z = _conv_at(hp1, pt, taps, p["enc.conv2.w"], p["enc.conv2.b"])
    if cells is None:
        z = z.reshape(h, wd, c)
    if want_cache:
        return z, {"pt": pt, "pd": pd, "taps": taps, "cols1": cols1, "cols2": cols2, "e": e, "pre1": pre1}
    return z


def encode_backward(fp: FieldParams, cache: dict, dz: np.ndarray) -> dict:
    """The encoder's gradients given dZ at the cells ``encode`` ran on, as
    rows or as the grid. Conv2's input gradient reaches only D. Conv1 gets
    only the folded taps' gradient G, (3,3,2*k_past+1,C); then conv1.w[tap]
    = E^T G[tap], and E's gradient, the embed's weight over its bias, sums
    G[tap] W1[tap]^T over the taps in (dy, dx) order."""
    cfg = fp.config
    p = fp.params
    c = cfg.channels
    w1, w2 = p["enc.conv1.w"], p["enc.conv2.w"]
    dz = dz.reshape(-1, c)
    grads = {"enc.conv2.w": (cache["cols2"].T @ dz).reshape(w2.shape), "enc.conv2.b": dz.sum(axis=0)}
    dhp1 = _conv_dx(dz, w2, cache["pt"], cache["taps"], (cfg.grid_h + 2) * (cfg.grid_w + 2))
    dpre1 = dhp1[cache["pd"]] * _leaky_grad(cache["pre1"], cfg.leaky_slope)
    g = (cache["cols1"].T @ dpre1).reshape(3, 3, -1, c)
    grads["enc.conv1.w"] = cache["e"].T @ g
    grads["enc.conv1.b"] = dpre1.sum(axis=0)
    de = sum(g[dy, dx] @ w1[dy, dx].T for dy in range(3) for dx in range(3))
    grads["enc.embed.w"], grads["enc.embed.b"] = de[:-1], de[-1]
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


def _interp_setup(x: np.ndarray, y: np.ndarray, cfg: FieldConfig, dtype):
    """(corners, weights) of bilinear interpolation at continuous (x, y):
    each query's four corner cells as flat indices j * W + i, (4, n), in
    the order (j0, i0), (j0, i0+1), (j0+1, i0), (j0+1, i0+1), and their
    weights in ``dtype``. The outer half-cell ring clamps to the edge
    cells, keeping outputs continuous up to the region boundary."""
    # written as "all inside" so that NaN, which compares False, fails it
    if not all(np.all(lo <= v) and np.all(v <= hi) for v, (lo, hi) in ((x, cfg.x_range), (y, cfg.y_range))):
        raise OutOfRegionError("query position outside the field's x-y region or NaN")
    h, w = cfg.grid_h, cfg.grid_w
    u = np.clip((x - cfg.x_range[0]) / cfg.cell - 0.5, 0.0, w - 1.0)
    v = np.clip((y - cfg.y_range[0]) / cfg.cell - 0.5, 0.0, h - 1.0)
    # u, v >= 0, so every corner lies in the grid; along an axis one cell
    # wide the far corner is the near one
    i0 = np.minimum(np.floor(u).astype(np.int64), max(w - 2, 0))
    j0 = np.minimum(np.floor(v).astype(np.int64), max(h - 2, 0))
    fx = u - i0
    fy = v - j0
    weights = ((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)
    cell = j0 * w + i0
    di, dj = min(w - 1, 1), min(h - 1, 1) * w
    corners = np.stack([cell, cell + di, cell + dj, cell + dj + di])
    return corners, tuple(wk.astype(dtype, copy=False) for wk in weights)


def interp_grid(rows: np.ndarray, corners: np.ndarray, weights) -> np.ndarray:
    """Bilinear interpolation from ``_interp_setup``'s corners and weights:
    each query's weighted sum of its four corner rows of ``rows``, a grid's
    cells flat (H * W, C) or a table of the cells a batch reads."""
    w00, w01, w10, w11 = weights
    return (
        w00[:, None] * rows[corners[0]]
        + w01[:, None] * rows[corners[1]]
        + w10[:, None] * rows[corners[2]]
        + w11[:, None] * rows[corners[3]]
    )


def interp_backward(corners: np.ndarray, weights, dfeat: np.ndarray, n_rows: int) -> np.ndarray:
    """Gradient (n_rows, C) of interp_grid's output w.r.t. its rows.

    One bincount over corner-major flat indices (corner, query, channel)
    adds into each entry in the order of one unbuffered scatter-add per
    corner, starting from 0.0; so no entry is -0.0."""
    c = dfeat.shape[1]
    flat = (corners.reshape(-1, 1) * c + np.arange(c)).ravel()
    vals = np.concatenate([wk[:, None] * dfeat for wk in weights]).ravel()
    drows = np.bincount(flat, weights=vals, minlength=n_rows * c).reshape(n_rows, c)
    return drows.astype(dfeat.dtype, copy=False)


def head_forward(fp: FieldParams, name: str, x: np.ndarray, want_cache=False):
    """The head, its first layer split, on each row of ``x``: out, or (out,
    (x, pre1, h1, pre2, h2)) with ``want_cache``; without a cache the hidden
    layers run in place. A row's output bits do not depend on its batch: a
    one-output head ends in a per-row einsum, not BLAS gemv, and every GEMM
    goes through ``_gemm_rows``."""
    c, w1 = fp.config.channels, fp.params[f"head.{name}.w1"]
    pre1 = _gemm_rows(x[:, :c], w1[:c])
    pre1 += _gemm_rows(x[:, c:], w1[c:]) + fp.params[f"head.{name}.b1"]
    return _head_from_pre1(fp, name, pre1, x, want_cache)


def _head_from_pre1(fp: FieldParams, name: str, pre1: np.ndarray, x=None, want_cache=False):
    """``head_forward`` from ``pre1`` on; ``x`` only goes into the cache."""
    p = fp.params
    slope = fp.config.leaky_slope
    h1 = _leaky(pre1, slope, out=None if want_cache else pre1)
    pre2 = _gemm_rows(h1, p[f"head.{name}.w2"])
    pre2 += p[f"head.{name}.b2"]
    h2 = _leaky(pre2, slope, out=None if want_cache else pre2)
    w3 = p[f"head.{name}.w3"]
    out = (np.einsum("ij,j->i", h2, w3[:, 0])[:, None] if w3.shape[1] == 1 else _gemm_rows(h2, w3)) + p[f"head.{name}.b3"]
    return (out, (x, pre1, h1, pre2, h2)) if want_cache else out


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


def head_input(z_grid: np.ndarray, positions: np.ndarray, times: np.ndarray, cfg: FieldConfig) -> np.ndarray:
    """The heads' input rows at probes on the grid (H, W, C): interpolated
    features, then the Fourier (z, t) columns."""
    positions = np.atleast_2d(positions)
    corners, weights = _interp_setup(positions[:, 0], positions[:, 1], cfg, z_grid.dtype)
    return _with_fourier(interp_grid(z_grid.reshape(-1, cfg.channels), corners, weights), positions, times, cfg)


def _with_fourier(feat: np.ndarray, positions: np.ndarray, times: np.ndarray, cfg: FieldConfig) -> np.ndarray:
    ft = fourier_zt(positions[:, 2], times, cfg).astype(feat.dtype, copy=False)
    return np.concatenate([feat, ft], axis=1)


def _head_in(fp: FieldParams, name: str, dtype) -> FieldParams:
    """Head ``name``'s tensors alone, in ``dtype`` (no copy where they are in it)."""
    prefix = f"head.{name}."
    params = {k: v.astype(dtype, copy=False) for k, v in fp.params.items() if k.startswith(prefix)}
    return FieldParams(fp.config, fp.mode, params)


def query_head(fp: FieldParams, z_grid: np.ndarray, name: str, positions: np.ndarray, times: np.ndarray):
    """One head at probes with per-probe times, in ``z_grid``'s dtype; see
    lattice_head for a lattice."""
    x = head_input(z_grid, np.atleast_2d(positions), np.asarray(times, dtype=np.float64), fp.config)
    return head_forward(_head_in(fp, name, z_grid.dtype), name, x)


# Rows per tile in lattice_head. Eval scores in float32 (see the module
# docstring): at the default 64 hidden units a row's pre1/h1, _leaky's slope
# * x and h2 take 768 bytes, 0.75 MiB at 1,024 rows, inside a 2 MiB L2 per
# core. Before the split first layer, on a 2-core Xeon (1 BLAS thread, 409,600
# probes, 21 alternating calls per size) float32 lattice_head took 137.5,
# 126.3, 116.6, 109.0 and 112.9 ms at tiles of 128, 256, ..., 2,048 rows;
# 1,024 beat 256 in 21 of 21 pairs. A float64 grid took 204.0 ms at 256 and
# 207.2 ms at 1,024. The size changes no score: this module guarantees that
# head_forward gives a row the same output bits in any batch.
_TILE = 1024


def lattice_head(fp: FieldParams, z_grid: np.ndarray, name: str, xy: np.ndarray, zs, times, out=None) -> np.ndarray:
    """One head on the lattice of (x, y) columns ``xy`` and heights ``zs`` at
    ``times`` (one or a sequence), time-major, then z-major: row (j * len(zs)
    + k) * len(xy) + i is column i at height zs[k] at times[j]. In
    ``z_grid``'s dtype it takes feat @ W1[:C] once per column and ft @ W1[C:]
    + b1 once per (time, z) layer, then per ``_TILE``-row tile adds the two
    into pre1 and runs the rest of the head: query_head's bits, as float64,
    written into ``out`` if given."""
    cfg = fp.config
    head = _head_in(fp, name, z_grid.dtype)
    c, w1 = cfg.channels, head.params[f"head.{name}.w1"]
    feat = interp_grid(z_grid.reshape(-1, c), *_interp_setup(xy[:, 0], xy[:, 1], cfg, z_grid.dtype))
    col = _gemm_rows(feat, w1[:c])
    ts = np.atleast_1d(np.asarray(times, dtype=np.float64))
    ft = fourier_zt(np.tile(np.asarray(zs, dtype=np.float64), len(ts)), np.repeat(ts, len(zs)), cfg)
    layer = _gemm_rows(ft.astype(z_grid.dtype, copy=False), w1[c:]) + head.params[f"head.{name}.b1"]
    out = np.empty((len(layer) * len(xy), cfg.head_out(name))) if out is None else out
    pre1 = np.empty((min(_TILE, len(out)), w1.shape[1]), z_grid.dtype)
    for a in range(0, len(out), _TILE):
        m, r = min(_TILE, len(out) - a), 0
        while r < m:  # the tile's pre1, one run of columns in one layer at a time
            k, i = divmod(a + r, len(xy))
            run = min(m - r, len(xy) - i)
            np.add(col[i : i + run], layer[k], out=pre1[r : r + run])
            r += run
        out[a : a + m] = _head_from_pre1(head, name, pre1[:m])
    return out


# ---------------------------------------------------------------------------
# loss


def _bce_from_logits(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # stable: max(x,0) - x*y + log(1 + exp(-|x|))
    return np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function with no overflow or branch; min(x, -x) is -|x| keeping a NaN's sign."""
    e = np.exp(np.minimum(x, -x))
    return np.maximum(x >= 0, e) / (1.0 + e)


@dataclass
class Batch:
    """Flat training batch extracted from a QuerySet: per head, the rows it
    is trained on and their targets (float labels for occ and ego, feature
    vectors for feat)."""

    positions: np.ndarray
    times: np.ndarray
    rows: dict
    targets: dict

    @staticmethod
    def from_queryset(qs: QuerySet, record_indices: np.ndarray | None = None) -> "Batch":
        idx = np.arange(qs.n) if record_indices is None else np.asarray(record_indices)
        tags = qs.tags[idx]
        rows, targets = {}, {}
        for name, head_tags in HEAD_TAGS.items():
            sel = np.logical_or.reduce([tags == tag for tag in head_tags])  # cheaper than np.isin on a batch
            rows[name] = np.flatnonzero(sel)
            targets[name] = qs.feature_targets(idx[sel]) if name == "feat" else qs.labels[idx][sel].astype(np.float64)
        return Batch(qs.positions[idx], qs.times[idx], rows, targets)

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass
class LossTerms:
    total: float
    occ: float
    feat: float
    ego: float


def _term_weights(batch: Batch, weights, per_term_average: bool) -> list:
    """Each head's weight on the sum of its per-row losses."""
    if per_term_average:
        return [lam / max(len(batch.rows[name]), 1) for name, lam in zip(HEAD_NAMES, weights)]
    return [1.0 / max(batch.n, 1) * lam for lam in weights]


def _head_loss(name: str, out: np.ndarray, target: np.ndarray):
    """A head's mean loss and its derivative per output element: BCE on the
    logit for occ and ego, elementwise L1 for feat. The derivative takes
    ``out``'s dtype; the targets are float64."""
    if name == "feat":
        resid = out - target
        return float(np.mean(np.abs(resid))), np.sign(resid).astype(out.dtype, copy=False)
    logits = out[:, 0]
    dlogits = (sigmoid(logits) - target).astype(out.dtype, copy=False)
    return float(np.mean(_bce_from_logits(logits, target))), dlogits[:, None]


def _heads_loss(fp: FieldParams, x: np.ndarray, batch: Batch, weights, per_term_average: bool, grads=None):
    """The batch's LossTerms from the heads' input rows ``x``, the forward
    pass of ``loss_and_grads``. Given a ``grads`` dict, each head's backward
    runs right after its forward, so its activations are freed before the
    next head runs; its gradients go into ``grads``. Returns (LossTerms,
    d total / d x or None)."""
    dx = None if grads is None else np.zeros_like(x)
    coeffs = _term_weights(batch, weights, per_term_average)
    terms = dict.fromkeys(HEAD_NAMES, 0.0)
    for name, c in zip(HEAD_NAMES, coeffs):
        rows = batch.rows[name]
        if len(rows):
            out, cache = head_forward(fp, name, x[rows], want_cache=True)
            terms[name], dloss = _head_loss(name, out, batch.targets[name])
            if grads is not None:  # c weighs each row's mean over its outputs
                head_grads, dx_rows = head_backward(fp, name, cache, c / out.shape[1] * dloss)
                grads.update(head_grads)
                dx[rows] += dx_rows
    if per_term_average:
        parts = [lam * terms[name] for name, lam in zip(HEAD_NAMES, weights)]
    else:
        parts = [c * terms[name] * len(batch.rows[name]) for name, c in zip(HEAD_NAMES, coeffs)]
    total = sum(parts[1:], parts[0])  # left to right, from the first part
    return LossTerms(float(total), **terms), dx


def loss_and_grads(
    fp: FieldParams,
    batch: Batch,
    enc_input: EncoderInput | None = None,
    weights=(1.0, 0.5, 0.1),
    per_term_average: bool = True,
):
    """Loss plus exact analytic gradients of every parameter. The loss is a
    weighted sum of per-term means: BCE for occupancy and ego labels,
    elementwise L1 for feature targets; absent subsets contribute 0.

    In amortized mode pass ``enc_input``: the batch reads the grid only at
    its queries' corner cells T, so the encoder makes only their rows and
    receives their gradients. In fit-per-scene mode the grid
    itself is the parameter. Returns (LossTerms, grads dict).
    """
    if batch.n == 0:
        raise ValueError("batch must be non-empty")
    cfg = fp.config
    dtype = fp.params["head.occ.w1"].dtype  # the params set the dtype
    at, weights_xy = _interp_setup(batch.positions[:, 0], batch.positions[:, 1], cfg, dtype)
    if fp.mode == MODE_AMORTIZED:
        if enc_input is None:
            raise ValueError("amortized mode needs enc_input")
        cells, at = np.unique(at, return_inverse=True)
        rows, enc_cache = encode(fp, enc_input, cells, want_cache=True)
    else:
        rows = fp.params["grid.z"].reshape(-1, cfg.channels)

    grads = {}
    at = at.reshape(4, -1)
    x = _with_fourier(interp_grid(rows, at, weights_xy), batch.positions, batch.times, cfg)
    terms, dx = _heads_loss(fp, x, batch, weights, per_term_average, grads)
    drows = interp_backward(at, weights_xy, dx[:, : cfg.channels], len(rows))
    if fp.mode == MODE_AMORTIZED:
        grads.update(encode_backward(fp, enc_cache, drows))
    for v in grads.values():
        v += 0.0  # -0.0 -> +0.0, the gradient a sum from 0.0 gives; nothing else moves
    if fp.mode == MODE_FIT_PER_SCENE:
        grads["grid.z"] = drows.reshape(fp.params["grid.z"].shape)  # summed from 0.0 already
    # a head with no rows in the batch gets zeros
    grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in fp.params.items()}
    return terms, grads
