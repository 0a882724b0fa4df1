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

A head's first layer is split at the grid's C channels: pre1 = x[:, :C] @
W1[:C], then pre1 += (x[:, C:] @ W1[C:] + b1). ``lattice_head`` takes the
first term once per (x, y) column and the second once per (time, z) layer.

Everything is plain numpy with hand-derived backward passes; tests pin the
gradients against central finite differences.

Two dtype rules. In training the params set the dtype: each float64 array
that meets them (the pillar histogram, padding and scratch buffers, the
leaky gradient's constants, the interpolation weights and scatter, the
Fourier columns and the loss derivative) is cast once, with ``copy=False``
or into a buffer, to the dtype of the parameter or grid it meets. So float32
params run every layer in float32. In scoring (``query_head``, ``lattice_head``) the grid
sets it: the head's tensors are cast to the grid's dtype, so a float32 grid
scores in float32 even from float64 params. With float64 everywhere every
cast is a no-op and every bit is kept. Positions and times stay float64 up
to those casts.
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


# output rows per block of _shifted_matmuls: a block and its tap product
# stay in L2 at the default 72x72x32 grid
_CONV_ROWS = 8


# the conv's scratch arrays, kept across calls by name, shape and dtype (the
# two convs' inputs differ in channels): a fresh array of a megabyte or more
# costs a page fault per 4 KiB page on every call
_scratch = {}


def _scratch_array(name: str, shape: tuple, dtype) -> np.ndarray:
    """A zero-filled array on first use; later calls get it back as they
    left it."""
    buf = _scratch.get((name, shape, dtype))
    if buf is None:
        buf = _scratch[name, shape, dtype] = np.zeros(shape, dtype)
    return buf


def _shifted_matmuls(xp: np.ndarray, taps, out: np.ndarray) -> np.ndarray:
    """out += xp[i:i+H, j:j+W] @ m for each (i, j, m) of taps, in order.

    Runs _CONV_ROWS rows of out at a time. Each product is the same batch
    of per-row GEMMs as ``xp[i:i+H, j:j+W] @ m``, so the bits do not depend
    on the blocking."""
    h, wd = out.shape[:2]
    products = _scratch_array("products", (min(h, _CONV_ROWS), wd, out.shape[2]), out.dtype)
    for r in range(0, h, _CONV_ROWS):
        acc = out[r : r + _CONV_ROWS]
        product = products[: len(acc)]
        for i, j, m in taps:
            np.matmul(xp[r + i : r + i + len(acc), j : j + wd], m, out=product)
            acc += product
    return out


def _conv2d(xp: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 same-padded convolution of the zero-padded input,
    (H+2,W+2,Cin) x (3,3,Cin,Cout) -> (H,W,Cout)."""
    out = np.broadcast_to(b, (xp.shape[0] - 2, xp.shape[1] - 2, w.shape[3])).copy()
    return _shifted_matmuls(xp, [(dy, dx, w[dy, dx]) for dy in range(3) for dx in range(3)], out)


def _conv2d_dw(xp: np.ndarray, dout: np.ndarray) -> np.ndarray:
    """The tap gradient (3,3,Cin,Cout) of ``_conv2d(xp, w, b)`` given dout
    (H,W,Cout); each tap's (H*W, Cin) patch is a row range of one
    contiguous copy per column shift."""
    h, wd, cout = dout.shape
    cin = xp.shape[2]
    flat_dout = dout.reshape(-1, cout)
    dw = np.empty((3, 3, cin, cout), dout.dtype)
    cols = _scratch_array("cols", (h + 2, wd, cin), xp.dtype)
    for dx in range(3):
        np.copyto(cols, xp[:, dx : dx + wd])
        for dy in range(3):
            dw[dy, dx] = cols[dy : dy + h].reshape(-1, cin).T @ flat_dout
    return dw


def _conv2d_backward(xp: np.ndarray, w: np.ndarray, dout: np.ndarray):
    """Gradients (dw, db, dx) of ``_conv2d(xp, w, b)`` given dout (H,W,Cout).

    dx gathers from the padded dout, adding the taps in (dy, dx) order into
    zeros; a tap outside dout adds a GEMM's +0.0, so every element gets the
    same sum as scattering each tap into dx would. The tap weights stay
    transposed views: BLAS rounds a contiguous copy differently at some
    shapes."""
    h, wd = dout.shape[:2]
    cin, cout = w.shape[2], w.shape[3]
    dw = _conv2d_dw(xp, dout)
    db = dout.reshape(-1, cout).sum(axis=0)
    taps = [(2 - dy, 2 - dx, w[dy, dx].T) for dy in range(3) for dx in range(3)]
    doutp = _scratch_array("doutp", (h + 2, wd + 2, cout), dout.dtype)  # only the interior is ever written
    doutp[1:-1, 1:-1] = dout
    dxs = _shifted_matmuls(doutp, taps, np.zeros((h, wd, cin), dout.dtype))
    return dw, db, dxs


def _leaky(x: np.ndarray, slope: float, out=None) -> np.ndarray:
    # for 0 <= slope <= 1 the same bits as np.where(x > 0, x, slope * x)
    return np.maximum(x, slope * x, out=out)


def _leaky_grad(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(slope))


def encode(fp: FieldParams, enc_input: EncoderInput, want_cache: bool = False):
    """Pillar histogram -> linear embed -> conv -> leaky -> conv -> Z, with
    the embed folded into conv1 (see the module docstring). The cache holds
    conv1's padded input ``xp``, its ones channel 0 on the ring, the stacked
    embed ``e``, conv1's output ``pre1`` and conv2's padded input ``hp1``."""
    if fp.mode != MODE_AMORTIZED:
        raise ValueError("encode requires amortized-mode parameters")
    cfg = fp.config
    p = fp.params
    h, wd, k = cfg.grid_h, cfg.grid_w, cfg.hist_channels
    xp = np.zeros((h + 2, wd + 2, k + 1), p["enc.conv1.w"].dtype)
    xp[1:-1, 1:-1, :k] = pillar_histogram(enc_input, cfg)
    xp[1:-1, 1:-1, k] = 1.0
    e = np.vstack([p["enc.embed.w"], p["enc.embed.b"]])
    pre1 = _conv2d(xp, e @ p["enc.conv1.w"], p["enc.conv1.b"])
    hp1 = np.zeros((h + 2, wd + 2, cfg.channels), pre1.dtype)
    _leaky(pre1, cfg.leaky_slope, out=hp1[1:-1, 1:-1])
    z = _conv2d(hp1, p["enc.conv2.w"], p["enc.conv2.b"])
    if want_cache:
        return z, {"xp": xp, "e": e, "pre1": pre1, "hp1": hp1}
    return z


def encode_backward(fp: FieldParams, cache: dict, dz: np.ndarray) -> dict:
    """The encoder's gradients given dZ. Conv1 gets only the folded taps'
    gradient G, (3,3,2*k_past+1,C); then conv1.w[tap] = E^T G[tap], and E's
    gradient, the embed's weight over its bias, sums G[tap] W1[tap]^T over
    the taps in (dy, dx) order."""
    cfg = fp.config
    p = fp.params
    grads = {}
    dw2, db2, dh1 = _conv2d_backward(cache["hp1"], p["enc.conv2.w"], dz)
    grads["enc.conv2.w"] = dw2
    grads["enc.conv2.b"] = db2
    dpre1 = dh1 * _leaky_grad(cache["pre1"], cfg.leaky_slope)
    g = _conv2d_dw(cache["xp"], dpre1)
    w1 = p["enc.conv1.w"]
    grads["enc.conv1.w"] = cache["e"].T @ g
    grads["enc.conv1.b"] = dpre1.reshape(-1, cfg.channels).sum(axis=0)
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


def _interp_setup(z_grid: np.ndarray, x: np.ndarray, y: np.ndarray, cfg: FieldConfig):
    # written as "all inside" so that NaN, which compares False, fails it
    if not all(np.all(lo <= v) and np.all(v <= hi) for v, (lo, hi) in ((x, cfg.x_range), (y, cfg.y_range))):
        raise OutOfRegionError("query position outside the field's x-y region or NaN")
    h, w = cfg.grid_h, cfg.grid_w
    u = np.clip((x - cfg.x_range[0]) / cfg.cell - 0.5, 0.0, w - 1.0)
    v = np.clip((y - cfg.y_range[0]) / cfg.cell - 0.5, 0.0, h - 1.0)
    # u, v >= 0, so every corner lies in the grid; along an axis one cell
    # wide the far corner is the near one (see interp_grid)
    i0 = np.minimum(np.floor(u).astype(np.int64), max(w - 2, 0))
    j0 = np.minimum(np.floor(v).astype(np.int64), max(h - 2, 0))
    fx = u - i0
    fy = v - j0
    weights = ((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)
    return i0, j0, tuple(wk.astype(z_grid.dtype, copy=False) for wk in weights)


def interp_grid(z_grid: np.ndarray, x: np.ndarray, y: np.ndarray, cfg: FieldConfig, want_cache=False):
    """Bilinear interpolation of the grid at continuous (x, y); the outer
    half-cell ring clamps to the edge cells, keeping outputs continuous up
    to the region boundary."""
    i0, j0, (w00, w01, w10, w11) = _interp_setup(z_grid, x, y, cfg)
    i1, j1 = i0 + min(cfg.grid_w - 1, 1), j0 + min(cfg.grid_h - 1, 1)
    out = (
        w00[:, None] * z_grid[j0, i0]
        + w01[:, None] * z_grid[j0, i1]
        + w10[:, None] * z_grid[j1, i0]
        + w11[:, None] * z_grid[j1, i1]
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
    di, dj = min(w - 1, 1), min(h - 1, 1) * w
    corners = np.concatenate([cell, cell + di, cell + dj, cell + dj + di])
    flat = (corners[:, None] * c + np.arange(c)).ravel()
    vals = np.concatenate([wk[:, None] * dfeat for wk in weights]).ravel()
    dz = np.bincount(flat, weights=vals, minlength=h * w * c).reshape(grid_shape)
    return dz.astype(dfeat.dtype, copy=False)


def head_forward(fp: FieldParams, name: str, x: np.ndarray, want_cache=False):
    """The head, its first layer split, on each row of ``x``: out, or (out,
    (x, pre1, h1, pre2, h2)) with ``want_cache``; without a cache the hidden
    layers run in place. A row's output bits do not depend on its batch: a
    one-output head ends in a per-row einsum, not BLAS gemv, and a 1-row
    batch, which numpy would send to gemv, runs as two copies of its row."""
    if len(x) == 1:
        res = head_forward(fp, name, np.concatenate([x, x]), want_cache)
        return (res[0][:1], tuple(a[:1] for a in res[1])) if want_cache else res[:1]
    c, w1 = fp.config.channels, fp.params[f"head.{name}.w1"]
    pre1 = x[:, :c] @ w1[:c]
    pre1 += x[:, c:] @ w1[c:] + fp.params[f"head.{name}.b1"]
    return _head_from_pre1(fp, name, pre1, x, want_cache)


def _head_from_pre1(fp: FieldParams, name: str, pre1: np.ndarray, x=None, want_cache=False):
    """``head_forward`` from ``pre1`` (of 2 rows or more) on; ``x`` only goes into the cache."""
    p = fp.params
    slope = fp.config.leaky_slope
    h1 = _leaky(pre1, slope, out=None if want_cache else pre1)
    pre2 = h1 @ p[f"head.{name}.w2"]
    pre2 += p[f"head.{name}.b2"]
    h2 = _leaky(pre2, slope, out=None if want_cache else pre2)
    w3 = p[f"head.{name}.w3"]
    out = (np.einsum("ij,j->i", h2, w3[:, 0])[:, None] if w3.shape[1] == 1 else h2 @ w3) + p[f"head.{name}.b3"]
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


def head_input(z_grid: np.ndarray, positions: np.ndarray, times: np.ndarray, cfg: FieldConfig, want_cache=False):
    positions = np.atleast_2d(positions)
    grid_feat = interp_grid(z_grid, positions[:, 0], positions[:, 1], cfg, want_cache=want_cache)
    if want_cache:
        grid_feat, cache = grid_feat
    ft = fourier_zt(positions[:, 2], times, cfg).astype(grid_feat.dtype, copy=False)
    x = np.concatenate([grid_feat, ft], axis=1)
    if want_cache:
        return x, cache
    return x


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


def _gemm_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w, a 1-row ``a`` as two copies of its row (no gemv; see head_forward)."""
    return a @ w if len(a) != 1 else (np.concatenate([a, a]) @ w)[:1]


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
    col = _gemm_rows(interp_grid(z_grid, xy[:, 0], xy[:, 1], cfg), w1[:c])
    ts = np.atleast_1d(np.asarray(times, dtype=np.float64))
    ft = fourier_zt(np.tile(np.asarray(zs, dtype=np.float64), len(ts)), np.repeat(ts, len(zs)), cfg)
    layer = _gemm_rows(ft.astype(z_grid.dtype, copy=False), w1[c:]) + head.params[f"head.{name}.b1"]
    out = np.empty((len(layer) * len(xy), cfg.head_out(name))) if out is None else out
    pre1 = np.zeros((max(2, min(_TILE, len(out))), w1.shape[1]), z_grid.dtype)
    for a in range(0, len(out), _TILE):
        m, r = min(_TILE, len(out) - a), 0
        while r < m:  # the tile's pre1, one run of columns in one layer at a time
            k, i = divmod(a + r, len(xy))
            run = min(m - r, len(xy) - i)
            np.add(col[i : i + run], layer[k], out=pre1[r : r + run])
            r += run
        # a 1-row tile runs with a spare row of the buffer, as head_forward's 1-row batches do
        out[a : a + m] = _head_from_pre1(head, name, pre1[: max(m, 2)])[:m]
    return out


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


def _heads_loss(fp: FieldParams, z_grid: np.ndarray, batch: Batch, weights, per_term_average: bool, grads=None):
    """The batch's LossTerms, the forward pass of ``loss_and_grads``. Given
    a ``grads`` dict, each head's backward runs right after its forward, so
    its activations are freed before the next head runs; its gradients go
    into ``grads``. Returns (LossTerms, d total / d head input or None,
    interp cache)."""
    x, interp_cache = head_input(z_grid, batch.positions, batch.times, fp.config, want_cache=True)
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
    return LossTerms(float(total), **terms), dx, interp_cache


def loss_and_grads(
    fp: FieldParams,
    batch: Batch,
    z_grid: np.ndarray | None = None,
    enc_input: EncoderInput | None = None,
    weights=(1.0, 0.5, 0.1),
    per_term_average: bool = True,
    freeze_encoder: bool = False,
):
    """Loss plus exact analytic gradients of every parameter. The loss is a
    weighted sum of per-term means: BCE for occupancy and ego labels,
    elementwise L1 for feature targets; absent subsets contribute 0.

    In amortized mode pass ``enc_input`` (the grid is recomputed and the
    encoder receives gradients unless frozen); in fit-per-scene mode the
    grid itself is the parameter. Returns (LossTerms, grads dict).
    """
    if batch.n == 0:
        raise ValueError("batch must be non-empty")
    enc_cache = None
    if fp.mode == MODE_AMORTIZED:
        if enc_input is None:
            raise ValueError("amortized mode needs enc_input")
        z_grid, enc_cache = encode(fp, enc_input, want_cache=True)
    elif z_grid is None:
        z_grid = fp.params["grid.z"]

    grads = {}
    terms, dx, interp_cache = _heads_loss(fp, z_grid, batch, weights, per_term_average, grads)
    dz = interp_backward(interp_cache, dx[:, : fp.config.channels], z_grid.shape)
    if fp.mode == MODE_AMORTIZED and not freeze_encoder:
        grads.update(encode_backward(fp, enc_cache, dz))
    for v in grads.values():
        v += 0.0  # -0.0 -> +0.0, the gradient a sum from 0.0 gives; nothing else moves
    if fp.mode == MODE_FIT_PER_SCENE:
        grads["grid.z"] = dz  # summed from 0.0 already
    # a head with no rows in the batch, or a frozen encoder, gets zeros
    grads = {k: grads[k] if k in grads else np.zeros_like(v) for k, v in fp.params.items()}
    return terms, grads
