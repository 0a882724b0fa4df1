"""Training-sample generation from future sensor data.

Produces the 4D query sets that supervise the field: along-ray free-space
negatives, behind-the-hit occupied positives, camera-feature regression
targets with per-pixel min-depth occlusion filtering, ego-path tube labels,
and free-space negatives harvested from extended runs of missing rays.

All randomness flows through counter-based streams keyed by
(seed, purpose, ray-or-point index), so outputs are byte-identical at any
worker count. Stream k is numpy's Philox4x64-10 with key [seed, stream] and
counter [0, k, 0, 0]; its draw j is word j % 4 of the block at counter
[j // 4 + 1, k, 0, 0] (``geom.philox_uniforms``). Every generator is array
code over all its rays or queries at once, drawing what a per-key
``per_ray_rng`` generator would draw, draw for draw. One rejection sampler,
``_draw_filtered``, serves all six query kinds; its keys are rays for the
four ray-based kinds and queries for the two ego-path kinds. Rotation
augmentation is applied after generation, to scans and query positions
jointly, which makes equivariance exact.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import artifact
from .geom import AugmentConfig, Pose, compose, inverse, per_ray_rng, philox_uniforms, rotate_about_z
from .pca import PcaModel, project
from .scene import FeatureImage, LidarScan, Scene, ego_path_vertices, ego_pose_at

TAG_RAY_NEG = 0
TAG_RAY_POS = 1
TAG_MISSING_RAY = 2
TAG_FEATURE = 3
TAG_EGO_POS = 4
TAG_EGO_NEG = 5

TAG_NAMES = {
    TAG_RAY_NEG: "ray_negative",
    TAG_RAY_POS: "ray_positive",
    TAG_MISSING_RAY: "missing_ray",
    TAG_FEATURE: "feature",
    TAG_EGO_POS: "ego_pos",
    TAG_EGO_NEG: "ego_neg",
}

# the query tags each head of the field is trained on
HEAD_TAGS = {
    "occ": (TAG_RAY_NEG, TAG_RAY_POS, TAG_MISSING_RAY),
    "feat": (TAG_FEATURE,),
    "ego": (TAG_EGO_POS, TAG_EGO_NEG),
}

_PURPOSE_NEG = 1
_PURPOSE_POS = 2
_PURPOSE_MISS = 3
_PURPOSE_FEAT = 4
_PURPOSE_EGO_POS = 5
_PURPOSE_EGO_NEG = 6
_PURPOSE_ROT = 7
_PURPOSE_SUBSAMPLE = 8

_MAX_REDRAWS = 64
_GROUP_DRAWS = 1 << 18
# redraw rounds in _draw_filtered's second Philox call. A key short after
# round 0 most often needs 1-3 more; at the default budgets about 1 in 10
# short missing-ray keys and 1 in 200 short negatives need more than 8.
_TAIL_ROUNDS = 8
_EGO_NEG_ATTEMPTS = 100

class EmptyScanError(ValueError):
    pass


def _stream(purpose: int, scan_idx: int = 0) -> int:
    return (purpose << 32) | scan_idx


@dataclass(frozen=True)
class Roi4:
    """Axis-aligned 4D region of interest: spatial box x time [0, t_max].

    The default x-y extent is chosen so the region stays inside the field's
    default grid under the +/-20 degree rotation augmentation
    (14 * (cos 20 + sin 20) ~ 17.9 < 18)."""

    x: tuple = (-14.0, 14.0)
    y: tuple = (-14.0, 14.0)
    z: tuple = (-0.4, 3.0)
    t_max: float = 3.0

    def __post_init__(self):
        if self.x[0] >= self.x[1] or self.y[0] >= self.y[1] or self.z[0] >= self.z[1]:
            raise ValueError("roi extents must be increasing")
        if self.t_max <= 0.0:
            raise ValueError("t_max must be positive")

    def contains_xyz(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return (
            (pts[:, 0] >= self.x[0]) & (pts[:, 0] <= self.x[1])
            & (pts[:, 1] >= self.y[0]) & (pts[:, 1] <= self.y[1])
            & (pts[:, 2] >= self.z[0]) & (pts[:, 2] <= self.z[1])
        )


# paper-scale query budget, for reference
PAPER_N_OCC = 900_000
PAPER_N_FEAT = 100_000
PAPER_N_EGO = 10_000
DESK_SCALE_DIVISOR = 100


@dataclass(frozen=True)
class SamplerConfig:
    """Query-generation knobs. Desk-scale counts are 1/100 of the published
    regime; delta, w_ego, jitter_tau and t_max match it exactly."""

    delta: float = 0.1
    n_occ_pos: int = PAPER_N_OCC // DESK_SCALE_DIVISOR
    n_occ_neg: int = PAPER_N_OCC // DESK_SCALE_DIVISOR
    n_feat: int = PAPER_N_FEAT // DESK_SCALE_DIVISOR
    n_ego_pos: int = PAPER_N_EGO // DESK_SCALE_DIVISOR
    n_ego_neg: int = PAPER_N_EGO // DESK_SCALE_DIVISOR
    w_ego: float = 1.0
    roi: Roi4 = field(default_factory=Roi4)
    jitter_tau: float = 1.0
    missing_ray_min_run: int = 5
    missing_ray_samples_per_ray: int = 2
    depth_tol: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        for name in ("n_occ_pos", "n_occ_neg", "n_feat", "n_ego_pos", "n_ego_neg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.w_ego <= 0.0:
            raise ValueError("w_ego must be positive")
        if self.jitter_tau <= 0.0:
            raise ValueError("jitter_tau must be positive")
        if self.missing_ray_min_run < 1:
            raise ValueError("missing_ray_min_run must be >= 1")
        if self.missing_ray_samples_per_ray < 0:
            raise ValueError(f"missing_ray_samples_per_ray must be >= 0, got {self.missing_ray_samples_per_ray}")
        if not self.depth_tol >= 0.0:  # a negative tolerance hides every point, even the nearest
            raise ValueError(f"depth_tol must be >= 0, got {self.depth_tol}")

    @property
    def t_max(self) -> float:
        return self.roi.t_max


@dataclass
class QuerySet:
    """Tagged 4D query records as parallel arrays.

    ``feats`` holds one row per FEATURE-tagged record, in record order;
    ``labels`` is meaningful for the binary tags only.
    """

    tags: np.ndarray       # (N,) uint8
    times: np.ndarray      # (N,) float64
    positions: np.ndarray  # (N, 3) float64
    labels: np.ndarray     # (N,) uint8
    feats: np.ndarray      # (M, d) float64, M = count of FEATURE rows
    d: int

    def __post_init__(self):
        self.tags = np.asarray(self.tags, dtype=np.uint8)
        self.times = np.asarray(self.times, dtype=np.float64)
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.d == 0:
            self.feats = np.zeros((0, 0))
        else:
            self.feats = np.asarray(self.feats, dtype=np.float64).reshape(-1, self.d)
        n = len(self.tags)
        if not (len(self.times) == len(self.positions) == len(self.labels) == n):
            raise ValueError("parallel arrays must have equal length")
        if int(np.sum(self.tags == TAG_FEATURE)) != len(self.feats):
            raise ValueError("feature rows must match FEATURE-tagged record count")
        feat_row = np.full(n, -1, dtype=np.int64)
        feat_row[self.tags == TAG_FEATURE] = np.arange(len(self.feats))
        self._feat_row = feat_row

    @property
    def n(self) -> int:
        return len(self.tags)

    def counts(self) -> dict:
        return {name: int(np.sum(self.tags == tag)) for tag, name in TAG_NAMES.items()}

    def indices_for(self, *tags) -> np.ndarray:
        mask = np.isin(self.tags, np.array(tags, dtype=np.uint8))
        return np.nonzero(mask)[0]

    def feature_targets(self, record_indices: np.ndarray) -> np.ndarray:
        rows = self._feat_row[record_indices]
        if np.any(rows < 0):
            raise ValueError("record indices must all carry the FEATURE tag")
        return self.feats[rows]

    @staticmethod
    def empty(d: int) -> "QuerySet":
        return QuerySet(
            np.zeros(0, np.uint8), np.zeros(0), np.zeros((0, 3)), np.zeros(0, np.uint8),
            np.zeros((0, d)), d,
        )

    @staticmethod
    def concat(parts, d: int) -> "QuerySet":
        parts = [p for p in parts if p.n > 0]
        if not parts:
            return QuerySet.empty(d)
        feat_parts = [p.feats for p in parts if len(p.feats) > 0]
        feats = np.concatenate(feat_parts) if feat_parts else np.zeros((0, d))
        return QuerySet(
            np.concatenate([p.tags for p in parts]),
            np.concatenate([p.times for p in parts]),
            np.concatenate([p.positions for p in parts]),
            np.concatenate([p.labels for p in parts]),
            feats,
            d,
        )

    def rotated(self, theta: float) -> "QuerySet":
        return QuerySet(
            self.tags.copy(), self.times.copy(), rotate_about_z(self.positions, theta),
            self.labels.copy(), self.feats.copy(), self.d,
        )


def _labeled_set(tag, times, positions, labels, d) -> QuerySet:
    n = len(times)
    return QuerySet(
        np.full(n, tag, np.uint8), np.asarray(times, dtype=np.float64),
        np.asarray(positions, dtype=np.float64).reshape(-1, 3),
        np.asarray(labels, dtype=np.uint8), np.zeros((0, d)), d,
    )


def _runs(counts: np.ndarray):
    """(owner, position) of every element of consecutive runs of the given lengths."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _draw_filtered(seed: int, stream: int, keys, needed, make, roi: Roi4, rounds=_MAX_REDRAWS, width=1):
    """Roi-filtered items for all keys of one stream at once, for every
    query kind. Item j of key k is draws ``width*j ... width*j + width - 1``
    of the stream ``per_ray_rng(seed, keys[k], stream)``.

    Replays each key's redraw loop: round r draws ``needed[k] - total`` items
    at the key's running offset, maps them through ``make(idx, u_0, ...,
    u_{width-1}) -> (values, ok)`` (``idx`` indexes ``keys``) and keeps the
    items that pass ``ok & roi.contains_xyz(values)``, which reads columns
    0-2, for at most ``rounds`` rounds. The rounds run in three stretches of
    1, ``_TAIL_ROUNDS`` and all remaining rounds, one Philox call each. A
    stretch of s rounds draws each still-short key's worst case for them,
    (needed - total) * s items from its running offset, since no round draws
    more than the one before; the rounds are then replayed on per-key prefix
    sums of ``ok``: an item is kept iff it is ok and lies before the key's
    offset at the stretch's end, where the next stretch starts (drawing
    again what lies past it). Counter-based draws make the bits of each
    item independent of how the calls are cut. Most keys are done within
    the first two stretches, so the third draws for a few keys only. Keys go
    in groups of at most ``_GROUP_DRAWS`` worst-case draws, to bound memory.
    Returns (idx, values) of the kept items in key order, then in draw
    order."""
    group = np.cumsum(needed) * (rounds * width) // _GROUP_DRAWS
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1), len(keys)]
    tail = min(_TAIL_ROUNDS, rounds - 1)
    idx_parts, val_parts = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        offset, short = np.zeros(hi - lo, np.int64), needed[lo:hi]
        for stretch in (1, tail, rounds - 1 - tail):
            deficit, budget = short, short * stretch
            idx, off = _runs(budget)
            draws = ((offset[idx] + off)[:, None] * width + np.arange(width)).ravel()
            u = philox_uniforms(seed, stream, np.repeat(keys[lo + idx], width), draws)
            values, ok = make(lo + idx, *u.reshape(-1, width).T)
            ok = ok & roi.contains_xyz(values)
            kept = np.concatenate([[0], np.cumsum(ok)])
            start = np.cumsum(budget) - budget
            end = np.zeros(hi - lo, np.int64)
            for _ in range(stretch):
                if not short.any():  # short == 0 is a fixed point: no key draws again
                    break
                end = end + short
                short = deficit - (kept[start + end] - kept[start])
            keep = ok & (off < end[idx])
            idx_parts.append(lo + idx[keep])
            val_parts.append(values[keep])
            if not short.any():
                break
            offset = offset + end
    idx = np.concatenate(idx_parts)
    order = np.argsort(idx, kind="stable")
    return idx[order], np.concatenate(val_parts)[order]


def _per_ray_quota(count: int, n_rays: int) -> np.ndarray:
    """Round-robin split of ``count`` over ``n_rays`` rays (or scans): ray j
    serves draws j, j+n, j+2n, ..., so the first ``count % n`` get one more."""
    quota = np.full(n_rays, count // n_rays, dtype=np.int64)
    quota[: count % n_rays] += 1
    return quota


def gen_occupancy_negatives(scan: LidarScan, cfg: SamplerConfig, count: int, scan_stream: int = 0) -> QuerySet:
    """Free-space queries along hit rays: s + d^tau (p - s), d ~ U(0,1) and
    tau = cfg.jitter_tau, rejecting d^tau in {0, 1} exactly and points
    outside the roi."""
    hits = scan.hit_indices
    if len(hits) == 0:
        raise EmptyScanError("scan has no hit rays")
    s = scan.origins[hits]
    seg = scan.endpoints()[hits] - s

    def make(idx, u):
        dtau = u ** cfg.jitter_tau
        return s[idx] + dtau[:, None] * seg[idx], (dtau != 0.0) & (dtau != 1.0)

    stream = _stream(_PURPOSE_NEG, scan_stream)
    idx, pos = _draw_filtered(cfg.seed, stream, hits, _per_ray_quota(count, len(hits)), make, cfg.roi)
    return _labeled_set(TAG_RAY_NEG, scan.times[hits[idx]], pos, np.zeros(len(pos), np.uint8), 0)


def gen_occupancy_positives(
    scan: LidarScan, cfg: SamplerConfig, count: int, scan_stream: int = 0
) -> QuerySet:
    """Occupied queries in the (0, delta) buffer behind each hit:
    p + r * (p - s)/|p - s|, r ~ U(0, delta).

    Only rays whose whole buffer segment lies inside the roi are eligible,
    which keeps the emitted count equal to the request whenever any ray
    qualifies."""
    hits = scan.hit_indices
    if len(hits) == 0:
        raise EmptyScanError("scan has no hit rays")
    ends = scan.endpoints()[hits]
    buf_far = ends + cfg.delta * scan.dirs[hits]
    eligible = cfg.roi.contains_xyz(ends) & cfg.roi.contains_xyz(buf_far)
    hits, ends = hits[eligible], ends[eligible]
    dirs = scan.dirs[hits]

    def make(idx, u):
        return ends[idx] + (cfg.delta * u)[:, None] * dirs[idx], u != 0.0

    quota = _per_ray_quota(count, len(hits)) if len(hits) else np.zeros(0, np.int64)
    idx, pos = _draw_filtered(cfg.seed, _stream(_PURPOSE_POS, scan_stream), hits, quota, make, cfg.roi)
    return _labeled_set(TAG_RAY_POS, scan.times[hits[idx]], pos, np.ones(len(pos), np.uint8), 0)


def missing_ray_regions(scan: LidarScan, min_run: int) -> np.ndarray:
    """Ray indices belonging to runs of >= min_run consecutive missing
    azimuth columns within an elevation row, in ray order."""
    pad = np.zeros((scan.rows, 1), dtype=np.int8)
    edges = np.diff(np.hstack([pad, scan.miss.reshape(scan.rows, scan.cols).astype(np.int8), pad]), axis=1)
    first = np.flatnonzero(edges == 1)  # run starts and ends pair up in row-major order
    length = np.flatnonzero(edges == -1) - first
    first, length = first[length >= min_run], length[length >= min_run]
    owner, pos = _runs(length)
    return first[owner] // (scan.cols + 1) * scan.cols + first[owner] % (scan.cols + 1) + pos


def gen_missing_ray_negatives(scan: LidarScan, cfg: SamplerConfig, scan_stream: int = 0) -> QuerySet:
    """Free-space queries along extended missing-ray regions, sampled at
    u ~ U(0.05, 0.95) of max range."""
    rays = missing_ray_regions(scan, cfg.missing_ray_min_run)

    def make(idx, u):
        r = (0.05 + 0.9 * u) * scan.max_range
        return scan.origins[rays[idx]] + r[:, None] * scan.dirs[rays[idx]], np.ones(len(u), dtype=bool)

    quota = np.full(len(rays), cfg.missing_ray_samples_per_ray, dtype=np.int64)
    idx, pos = _draw_filtered(cfg.seed, _stream(_PURPOSE_MISS, scan_stream), rays, quota, make, cfg.roi)
    return _labeled_set(TAG_MISSING_RAY, scan.times[rays[idx]], pos, np.zeros(len(pos), np.uint8), 0)


def world_to_cam(pose: Pose, pts: np.ndarray) -> np.ndarray:
    """Camera-frame coordinates with a fixed evaluation order, so scalar
    reimplementations reproduce the same floats bit for bit."""
    r = pose.rotation
    t = pose.translation
    pts = np.atleast_2d(pts)
    dx = pts[:, 0] - t[0]
    dy = pts[:, 1] - t[1]
    dz = pts[:, 2] - t[2]
    x = r[0, 0] * dx + r[1, 0] * dy + r[2, 0] * dz
    y = r[0, 1] * dx + r[1, 1] * dy + r[2, 1] * dz
    z = r[0, 2] * dx + r[1, 2] * dy + r[2, 2] * dz
    return np.stack([x, y, z], axis=1)


def project_to_pixels(img: FeatureImage, pts: np.ndarray):
    """(u, v, z, valid): pixel indices, camera depth, and the in-frustum
    mask for each point."""
    intr = img.intrinsics
    cam = world_to_cam(img.pose, pts)
    z = cam[:, 2]
    front = z > 1e-9
    safe_z = np.where(front, z, 1.0)
    uf = intr.fx * cam[:, 0] / safe_z + intr.cx
    vf = intr.fy * cam[:, 1] / safe_z + intr.cy
    u = np.floor(uf).astype(np.int64)
    v = np.floor(vf).astype(np.int64)
    valid = front & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    return u, v, z, valid


def min_depth_visible(img: FeatureImage, pts: np.ndarray, depth_tol: float):
    """Per-pixel min-depth filtering over candidate points.

    Builds a z-buffer from the points themselves and keeps those within
    depth_tol of their pixel's minimum. Returns (visible_mask, u, v)."""
    u, v, z, valid = project_to_pixels(img, pts)
    buf = np.full((img.height, img.width), np.inf)
    np.minimum.at(buf, (v[valid], u[valid]), z[valid])
    visible = valid.copy()
    visible[valid] = z[valid] <= buf[v[valid], u[valid]] + depth_tol
    return visible, u, v


def closest_image(images, t_scan: float) -> FeatureImage:
    # ties broken toward the earlier image
    return min(images, key=lambda im: (abs(im.time - t_scan), im.time))


def gen_feature_queries(
    scan: LidarScan,
    images,
    pca: PcaModel,
    cfg: SamplerConfig,
    scan_stream: int = 0,
) -> QuerySet:
    """Feature-regression queries for visible hit points.

    Hits are projected into the image closest in time; a per-pixel minimum
    depth buffer over all candidates drops occluded points; survivors get a
    position in the (0, delta) buffer behind the hit and the pixel feature
    projected to the PCA basis as target. Every survivor is kept:
    assemble_sample caps the feature queries across scans."""
    if not images:
        raise ValueError("images must be non-empty")
    img = closest_image(images, float(scan.times[0]))
    hits = scan.hit_indices
    endpoints = scan.endpoints()[hits]
    visible, u, v = min_depth_visible(img, endpoints, cfg.depth_tol)
    # make's point at w = 1; rounding is monotone in w, so a hit with both
    # buffer ends beyond one roi face can draw no point in the roi
    far, roi = endpoints + (cfg.delta * 1.0) * scan.dirs[hits], cfg.roi
    lo, hi = np.array([roi.x[0], roi.y[0], roi.z[0]]), np.array([roi.x[1], roi.y[1], roi.z[1]])
    beyond = ((endpoints < lo) & (far < lo) | (endpoints > hi) & (far > hi)).any(axis=1)
    vis = np.flatnonzero(visible & ~beyond)
    rays = hits[vis]

    def make(idx, w):
        return endpoints[vis[idx]] + (cfg.delta * w)[:, None] * scan.dirs[rays[idx]], w != 0.0

    stream = _stream(_PURPOSE_FEAT, scan_stream)
    idx, pos = _draw_filtered(cfg.seed, stream, rays, np.ones(len(rays), np.int64), make, cfg.roi)
    n, d = len(idx), pca.d
    if n == 0:
        return QuerySet.empty(d)
    targets = [project(pca, img.features[v[j], u[j]]) for j in vis[idx]]
    return QuerySet(
        np.full(n, TAG_FEATURE, np.uint8), scan.times[rays[idx]], pos, np.zeros(n, np.uint8), np.array(targets), d,
    )


def _segments_dist_xy(q: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Exact x-y distance from points (N,2+) to a polyline (M,3).

    Written with the same per-term evaluation order as the scalar oracle in
    the test suite so both produce identical floats."""
    q = np.atleast_2d(q)
    if len(verts) == 1:
        dx = q[:, 0] - verts[0, 0]
        dy = q[:, 1] - verts[0, 1]
        return np.sqrt(dx * dx + dy * dy)
    best = np.full(len(q), np.inf)
    for i in range(len(verts) - 1):
        ax, ay = verts[i, 0], verts[i, 1]
        bx, by = verts[i + 1, 0], verts[i + 1, 1]
        dx, dy = bx - ax, by - ay
        den = dx * dx + dy * dy
        if den == 0.0:
            ddx = q[:, 0] - ax
            ddy = q[:, 1] - ay
            dist = np.sqrt(ddx * ddx + ddy * ddy)
        else:
            t = ((q[:, 0] - ax) * dx + (q[:, 1] - ay) * dy) / den
            t = np.clip(t, 0.0, 1.0)
            ddx = q[:, 0] - (ax + t * dx)
            ddy = q[:, 1] - (ay + t * dy)
            dist = np.sqrt(ddx * ddx + ddy * ddy)
        best = np.minimum(best, dist)
    return best


def ego_tube_distance(path_vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """x-y distance from each point to the ego path polyline."""
    return _segments_dist_xy(np.atleast_2d(pts)[:, :2], path_vertices)


def gen_ego_path_queries(
    scene: Scene, t0: float, cfg: SamplerConfig, frame: Pose | None = None
) -> QuerySet:
    """Tube labels around the future ego path over [t0, t0 + t_max].

    Positives are uniform per arc length along the path with a uniform disk
    offset of radius < w_ego in x-y, redrawn while outside the roi and
    dropped after ``_MAX_REDRAWS`` attempts; negatives are uniform over the
    roi, redrawn while inside the tube, and a negative still inside after
    ``_EGO_NEG_ATTEMPTS`` attempts is a RuntimeError. Each query is one key
    of ``_draw_filtered``. Query times are uniform in [0, t_max] and carried
    but never used for labeling."""
    lo, hi = scene.horizon
    if t0 < lo - 1e-9 or t0 + cfg.t_max > hi + 1e-9:
        raise ValueError(f"ego trajectory [{lo}, {hi}] does not cover [{t0}, {t0 + cfg.t_max}]")
    verts = ego_path_vertices(scene, t0, t0 + cfg.t_max)
    if frame is not None:
        verts = frame.apply(verts)
    seg = np.diff(verts[:, :2], axis=0)
    seg_len = np.sqrt(np.sum(seg * seg, axis=1))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total_len = float(cum[-1])
    roi = cfg.roi

    def positive(idx, s_arc, u_r, phi, u_z, u_t):
        base = np.broadcast_to(verts[0], (len(idx), 3))
        if total_len > 0.0:
            arc = s_arc * total_len
            k = np.minimum(np.searchsorted(cum, arc, side="right") - 1, len(seg_len) - 1)
            nonzero = seg_len[k] > 0
            frac = np.where(nonzero, (arc - cum[k]) / np.where(nonzero, seg_len[k], 1.0), 0.0)
            base = verts[k] + frac[:, None] * (verts[k + 1] - verts[k])
        r, angle = cfg.w_ego * np.sqrt(u_r), 2.0 * math.pi * phi
        z = roi.z[0] + u_z * (roi.z[1] - roi.z[0])
        x, y = base[:, 0] + r * np.cos(angle), base[:, 1] + r * np.sin(angle)
        return np.stack([x, y, z, u_t * cfg.t_max], axis=1), np.ones(len(idx), dtype=bool)

    box = np.array([roi.x, roi.y, roi.z]).T  # low and high corners

    def negative(idx, u_x, u_y, u_z, u_t):
        p = box[0] + np.stack([u_x, u_y, u_z], axis=1) * (box[1] - box[0])
        return np.column_stack([p, u_t * cfg.t_max]), ego_tube_distance(verts, p) > cfg.w_ego

    def draw(purpose, n, make, rounds, width):
        return _draw_filtered(cfg.seed, _stream(purpose), np.arange(n), np.ones(n, np.int64), make, roi, rounds, width)

    _, pos = draw(_PURPOSE_EGO_POS, cfg.n_ego_pos, positive, _MAX_REDRAWS, 5)
    idx, neg = draw(_PURPOSE_EGO_NEG, cfg.n_ego_neg, negative, _EGO_NEG_ATTEMPTS, 4)
    if len(idx) < cfg.n_ego_neg:
        raise RuntimeError(
            f"ego negative {np.argmin(np.bincount(idx, minlength=cfg.n_ego_neg))}: exceeded "
            f"{_EGO_NEG_ATTEMPTS} rejection attempts; roi is nearly covered by the ego tube"
        )
    pos = _labeled_set(TAG_EGO_POS, pos[:, 3], pos[:, :3], np.ones(len(pos), np.uint8), 0)
    neg = _labeled_set(TAG_EGO_NEG, neg[:, 3], neg[:, :3], np.zeros(len(neg), np.uint8), 0)
    return QuerySet.concat([pos, neg], 0)


@dataclass
class EncoderInput:
    """Past-scan hit points in the (augmented) reference frame, fixed once encoded."""

    point_sets: list          # one (n_i, 3) array per past scan
    rel_times: list           # seconds relative to t0, non-positive
    conv_input: dict = field(default_factory=dict, repr=False, compare=False)  # field.encode's, per (cfg, dtype)


def past_encoder_input(scans, ref: Pose, t0: float, theta: float) -> EncoderInput:
    """The encoder input of past scans: each scan's hit points in the frame
    ``ref``, rotated by ``theta`` about z, timed relative to t0. Training's
    samples and eval's grids both come from here."""
    point_sets, rel_times = [], []
    for s in scans:
        rel = s.transformed(ref)
        pts = rel.endpoints()[rel.hit_indices]
        point_sets.append(rotate_about_z(pts, theta) if theta != 0.0 else pts)
        rel_times.append(float(rel.times[0] - t0))
    return EncoderInput(point_sets, rel_times)


@dataclass
class SampleMeta:
    t0: float
    theta: float
    tau: float
    seed: int
    requested: dict
    emitted: dict
    exhausted: list

    def to_dict(self) -> dict:
        return asdict(self)


def assemble_sample(
    past_scans, future_scans, images, scene: Scene, cfg: SamplerConfig, aug: AugmentConfig, pca: PcaModel,
):
    """Build one training sample: encoder input plus the full query set.

    The reference frame is the ego pose at t0 (the latest past-scan time).
    All generators run on unrotated data with disjoint random streams; the
    drawn rotation is then applied jointly to query positions and the past
    scans, leaving targets untouched.
    """
    if not past_scans:
        raise ValueError("need at least one past scan")
    t0 = float(max(s.times.max() for s in past_scans))
    ref = inverse(ego_pose_at(scene, t0))

    rel_future = []
    for s in future_scans:
        rel = s.transformed(ref).time_shifted(-t0)
        if rel.times.min() < -1e-9 or rel.times.max() > cfg.t_max + 1e-9:
            raise ValueError("future scan outside (t0, t0 + t_max]")
        rel_future.append(rel)
    if not rel_future:
        raise ValueError("need at least one future scan")

    rel_images = [
        FeatureImage(im.features, im.depth, compose(ref, im.pose), im.intrinsics, im.time - t0)
        for im in images
    ]

    neg_split = _per_ray_quota(cfg.n_occ_neg, len(rel_future))
    pos_split = _per_ray_quota(cfg.n_occ_pos, len(rel_future))

    parts = {tag: [] for tag in TAG_NAMES}
    for si, scan in enumerate(rel_future):
        parts[TAG_RAY_NEG].append(gen_occupancy_negatives(scan, cfg, neg_split[si], si))
        parts[TAG_RAY_POS].append(gen_occupancy_positives(scan, cfg, pos_split[si], si))
        parts[TAG_MISSING_RAY].append(gen_missing_ray_negatives(scan, cfg, si))
        if rel_images and cfg.n_feat > 0:
            parts[TAG_FEATURE].append(gen_feature_queries(scan, rel_images, pca, cfg, si))

    d = pca.d
    feature_all = QuerySet.concat(parts[TAG_FEATURE], d)
    if feature_all.n > cfg.n_feat:
        gen = per_ray_rng(cfg.seed, 0, _stream(_PURPOSE_SUBSAMPLE, 1))
        keep = np.sort(gen.choice(feature_all.n, size=cfg.n_feat, replace=False))
        feature_all = QuerySet(
            feature_all.tags[keep], feature_all.times[keep], feature_all.positions[keep],
            feature_all.labels[keep], feature_all.feats[keep], d,
        )

    ego = gen_ego_path_queries(scene, t0, cfg, frame=ref)

    ordered = [
        QuerySet.concat(parts[TAG_RAY_NEG], d),
        QuerySet.concat(parts[TAG_RAY_POS], d),
        QuerySet.concat(parts[TAG_MISSING_RAY], d),
        feature_all,
        ego,
    ]
    queries = QuerySet.concat(ordered, d)

    theta = 0.0
    if aug.rotation_enabled:
        rot_gen = per_ray_rng(cfg.seed, 0, _stream(_PURPOSE_ROT, 0))
        theta = float(rot_gen.uniform(aug.theta_min, aug.theta_max))
        queries = queries.rotated(theta)

    enc = past_encoder_input(past_scans, ref, t0, theta)
    counts = queries.counts()
    requested = {
        "ray_negative": cfg.n_occ_neg,
        "ray_positive": cfg.n_occ_pos,
        "feature": cfg.n_feat,
        "ego_pos": cfg.n_ego_pos,
        "ego_neg": cfg.n_ego_neg,
    }
    exhausted = [k for k, want in requested.items() if counts.get(k, 0) < want]
    meta = SampleMeta(
        t0=t0, theta=theta, tau=cfg.jitter_tau, seed=cfg.seed,
        requested=requested, emitted=counts, exhausted=sorted(exhausted),
    )
    return enc, queries, meta


# ---------------------------------------------------------------------------
# query-set / encoder-input artifacts


def save_queryset(qs: QuerySet, path) -> None:
    artifact.save(
        path, "queryset", {},
        tags=qs.tags,
        times=np.asarray(qs.times, "<f4"),
        positions=np.asarray(qs.positions, "<f4"),
        labels=np.where(qs.tags == TAG_FEATURE, 0, qs.labels).astype("u1"),
        feats=np.asarray(qs.feats, "<f4"),
    )


def load_queryset(path) -> QuerySet:
    _, a = artifact.load(path, "queryset")
    feats = a["feats"]
    return QuerySet(a["tags"], a["times"], a["positions"], a["labels"], feats, feats.shape[1])


def save_encoder_input(enc: EncoderInput, path) -> None:
    points = {f"points{i}": np.asarray(pts, "<f8").reshape(-1, 3) for i, pts in enumerate(enc.point_sets)}
    artifact.save(path, "encoder-input", {}, rel_times=np.asarray(enc.rel_times, "<f8"), **points)


def load_encoder_input(path) -> EncoderInput:
    _, a = artifact.load(path, "encoder-input")
    rel_times = a["rel_times"].tolist()
    return EncoderInput([a[f"points{i}"] for i in range(len(rel_times))], rel_times)
