"""Training-sample generation from future sensor data.

Produces the 4D query sets that supervise the field: along-ray free-space
negatives, behind-the-hit occupied positives, camera-feature regression
targets with per-pixel min-depth occlusion filtering, ego-path tube labels,
and free-space negatives harvested from extended runs of missing rays.

All randomness flows through counter-based streams keyed by
(seed, purpose, ray-or-point index), so outputs are byte-identical at any
worker count. Stream k is numpy's Philox4x64-10 with key [seed, stream] and
counter [0, k, 0, 0]; its draw j is word j % 4 of the block at counter
[j // 4 + 1, k, 0, 0] (``geom.philox_uniforms``). The per-ray generators
are array code over all rays of a scan: ``_draw_filtered`` reproduces, for
every ray at once, the redraw rounds a per-ray ``per_ray_rng`` generator
would run, draw for draw. Rotation augmentation is applied after
generation, to scans and query positions jointly, which makes equivariance
exact.
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


def _draw_filtered(seed: int, stream: int, rays: np.ndarray, needed: np.ndarray, make_positions, roi: Roi4):
    """Roi-filtered draws for all keys (rays) of one stream at once.

    Replays, for each key k and its stream ``per_ray_rng(seed, rays[k],
    stream)``, the redraw loop: round r draws ``needed[k] - total`` uniforms
    at the key's running offset, maps them through ``make_positions(idx, u)
    -> (pos, ok)`` (``idx`` indexes ``rays``) and keeps the draws that pass
    ``ok & roi.contains_xyz(pos)``, for at most ``_MAX_REDRAWS`` rounds.
    Round 0 is one Philox call. Keys still short then draw their worst-case
    remaining budget, (needed - total) * (_MAX_REDRAWS - 1), in one more
    call, and the rounds are replayed on per-key prefix sums of ``ok``: a
    tail draw is kept iff it is ok and lies before the key's final offset.
    Keys go in groups of at most ``_GROUP_DRAWS`` worst-case draws, to bound
    memory. Returns (idx, positions) of the kept draws in key order, then in
    draw order.
    """
    group = np.cumsum(needed) * _MAX_REDRAWS // _GROUP_DRAWS
    cuts = [0, *(np.flatnonzero(np.diff(group)) + 1), len(rays)]
    idx_parts, pos_parts = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):

        def draw(idx, offsets, lo=lo):
            pos, ok = make_positions(lo + idx, philox_uniforms(seed, stream, rays[lo + idx], offsets))
            return pos, ok & roi.contains_xyz(pos)

        want = needed[lo:hi]
        idx0, off0 = _runs(want)
        pos0, ok0 = draw(idx0, off0)
        deficit = want - np.bincount(idx0[ok0], minlength=len(want))
        budget = deficit * (_MAX_REDRAWS - 1)
        idx1, off1 = _runs(budget)
        pos1, ok1 = draw(idx1, want[idx1] + off1)
        kept = np.concatenate([[0], np.cumsum(ok1)])
        start = np.cumsum(budget) - budget
        end, short = np.zeros(len(want), np.int64), deficit
        for _ in range(_MAX_REDRAWS - 1):
            end = end + short
            short = deficit - (kept[start + end] - kept[start])
        keep1 = ok1 & (off1 < end[idx1])
        idx = np.concatenate([idx0[ok0], idx1[keep1]])
        order = np.argsort(idx, kind="stable")
        idx_parts.append(lo + idx[order])
        pos_parts.append(np.concatenate([pos0[ok0], pos1[keep1]])[order])
    return np.concatenate(idx_parts), np.concatenate(pos_parts)


def _split_count(total: int, n_parts: int) -> list:
    base, extra = divmod(total, n_parts)
    return [base + (1 if i < extra else 0) for i in range(n_parts)]


def _per_ray_quota(count: int, n_rays: int) -> np.ndarray:
    """Round-robin allocation: ray j in the hit list serves draws
    j, j+n, j+2n, ..."""
    quota = np.full(n_rays, count // n_rays, dtype=np.int64)
    quota[: count % n_rays] += 1
    return quota


def gen_occupancy_negatives(
    scan: LidarScan, cfg: SamplerConfig, count: int, scan_stream: int = 0, tau: float | None = None
) -> QuerySet:
    """Free-space queries along hit rays: s + d^tau (p - s), d ~ U(0,1),
    rejecting d^tau in {0, 1} exactly and points outside the roi."""
    hits = scan.hit_indices
    if len(hits) == 0:
        raise EmptyScanError("scan has no hit rays")
    tau = cfg.jitter_tau if tau is None else tau
    s = scan.origins[hits]
    seg = scan.endpoints()[hits] - s

    def make(idx, u):
        dtau = u ** tau
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

    vis = np.flatnonzero(visible)
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
    offset of radius < w_ego in x-y; negatives are uniform over the roi,
    rejection-resampled until outside the tube. Query times are uniform in
    [0, t_max] and carried but never used for labeling."""
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

    pos_list, pos_times = [], []
    for i in range(cfg.n_ego_pos):
        gen = per_ray_rng(cfg.seed, i, _stream(_PURPOSE_EGO_POS, 0))
        for _ in range(_MAX_REDRAWS):
            s_arc, u_r, phi, u_z, u_t = gen.uniform(size=5)
            if total_len > 0.0:
                arc = s_arc * total_len
                k = min(int(np.searchsorted(cum, arc, side="right")) - 1, len(seg_len) - 1)
                frac = (arc - cum[k]) / seg_len[k] if seg_len[k] > 0 else 0.0
                base = verts[k] + frac * (verts[k + 1] - verts[k])
            else:
                base = verts[0]
            r = cfg.w_ego * math.sqrt(u_r)
            p = np.array([
                base[0] + r * math.cos(2.0 * math.pi * phi),
                base[1] + r * math.sin(2.0 * math.pi * phi),
                roi.z[0] + u_z * (roi.z[1] - roi.z[0]),
            ])
            if roi.contains_xyz(p)[0]:
                pos_list.append(p)
                pos_times.append(u_t * cfg.t_max)
                break

    neg_list, neg_times = [], []
    for i in range(cfg.n_ego_neg):
        gen = per_ray_rng(cfg.seed, i, _stream(_PURPOSE_EGO_NEG, 0))
        for attempt in range(_EGO_NEG_ATTEMPTS + 1):
            if attempt == _EGO_NEG_ATTEMPTS:
                raise RuntimeError(
                    f"ego negative {i}: exceeded {_EGO_NEG_ATTEMPTS} rejection attempts; "
                    "roi is nearly covered by the ego tube"
                )
            ux, uy, uz, ut = gen.uniform(size=4)
            p = np.array([
                roi.x[0] + ux * (roi.x[1] - roi.x[0]),
                roi.y[0] + uy * (roi.y[1] - roi.y[0]),
                roi.z[0] + uz * (roi.z[1] - roi.z[0]),
            ])
            if ego_tube_distance(verts, p)[0] > cfg.w_ego:
                neg_list.append(p)
                neg_times.append(ut * cfg.t_max)
                break

    pos = _labeled_set(
        TAG_EGO_POS, np.array(pos_times), np.array(pos_list).reshape(-1, 3),
        np.ones(len(pos_list), np.uint8), 0,
    )
    neg = _labeled_set(
        TAG_EGO_NEG, np.array(neg_times), np.array(neg_list).reshape(-1, 3),
        np.zeros(len(neg_list), np.uint8), 0,
    )
    return QuerySet.concat([pos, neg], 0)


@dataclass
class EncoderInput:
    """Past-scan hit points in the (augmented) reference frame."""

    point_sets: list          # one (n_i, 3) array per past scan
    rel_times: list           # seconds relative to t0, non-positive


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
    past_scans, future_scans, images, scene: Scene, cfg: SamplerConfig, aug: AugmentConfig,
    pca: PcaModel | None = None,
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

    n_scans = len(rel_future)
    neg_split = _split_count(cfg.n_occ_neg, n_scans)
    pos_split = _split_count(cfg.n_occ_pos, n_scans)
    tau = aug.jitter_tau if aug.jitter_enabled else cfg.jitter_tau

    parts = {tag: [] for tag in TAG_NAMES}
    for si, scan in enumerate(rel_future):
        parts[TAG_RAY_NEG].append(gen_occupancy_negatives(scan, cfg, neg_split[si], si, tau=tau))
        parts[TAG_RAY_POS].append(gen_occupancy_positives(scan, cfg, pos_split[si], si))
        parts[TAG_MISSING_RAY].append(gen_missing_ray_negatives(scan, cfg, si))
        if pca is not None and rel_images and cfg.n_feat > 0:
            parts[TAG_FEATURE].append(gen_feature_queries(scan, rel_images, pca, cfg, si))

    d = pca.d if pca is not None else 0
    feature_all = QuerySet.concat(parts[TAG_FEATURE], d) if parts[TAG_FEATURE] else QuerySet.empty(d)
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
        t0=t0, theta=theta, tau=tau, seed=cfg.seed,
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
