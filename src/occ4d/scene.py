"""Procedural ground-truth world and sensor simulation.

The world is a ground plane plus constant-velocity yaw-rotated boxes, so
every supervision label has an exact analytic oracle. A shared slab-test
ray caster feeds both the lidar scanner and the pinhole feature camera,
which keeps their depth conventions consistent to the last ulp.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import artifact
from .geom import Pose, compose, per_ray_rng, yaw_matrix

GROUND_CLASS = 0
SKY_CLASS = 255

_PROTO_SALT = 0x9E3779B97F4A7C15
_PERTURB_SALT = 0xC2B2AE3D27D4EB4F
PERTURB_BOUND = 0.05

_RAY_EPS = 1e-9

HIT_GROUND = -1
HIT_MISS = -2


@dataclass(frozen=True)
class Box:
    """Yaw-rotated box moving at constant velocity, axis-aligned in its own frame."""

    center: np.ndarray          # at t = 0
    half_extents: np.ndarray
    velocity: np.ndarray
    yaw: float = 0.0
    class_id: int = 1

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "half_extents", np.asarray(self.half_extents, dtype=np.float64))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=np.float64))
        if np.any(self.half_extents <= 0.0):
            raise ValueError("box half-extents must be strictly positive")
        if not (0 < self.class_id < SKY_CLASS):
            raise ValueError(f"box class_id must lie in (0, {SKY_CLASS})")

    def center_at(self, t: float) -> np.ndarray:
        return self.center + self.velocity * t


@dataclass(frozen=True)
class Aabb:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if np.any(self.lo >= self.hi):
            raise ValueError("aabb lo must be < hi")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    def scaled(self, f: float) -> "Aabb":
        c = 0.5 * (self.lo + self.hi)
        h = 0.5 * (self.hi - self.lo)
        return Aabb(c - f * h, c + f * h)


@dataclass(frozen=True)
class ScanPattern:
    """Regular azimuth x elevation ray grid. Ray index = row * az_count + col."""

    az_count: int = 64
    el_count: int = 24
    az_extent: tuple = (-math.pi, math.pi)
    el_extent: tuple = (-0.35, 0.14)
    max_range: float = 40.0

    def __post_init__(self):
        if self.az_count < 1 or self.el_count < 1:
            raise ValueError("pattern counts must be >= 1")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")

    @property
    def n_rays(self) -> int:
        return self.az_count * self.el_count

    def directions(self) -> np.ndarray:
        """Unit directions in the sensor frame, shape (el_count * az_count, 3)."""
        az_lo, az_hi = self.az_extent
        el_lo, el_hi = self.el_extent
        az = az_lo + (np.arange(self.az_count) + 0.5) * (az_hi - az_lo) / self.az_count
        el = el_lo + (np.arange(self.el_count) + 0.5) * (el_hi - el_lo) / self.el_count
        el_grid, az_grid = np.meshgrid(el, az, indexing="ij")
        ce = np.cos(el_grid)
        dirs = np.stack([ce * np.cos(az_grid), ce * np.sin(az_grid), np.sin(el_grid)], axis=-1)
        return dirs.reshape(-1, 3)


@dataclass(frozen=True)
class CameraIntrinsics:
    width: int = 48
    height: int = 32
    fx: float = 34.3
    fy: float = 34.3
    cx: float = 24.0
    cy: float = 16.0


@dataclass(frozen=True)
class SensorRig:
    lidar_pattern: ScanPattern = field(default_factory=ScanPattern)
    lidar_offset: tuple = (0.0, 0.0, 1.8)
    camera: CameraIntrinsics = field(default_factory=CameraIntrinsics)
    camera_offset: tuple = (0.5, 0.0, 1.2)


# camera axes in the ego frame: z forward (+x ego), x right (-y ego), y down (-z ego)
CAMERA_IN_EGO = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@dataclass
class LidarScan:
    """Struct-of-arrays bundle of timed rays from one sweep.

    ``ranges`` is +inf where ``miss`` is set. ``hit_kind`` records what was
    hit (box index, HIT_GROUND, or HIT_MISS) and ``thickness`` the chord
    length through the hit solid — simulator metadata used for oracle
    classification, carried through rigid transforms unchanged.
    """

    origins: np.ndarray
    dirs: np.ndarray
    ranges: np.ndarray
    miss: np.ndarray
    times: np.ndarray
    rows: int
    cols: int
    max_range: float
    hit_kind: np.ndarray
    thickness: np.ndarray

    @property
    def n(self) -> int:
        return len(self.ranges)

    @property
    def hit_indices(self) -> np.ndarray:
        return np.nonzero(~self.miss)[0]

    def endpoints(self) -> np.ndarray:
        """Hit points; rows where miss is set are not meaningful."""
        r = np.where(self.miss, 0.0, self.ranges)
        return self.origins + r[:, None] * self.dirs

    def transformed(self, pose: Pose) -> "LidarScan":
        """Scan expressed in the frame that ``pose`` maps world points into."""
        return replace(
            self,
            origins=pose.apply(self.origins),
            dirs=pose.rotate_only(self.dirs),
            ranges=self.ranges.copy(),
            miss=self.miss.copy(),
            times=self.times.copy(),
            hit_kind=self.hit_kind.copy(),
            thickness=self.thickness.copy(),
        )

    def time_shifted(self, dt: float) -> "LidarScan":
        return replace(self, times=self.times + dt)


@dataclass
class FeatureImage:
    """Pinhole render: per-pixel feature vector, z-depth (inf for sky), pose."""

    features: np.ndarray      # (H, W, D)
    depth: np.ndarray         # (H, W), camera z-depth
    pose: Pose                # camera-to-world
    intrinsics: CameraIntrinsics
    time: float

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def height(self) -> int:
        return self.features.shape[0]

    @property
    def d_raw(self) -> int:
        return self.features.shape[2]


def _keyframe_times(times) -> np.ndarray:
    """Ego keyframe times as float64; ValueError unless at least two, strictly increasing."""
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2:
        raise ValueError("ego trajectory needs at least two keyframes")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("ego trajectory timestamps must be strictly increasing")
    return times


class BoxOutOfBounds(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"box {index} leaves 2x scene bounds during the simulated horizon")


@dataclass(frozen=True)
class Scene:
    """Immutable ground-truth world; the oracle for every label."""

    ground_z: float
    boxes: tuple
    ego_times: np.ndarray
    ego_positions: np.ndarray
    ego_yaws: np.ndarray
    bounds: Aabb
    rig: SensorRig = field(default_factory=SensorRig)

    def __post_init__(self):
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "ego_times", _keyframe_times(self.ego_times))
        object.__setattr__(self, "ego_positions", np.asarray(self.ego_positions, dtype=np.float64))
        object.__setattr__(self, "ego_yaws", np.asarray(self.ego_yaws, dtype=np.float64))
        guard = self.bounds.scaled(2.0)
        for t in (self.horizon[0], self.horizon[1]):
            for i, box in enumerate(self.boxes):
                c = box.center_at(t)
                radius = float(np.linalg.norm(box.half_extents))
                corners = c[None, :] + np.array([-radius, radius])[:, None] * np.ones(3)
                if not np.all(guard.contains(corners)):
                    raise BoxOutOfBounds(i)

    @property
    def horizon(self) -> tuple:
        return (float(self.ego_times[0]), float(self.ego_times[-1]))

    def check_time(self, t) -> None:
        lo, hi = self.horizon
        t = np.asarray(t, dtype=np.float64)
        # written as "all inside" so that NaN, which compares False, fails it
        if not (np.all(t >= lo - 1e-9) and np.all(t <= hi + 1e-9)):
            raise ValueError(f"time outside simulated horizon [{lo}, {hi}] or NaN")


def boxes_contain(scene: Scene, points: np.ndarray, times) -> np.ndarray:
    """Inside any advected box, as a bool per row of the (N, 3) ``points``
    at ``times`` (a scalar or (N,)); boxes are closed sets.

    Each box runs its elementwise in-box test only on the points in an x-y
    square about its center's path over the finite times, of half-width
    ``norm(half_extents)`` plus a relative 1e-6 margin. The square holds
    every point that test can accept, round-off included (a non-finite
    point or time fails it), so the result is that of testing every point.
    """
    pts = np.asarray(points, dtype=np.float64)
    ts = np.broadcast_to(np.asarray(times, dtype=np.float64), (len(pts),))
    t_span = np.asarray(times, dtype=np.float64)
    t_span = t_span[np.isfinite(t_span)]
    occ = np.zeros(len(pts), dtype=bool)
    if not len(pts) or not len(t_span):
        return occ
    x, y = pts[:, 0].copy(), pts[:, 1].copy()
    for box in scene.boxes:
        path = box.center[None, :] + np.array([t_span.min(), t_span.max()])[:, None] * box.velocity[None, :]
        r = float(np.linalg.norm(box.half_extents))
        r += 1e-6 * (1.0 + r + float(np.abs(path[:, :2]).max()))
        (x0, y0), (x1, y1) = path[:, :2].min(axis=0) - r, path[:, :2].max(axis=0) + r
        near = np.flatnonzero((x >= x0) & (x <= x1))
        near = near[(y[near] >= y0) & (y[near] <= y1)]
        rel = pts[near] - (box.center[None, :] + ts[near, None] * box.velocity[None, :])
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        lx = c * rel[:, 0] - s * rel[:, 1]
        ly = s * rel[:, 0] + c * rel[:, 1]
        occ[near] |= (
            (np.abs(lx) <= box.half_extents[0])
            & (np.abs(ly) <= box.half_extents[1])
            & (np.abs(rel[:, 2]) <= box.half_extents[2])
        )
    return occ


def occupancy_oracle(scene: Scene, points: np.ndarray, times) -> np.ndarray:
    """Exact occupancy: inside any advected box, or at/below the ground plane.

    ``points`` is (N,3) or (3,); ``times`` a scalar or (N,). Returns bool
    array (or scalar for a single point). Solids are closed sets.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    scene.check_time(times)
    occ = (pts[:, 2] <= scene.ground_z) | boxes_contain(scene, pts, times)
    if np.asarray(points).ndim == 1:
        return bool(occ[0])
    return occ


def cast_rays(scene: Scene, origins: np.ndarray, dirs: np.ndarray, t: float, max_range: float):
    """Nearest boxes-or-ground intersection for a batch of rays at time t.

    Returns (ranges, hit_kind, thickness): ranges is +inf with
    hit_kind == HIT_MISS when nothing is hit within max_range; thickness is
    the chord length through the winning box (inf for ground hits).
    """
    scene.check_time(t)
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=np.float64))
    n = len(dirs)
    if len(origins) == 1 and n > 1:
        origins = np.broadcast_to(origins, (n, 3))
    best = np.full(n, np.inf)
    kind = np.full(n, HIT_MISS, dtype=np.int32)
    thickness = np.full(n, np.nan)

    for bi, box in enumerate(scene.boxes):
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        rel = origins - box.center_at(t)[None, :]
        o = np.stack([c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1], rel[:, 2]], axis=1)
        d = np.stack([c * dirs[:, 0] - s * dirs[:, 1], s * dirs[:, 0] + c * dirs[:, 1], dirs[:, 2]], axis=1)
        h = box.half_extents[None, :]
        parallel = np.abs(d) < 1e-300
        safe_d = np.where(parallel, 1.0, d)
        t1 = (-h - o) / safe_d
        t2 = (h - o) / safe_d
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        inside_slab = (o >= -h) & (o <= h)
        lo = np.where(parallel, np.where(inside_slab, -np.inf, np.inf), lo)
        hi = np.where(parallel, np.where(inside_slab, np.inf, -np.inf), hi)
        t_in = lo.max(axis=1)
        t_out = hi.min(axis=1)
        r = np.where(t_in > _RAY_EPS, t_in, t_out)
        ok = (t_in <= t_out) & (t_out >= _RAY_EPS) & (r > _RAY_EPS) & (r <= max_range) & (r < best)
        best = np.where(ok, r, best)
        kind = np.where(ok, bi, kind)
        thickness = np.where(ok, t_out - t_in, thickness)

    down = dirs[:, 2] < -1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        rg = np.where(down, (scene.ground_z - origins[:, 2]) / dirs[:, 2], np.inf)
    ok = down & (rg > _RAY_EPS) & (rg <= max_range) & (rg < best)
    best = np.where(ok, rg, best)
    kind = np.where(ok, HIT_GROUND, kind)
    thickness = np.where(ok, np.inf, thickness)
    return best, kind, thickness


def lidar_pose_at(scene: Scene, t: float) -> Pose:
    return compose(ego_pose_at(scene, t), Pose(np.eye(3), np.asarray(scene.rig.lidar_offset)))


def camera_pose_at(scene: Scene, t: float) -> Pose:
    return compose(ego_pose_at(scene, t), Pose(CAMERA_IN_EGO, np.asarray(scene.rig.camera_offset)))


def cast_lidar_scan(scene: Scene, sensor_pose: Pose, pattern: ScanPattern, t: float) -> LidarScan:
    """One full sweep: one ray per pattern direction, misses recorded."""
    dirs = sensor_pose.rotate_only(pattern.directions())
    origin = sensor_pose.translation
    ranges, kind, thickness = cast_rays(scene, origin[None, :], dirs, t, pattern.max_range)
    miss = kind == HIT_MISS
    n = pattern.n_rays
    return LidarScan(
        origins=np.broadcast_to(origin, (n, 3)).copy(),
        dirs=dirs,
        ranges=ranges,
        miss=miss,
        times=np.full(n, float(t)),
        rows=pattern.el_count,
        cols=pattern.az_count,
        max_range=pattern.max_range,
        hit_kind=kind,
        thickness=thickness,
    )


def class_prototype(class_id: int, d_raw: int) -> np.ndarray:
    """Deterministic per-class feature prototype in [-1, 1]^d_raw."""
    return per_ray_rng(_PROTO_SALT, class_id).uniform(-1.0, 1.0, size=d_raw)


def feature_perturbation(points: np.ndarray, d_raw: int) -> np.ndarray:
    """Smooth world-position-dependent perturbation, |.|_inf <= PERTURB_BOUND."""
    pts = np.atleast_2d(points)
    g = per_ray_rng(_PERTURB_SALT, d_raw)
    w = g.uniform(-1.2, 1.2, size=(3, d_raw))
    phase = g.uniform(0.0, 2.0 * math.pi, size=d_raw)
    return PERTURB_BOUND * np.sin(pts @ w + phase)


def render_feature_image(
    scene: Scene, camera_pose: Pose, intrinsics: CameraIntrinsics, t: float, d_raw: int
) -> FeatureImage:
    """Pinhole render of class-prototype features plus a z-depth map.

    Per pixel: cast the center ray with the shared caster; feature = hit
    class prototype + smooth perturbation of the hit point; sky pixels get
    the sky prototype and depth inf. Depth is camera z-depth (not range).
    """
    if d_raw < 4:
        raise ValueError("d_raw must be >= 4")
    w, h = intrinsics.width, intrinsics.height
    u = (np.arange(w) + 0.5 - intrinsics.cx) / intrinsics.fx
    v = (np.arange(h) + 0.5 - intrinsics.cy) / intrinsics.fy
    vg, ug = np.meshgrid(v, u, indexing="ij")
    d_cam = np.stack([ug, vg, np.ones_like(ug)], axis=-1).reshape(-1, 3)
    norms = np.linalg.norm(d_cam, axis=1)
    dirs = camera_pose.rotate_only(d_cam / norms[:, None])
    max_range = scene.rig.lidar_pattern.max_range
    ranges, kind, _ = cast_rays(scene, camera_pose.translation[None, :], dirs, t, max_range)
    miss = kind == HIT_MISS

    depth = np.where(miss, np.inf, ranges / norms)
    class_ids = np.where(kind == HIT_GROUND, GROUND_CLASS, np.where(miss, SKY_CLASS, 0))
    for bi, box in enumerate(scene.boxes):
        class_ids = np.where(kind == bi, box.class_id, class_ids)

    feats = np.empty((w * h, d_raw))
    for cid in np.unique(class_ids):
        feats[class_ids == cid] = class_prototype(int(cid), d_raw)
    hit_pts = camera_pose.translation[None, :] + np.where(miss, 0.0, ranges)[:, None] * dirs
    pert = feature_perturbation(hit_pts, d_raw)
    pert[miss] = 0.0
    feats += pert
    return FeatureImage(
        features=feats.reshape(h, w, d_raw),
        depth=depth.reshape(h, w),
        pose=camera_pose,
        intrinsics=intrinsics,
        time=float(t),
    )


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def ego_pose_at(scene: Scene, t: float) -> Pose:
    """Piecewise pose: linear translation, shortest-path yaw interpolation."""
    scene.check_time(t)
    times = scene.ego_times
    t = float(min(max(t, times[0]), times[-1]))
    idx = int(np.searchsorted(times, t, side="right")) - 1
    idx = min(max(idx, 0), len(times) - 1)
    if times[idx] == t or idx == len(times) - 1:
        return Pose(yaw_matrix(float(scene.ego_yaws[idx])), scene.ego_positions[idx])
    frac = (t - times[idx]) / (times[idx + 1] - times[idx])
    pos = scene.ego_positions[idx] + frac * (scene.ego_positions[idx + 1] - scene.ego_positions[idx])
    dyaw = _wrap_angle(float(scene.ego_yaws[idx + 1] - scene.ego_yaws[idx]))
    return Pose(yaw_matrix(float(scene.ego_yaws[idx]) + frac * dyaw), pos)


def ego_path_vertices(scene: Scene, t0: float, t1: float) -> np.ndarray:
    """Polyline of ego translations over [t0, t1]: interior keyframes plus
    exact interpolated endpoints."""
    scene.check_time(t0)
    scene.check_time(t1)
    inner = scene.ego_times[(scene.ego_times > t0) & (scene.ego_times < t1)]
    ts = np.concatenate([[t0], inner, [t1]])
    return np.stack([ego_pose_at(scene, float(t)).translation for t in ts])


# ---------------------------------------------------------------------------
# procedural scene suite


def random_scene(seed: int, n_boxes=(3, 6), speed_max=2.5, ego_speed=(2.0, 3.5),
                 yaw_rate_max=0.12, region_half=12.0, ground_range=(0.0, 0.0)) -> Scene:
    """Seeded random world: a ground plane, moving boxes clear of the ego
    path, and a gently curving constant-speed ego track centered so the ego
    is at the origin (yaw ~ 0) at t = 0. ``ground_range`` randomizes the
    ground height per scene (the ego track and boxes ride on it)."""
    rng = per_ray_rng(seed, 0, stream=0x5CE7E)
    t_lo, t_hi, dt = -1.5, 3.5, 0.5
    times = np.round(np.arange(t_lo, t_hi + 1e-9, dt), 6)
    speed = rng.uniform(*ego_speed)
    yaw_rate = rng.uniform(-yaw_rate_max, yaw_rate_max)
    yaw0 = rng.uniform(-0.2, 0.2)
    yaws = yaw0 + yaw_rate * times
    positions = np.zeros((len(times), 3))
    # integrate from the t=0 keyframe outward so the origin lands at t=0
    i0 = int(np.argmin(np.abs(times)))
    for i in range(i0 + 1, len(times)):
        step = (times[i] - times[i - 1]) * speed
        mid = 0.5 * (yaws[i] + yaws[i - 1])
        positions[i] = positions[i - 1] + step * np.array([math.cos(mid), math.sin(mid), 0.0])
    for i in range(i0 - 1, -1, -1):
        step = (times[i + 1] - times[i]) * speed
        mid = 0.5 * (yaws[i] + yaws[i + 1])
        positions[i] = positions[i + 1] - step * np.array([math.cos(mid), math.sin(mid), 0.0])

    count = int(rng.integers(n_boxes[0], n_boxes[1] + 1))
    boxes = []
    attempts = 0
    while len(boxes) < count and attempts < 200:
        attempts += 1
        center = np.array([
            rng.uniform(-region_half, region_half),
            rng.uniform(-region_half, region_half),
            0.0,
        ])
        half = np.array([rng.uniform(0.6, 2.2), rng.uniform(0.6, 2.2), rng.uniform(0.5, 1.4)])
        center[2] = half[2]  # resting on the ground
        # keep a clear corridor around the ego path
        d = np.min(np.linalg.norm(positions[:, :2] - center[None, :2], axis=1))
        if d < float(np.hypot(half[0], half[1])) + 2.5:
            continue
        ang = rng.uniform(0.0, 2.0 * math.pi)
        spd = rng.uniform(0.0, speed_max)
        vel = np.array([spd * math.cos(ang), spd * math.sin(ang), 0.0])
        boxes.append(
            Box(center, half, vel, yaw=rng.uniform(-math.pi, math.pi), class_id=int(rng.integers(1, 5)))
        )
    ground_z = float(rng.uniform(*ground_range))
    if ground_z != 0.0:
        positions = positions + np.array([0.0, 0.0, ground_z])
        boxes = [
            Box(b.center + np.array([0.0, 0.0, ground_z]), b.half_extents, b.velocity, b.yaw, b.class_id)
            for b in boxes
        ]
    bounds = Aabb([-24.0, -24.0, -2.5], [24.0, 24.0, 6.0])
    return Scene(ground_z, tuple(boxes), times, positions, yaws, bounds)


# ---------------------------------------------------------------------------
# JSON scene configs


_XYZ = (0.0, 0.0, 0.0)

# every key a scene file may hold, each with a default of its JSON type
_SCENE_TEMPLATE = {
    "ground_z": 0.0,
    "bounds": {"lo": _XYZ, "hi": _XYZ},
    "boxes": [{"center": _XYZ, "half_extents": _XYZ, "velocity": _XYZ, "yaw": 0.0, "class_id": 1}],
    "ego_track": [{"t": 0.0, "position": _XYZ, "yaw": 0.0}],
    "sensors": {
        "lidar": {**asdict(ScanPattern()), "offset": _XYZ},
        "camera": {**asdict(CameraIntrinsics()), "offset": _XYZ},
    },
}
_SCENE_REQUIRED = (
    "ground_z", "boxes", "ego_track", "bounds", "bounds/lo", "bounds/hi",
    "boxes/*/center", "boxes/*/half_extents", "boxes/*/velocity",
    "ego_track/*/t", "ego_track/*/position", "ego_track/*/yaw",
)


def scene_to_dict(scene: Scene) -> dict:
    rig = scene.rig
    return {
        "ground_z": scene.ground_z,
        "bounds": {"lo": scene.bounds.lo.tolist(), "hi": scene.bounds.hi.tolist()},
        "boxes": [
            {
                "center": b.center.tolist(),
                "half_extents": b.half_extents.tolist(),
                "velocity": b.velocity.tolist(),
                "yaw": b.yaw,
                "class_id": b.class_id,
            }
            for b in scene.boxes
        ],
        "ego_track": [
            {"t": float(t), "position": p.tolist(), "yaw": float(y)}
            for t, p, y in zip(scene.ego_times, scene.ego_positions, scene.ego_yaws)
        ],
        "sensors": {
            "lidar": {**artifact.to_json(rig.lidar_pattern), "offset": list(rig.lidar_offset)},
            "camera": {**artifact.to_json(rig.camera), "offset": list(rig.camera_offset)},
        },
    }


def _built_at(where: str, make, *args):
    """``make(*args)``, naming the scene file's element ``where`` in its ValueError."""
    try:
        return make(*args)
    except ValueError as e:
        raise ValueError(f"invalid scene config at {where}: {e}") from None


def scene_from_dict(doc: dict) -> Scene:
    try:
        artifact.check_json(doc, _SCENE_TEMPLATE, _SCENE_REQUIRED)
    except ValueError as e:
        raise ValueError(f"invalid scene config at {e}") from None
    sensors = doc.get("sensors", {})
    lid = sensors.get("lidar", {})
    cam = sensors.get("camera", {})
    rig = SensorRig(
        lidar_pattern=artifact.from_json(ScanPattern, {k: v for k, v in lid.items() if k != "offset"}),
        lidar_offset=tuple(lid.get("offset", SensorRig.lidar_offset)),
        camera=artifact.from_json(CameraIntrinsics, {k: v for k, v in cam.items() if k != "offset"}),
        camera_offset=tuple(cam.get("offset", SensorRig.camera_offset)),
    )
    track = sorted(doc["ego_track"], key=lambda k: k["t"])
    try:
        return Scene(
            ground_z=doc["ground_z"],
            boxes=tuple(
                _built_at(
                    f"boxes/{i}", Box, b["center"], b["half_extents"], b["velocity"], b.get("yaw", 0.0), b.get("class_id", 1)
                )
                for i, b in enumerate(doc["boxes"])
            ),
            ego_times=_built_at("ego_track", _keyframe_times, [k["t"] for k in track]),
            ego_positions=np.array([k["position"] for k in track]),
            ego_yaws=np.array([k["yaw"] for k in track]),
            bounds=Aabb(doc["bounds"]["lo"], doc["bounds"]["hi"]),
            rig=rig,
        )
    except BoxOutOfBounds as e:  # Scene checks all its boxes at once
        raise ValueError(f"invalid scene config at boxes/{e.index}: {e}") from None


def save_scene_json(scene: Scene, path) -> None:
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f, indent=1, sort_keys=True)


def load_scene_json(path) -> Scene:
    """The scene in the JSON file ``path``; ValueError naming ``path`` if it is not one."""
    doc = artifact.read_json(path)
    try:
        return scene_from_dict(doc)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# scan / image artifacts


def save_scan(scan: LidarScan, path) -> None:
    artifact.save(
        path, "scan", {"rows": int(scan.rows), "cols": int(scan.cols), "max_range": float(scan.max_range)},
        origins=np.asarray(scan.origins, "<f8"),
        dirs=np.asarray(scan.dirs, "<f8"),
        ranges=np.asarray(scan.ranges, "<f8"),
        miss=np.asarray(scan.miss, "u1"),
        times=np.asarray(scan.times, "<f8"),
        hit_kind=np.asarray(scan.hit_kind, "<i4"),
        thickness=np.asarray(scan.thickness, "<f8"),
    )


def load_scan(path) -> LidarScan:
    meta, a = artifact.load(path, "scan")
    return LidarScan(
        a["origins"], a["dirs"], a["ranges"], a["miss"].astype(bool), a["times"],
        meta["rows"], meta["cols"], meta["max_range"], a["hit_kind"], a["thickness"],
    )


def save_feature_image(img: FeatureImage, path) -> None:
    intr = img.intrinsics
    artifact.save(
        path, "feature-image", {"time": float(img.time)},
        rotation=np.asarray(img.pose.rotation, "<f8"),
        translation=np.asarray(img.pose.translation, "<f8"),
        depth=np.asarray(img.depth, "<f8"),
        features=np.asarray(img.features, "<f4"),
        intrinsics=np.array([intr.fx, intr.fy, intr.cx, intr.cy], "<f4"),
    )


def load_feature_image(path) -> FeatureImage:
    meta, a = artifact.load(path, "feature-image")
    h, w = a["depth"].shape
    return FeatureImage(
        features=a["features"].astype(np.float64),
        depth=a["depth"],
        pose=Pose(a["rotation"], a["translation"]),
        intrinsics=CameraIntrinsics(w, h, *a["intrinsics"].tolist()),
        time=meta["time"],
    )
