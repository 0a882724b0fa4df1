"""Evaluation protocols: ray-traced voxel labels, recall at fixed precision,
average precision, Soft-IoU, and the dense 4D occupancy / ego-path harnesses.

Voxel traversal is an incremental Amanatides-Woo march, run on all rays of a
scan in lockstep; tests check it against the per-ray march and that against a
brute-force per-voxel slab oracle rather than trusting it. Every
precision-recall metric is one sort (``_ranked``) and one summary
(``_summary``: recall at precision, its threshold, AP) of an exact threshold
sweep with ties grouped.

The harnesses score a field from BEV grids that the caller supplies, one per
scene (``scene_grid_for``), at the caller's t0. The occupancy harness runs
one box test per scene and time for both its label sets, keeps its scores
and labels in (scene, time, probe) arrays and sorts their scene-major ravel
once, so each per-time row and the known-ray probes are masks on that one
order.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .field import FieldParams, MODE_AMORTIZED, encode, lattice_head, sigmoid
from .geom import inverse
from .queries import SamplerConfig, ego_tube_distance, past_encoder_input
from .scene import Scene, boxes_contain, cast_lidar_scan, ego_path_vertices, ego_pose_at, lidar_pose_at
from .training import TRAIN_DTYPE

LABEL_FREE = 0
LABEL_OCCUPIED = 1
LABEL_UNKNOWN = -1

SCAN_MATCH_WINDOW = 0.3

PAPER_EVAL_TIMES = (0.6, 1.2, 1.8, 2.4, 3.0)


@dataclass(frozen=True)
class EvalGrid:
    """Probe lattice: voxel centers of ``step``-sized cells over the region,
    probed at the configured future times. Desk default is a 32 x 32 m
    region."""

    x: tuple = (-16.0, 16.0)
    y: tuple = (-16.0, 16.0)
    z: tuple = (-0.4, 2.8)
    step: float = 0.2
    times: tuple = PAPER_EVAL_TIMES

    def __post_init__(self):
        box = f"x={self.x}, y={self.y}, z={self.z}, step={self.step}"
        if not all(map(math.isfinite, (*self.x, *self.y, *self.z, self.step))) or self.step <= 0:
            raise ValueError(f"lattice bounds and step must be finite, the step positive: {box}")
        if min(self.shape) < 1:
            raise ValueError(f"lattice {box} has (z, y, x) cells {self.shape}; each axis needs at least one")
        if not self.times or min(self.times) < 0:
            raise ValueError(f"eval times {list(self.times)} must hold at least one probe time, each >= 0")

    @property
    def shape(self) -> tuple:
        nx = int(round((self.x[1] - self.x[0]) / self.step))
        ny = int(round((self.y[1] - self.y[0]) / self.step))
        nz = int(round((self.z[1] - self.z[0]) / self.step))
        return (nz, ny, nx)

    def centers(self) -> np.ndarray:
        """All probe centers as an (nz * ny * nx, 3) array, z-major; an axis
        value within 1e-9 step of 0 is exactly 0, e.g. on the ground z = 0."""
        axes = [lo + (np.arange(n) + 0.5) * self.step for lo, n in zip((self.z[0], self.y[0], self.x[0]), self.shape)]
        zg, yg, xg = np.meshgrid(*[np.where(np.abs(a) < 1e-9 * self.step, 0.0, a) for a in axes], indexing="ij")
        return np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)


def traverse_voxels(p0: np.ndarray, p1: np.ndarray, grid: EvalGrid):
    """Voxel indices (iz, iy, ix) crossed by the segment p0 -> p1, via the
    incremental grid-stepping march: the per-ray reference of march_voxels."""
    nz, ny, nx = grid.shape
    lo = np.array([grid.x[0], grid.y[0], grid.z[0]])
    g0 = (np.asarray(p0, dtype=np.float64) - lo) / grid.step
    g1 = (np.asarray(p1, dtype=np.float64) - lo) / grid.step
    n = (nx, ny, nz)
    d = g1 - g0
    t_lo, t_hi = 0.0, 1.0
    for k in range(3):
        if abs(d[k]) < 1e-300:
            if g0[k] < 0.0 or g0[k] > n[k]:
                return []
            continue
        ta = (0.0 - g0[k]) / d[k]
        tb = (n[k] - g0[k]) / d[k]
        if ta > tb:
            ta, tb = tb, ta
        t_lo = max(t_lo, ta)
        t_hi = min(t_hi, tb)
        if t_lo >= t_hi:
            return []
    a = g0 + t_lo * d
    v = [int(min(max(math.floor(a[k]), 0), n[k] - 1)) for k in range(3)]
    step = [0 if d[k] == 0 else (1 if d[k] > 0 else -1) for k in range(3)]
    t_max = [math.inf] * 3
    t_delta = [math.inf] * 3
    with np.errstate(over="ignore"):  # a subnormal d[k] gives +-inf steps, as in march_voxels
        for k in range(3):
            if step[k] > 0:
                t_max[k] = t_lo + ((v[k] + 1) - a[k]) / d[k]
                t_delta[k] = 1.0 / d[k]
            elif step[k] < 0:
                t_max[k] = t_lo + (v[k] - a[k]) / d[k]
                t_delta[k] = -1.0 / d[k]
    out = []
    while True:
        out.append((v[2], v[1], v[0]))
        k = min(range(3), key=lambda i: t_max[i])
        if t_max[k] >= t_hi:
            break
        v[k] += step[k]
        if v[k] < 0 or v[k] >= n[k]:
            break
        t_max[k] += t_delta[k]
    return out


def march_voxels(p0: np.ndarray, p1: np.ndarray, grid: EvalGrid) -> np.ndarray:
    """Flat (z-major) indices of the voxels crossed by each segment
    p0[i] -> p1[i], with repeats: ``traverse_voxels`` run on all segments in
    lockstep. Every segment gets the same float64 operations in the same
    order, so each one crosses exactly the voxels ``traverse_voxels`` lists
    for it. Endpoints must be finite."""
    nz, ny, nx = grid.shape
    lo = np.array([grid.x[0], grid.y[0], grid.z[0]])
    g0 = (np.asarray(p0, dtype=np.float64).reshape(-1, 3) - lo) / grid.step
    g1 = (np.asarray(p1, dtype=np.float64).reshape(-1, 3) - lo) / grid.step
    n = np.array([nx, ny, nz])
    d = g1 - g0
    t_lo, t_hi, live = np.zeros(len(d)), np.ones(len(d)), np.ones(len(d), dtype=bool)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(3):
            flat = np.abs(d[:, k]) < 1e-300
            live &= ~flat | ((g0[:, k] >= 0.0) & (g0[:, k] <= n[k]))
            ta = (0.0 - g0[:, k]) / d[:, k]
            tb = (n[k] - g0[:, k]) / d[:, k]
            ta, tb = np.where(ta > tb, tb, ta), np.where(ta > tb, ta, tb)
            t_lo = np.where(~flat & (ta > t_lo), ta, t_lo)  # max(t_lo, ta)
            t_hi = np.where(~flat & (tb < t_hi), tb, t_hi)  # min(t_hi, tb)
        live &= t_lo < t_hi
        g0, d, t_lo, t_hi = g0[live], d[live], t_lo[live], t_hi[live]
        a = g0 + t_lo[:, None] * d
        v = np.clip(np.floor(a), 0, n - 1).astype(np.int64)
        step = np.sign(d).astype(np.int64)
        t_max = np.where(step > 0, t_lo[:, None] + ((v + 1) - a) / d, math.inf)
        t_max = np.where(step < 0, t_lo[:, None] + (v - a) / d, t_max)
        t_delta = np.where(step > 0, 1.0 / d, np.where(step < 0, -1.0 / d, math.inf))
    out = []
    rows = np.arange(len(v))
    while len(v):
        out.append((v[:, 2] * ny + v[:, 1]) * nx + v[:, 0])
        k = np.argmin(t_max, axis=1)  # the first minimum, as min(range(3), key=...)
        go = t_max[rows, k] < t_hi
        v[rows, k] += step[rows, k]
        vk = v[rows, k]
        go &= (vk >= 0) & (vk < n[k])
        t_max[rows, k] += t_delta[rows, k]
        if not go.all():
            v, t_max, t_delta, step, t_hi = v[go], t_max[go], t_delta[go], step[go], t_hi[go]
            rows = rows[: len(v)]
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def label_by_raytrace(eval_scans: list, grid: EvalGrid, boxes: np.ndarray | None = None) -> np.ndarray:
    """Free / occupied / unknown labels for every probe at every grid time.

    A voxel is free when a matched scan's ray segment traverses it, occupied
    when a hit point falls inside it or (when ``boxes`` is given) its probe
    center sits inside a ground-truth box at that time; occupied wins
    conflicts. Probe times with no scan within the matching window stay
    unknown. Scans must be in the grid's frame and clock; ``boxes`` is the
    (len(times), n_probes) box test of the probe centers at those times.

    Returns int8 labels of shape (len(times), nz, ny, nx).
    """
    nz, ny, nx = grid.shape
    labels = np.full((len(grid.times), nz, ny, nx), LABEL_UNKNOWN, dtype=np.int8)
    lo = np.array([grid.x[0], grid.y[0], grid.z[0]])
    for ti, t in enumerate(grid.times):
        best, best_dt = None, math.inf
        for scan in eval_scans:
            dt = abs(float(scan.times[0]) - t)
            if dt < best_dt:
                best, best_dt = scan, dt
        if best is None or best_dt > SCAN_MATCH_WINDOW:
            continue
        hits = best.hit_indices
        hit_pts = best.endpoints()[hits]
        free = np.zeros((nz, ny, nx), dtype=bool)
        free.flat[march_voxels(best.origins[hits], hit_pts, grid)] = True
        occupied = np.zeros((nz, ny, nx), dtype=bool)
        idx = np.floor((hit_pts - lo) / grid.step).astype(np.int64)
        keep = (
            (idx[:, 0] >= 0) & (idx[:, 0] < nx)
            & (idx[:, 1] >= 0) & (idx[:, 1] < ny)
            & (idx[:, 2] >= 0) & (idx[:, 2] < nz)
        )
        idx = idx[keep]
        occupied[idx[:, 2], idx[:, 1], idx[:, 0]] = True
        if boxes is not None:  # annotated boxes, not terrain, are the protocol's occupancy evidence
            occupied |= boxes[ti].reshape(nz, ny, nx)
        slab = labels[ti]
        slab[free] = LABEL_FREE
        slab[occupied] = LABEL_OCCUPIED  # occupied wins conflicts
    return labels


# ---------------------------------------------------------------------------
# metrics


def _ranked(scores, labels):
    """(order, scores, labels), the float64 ``scores`` sorted descending by
    numpy's default (unstable) sort; ValueError on NaN."""
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    order = np.argsort(-scores)
    return order, scores[order], np.asarray(labels)[order]


def _sweep(s: np.ndarray, y: np.ndarray):
    """(thresholds desc, precision, recall) at every distinct score of the
    descending scores ``s`` with 0/1 labels ``y``, ties grouped; asserts
    recall monotonicity along the sweep. Only the last row of each tie group
    is kept, where the counts are exact whatever the order inside the group."""
    tp = np.cumsum(y, dtype=np.int64)
    idx = np.append(np.nonzero(np.diff(s) != 0.0)[0], len(s) - 1)  # each tie group's last row
    thr, tp = s[idx], tp[idx]
    precision = tp / (idx + 1.0)  # tp + fp = idx + 1 rows lie at or above thr
    recall = tp / float(tp[-1]) if tp[-1] > 0 else np.zeros(len(tp))
    if np.any(np.diff(recall) < -1e-15):
        raise AssertionError("recall must be non-decreasing as the threshold loosens")
    return thr, precision, recall


def _summary(s: np.ndarray, y: np.ndarray, precision_target: float = 0.7):
    """(recall, threshold, AP) of ``_sweep(s, y)``: the max recall at precision
    >= target and the loosest threshold giving it, (0, inf) if none does; AP
    sums (R_k - R_{k-1}) * P_k in descending-threshold order (np.cumsum adds
    strictly in order), as the obvious scalar loop does, bit for bit."""
    thr, precision, recall = _sweep(s, y)
    ap = float(np.cumsum((recall - np.concatenate([[0.0], recall[:-1]])) * precision)[-1])
    ok = precision >= precision_target
    if not ok.any():
        return 0.0, math.inf, ap
    best = recall[ok].max()
    return float(best), float(thr[ok & (recall == best)].min()), ap


def _both_classes(labels) -> np.ndarray:
    """``labels`` as an array; ValueError unless both classes occur."""
    labels = np.asarray(labels)
    if labels.sum() == 0 or labels.sum() == len(labels):
        raise ValueError("labels need at least one positive and one negative")
    return labels


def recall_at_precision(scores, labels, precision_target: float):
    """Max recall over thresholds whose precision meets the target, plus the
    loosest qualifying threshold; (0, inf) when none qualifies."""
    _, s, y = _ranked(scores, _both_classes(labels))
    return _summary(s, y, precision_target)[:2]


def average_precision(scores, labels) -> float:
    """Step-interpolated area under the precision-recall curve (``_summary``)."""
    if np.sum(labels) == 0:
        raise ValueError("average precision needs at least one positive")
    _, s, y = _ranked(scores, labels)
    return _summary(s, y)[2]


def soft_iou(scores, labels) -> float:
    """sum(p*y) / (sum(p) + sum(y) - sum(p*y)); 1 when both sides are empty."""
    p = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both comparisons
        raise ValueError("soft_iou expects probabilities in [0, 1]")
    inter = float(np.sum(p * y))
    denom = float(np.sum(p) + np.sum(y) - inter)
    if denom == 0.0:
        return 1.0 if (np.sum(p) == 0.0 and np.sum(y) == 0.0) else 0.0
    return inter / denom


# ---------------------------------------------------------------------------
# harnesses


PAST_OFFSETS = (-1.0, -0.5, 0.0)  # the suite's default past-scan times


def scene_grid_for(fp: FieldParams, scene: Scene, past_times=PAST_OFFSETS) -> np.ndarray:
    """The field's BEV grid for a scene in training's dtype, TRAIN_DTYPE,
    which the heads then score in: encoded by the params in that dtype from
    the scans at the scene times ``past_times`` in amortized mode, as
    training's samples encode them at rotation 0 with t0 = max(past_times);
    the learned grid itself in fit-per-scene mode."""
    fp = fp.astype(TRAIN_DTYPE)
    if fp.mode == MODE_AMORTIZED:
        t0 = max(past_times)
        scans = [cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t) for t in past_times]
        return encode(fp, past_encoder_input(scans, inverse(ego_pose_at(scene, t0)), t0, 0.0))
    return fp.params["grid.z"]


@contextmanager
def _timed(timings, key: str):
    """Add the block's wall seconds to ``timings[key]`` (when given)."""
    start = time.perf_counter()
    yield
    if timings is not None:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - start


def _label_counts(ray: np.ndarray) -> dict:
    counts = np.bincount(ray.ravel() + 1, minlength=3)  # unknown (-1), free (0), occupied (1)
    return {"unknown": int(counts[0]), "free": int(counts[1]), "occupied": int(counts[2])}


def eval_4d_occupancy(
    fp: FieldParams, scenes: list, grid: EvalGrid, t0: float, z_grids: list, raytrace: bool, timings=None
) -> dict:
    """Dense occupancy forecasting over the probe lattice.

    Scores every probe at every time with the occupancy head, from each
    scene's BEV grid in ``z_grids`` (``scene_grid_for`` with the past scans
    before t0); probe time t is scene time t0 + t. Labels come from the
    exact simulator oracle (all probes) and, with ``raytrace``, from lidar
    ray tracing (the paper's protocol; unknown probes are left out). Scores,
    exact labels and ray labels are (scene, time, probe) arrays: the whole
    set is their scene-major ravel and time t's row of the per-time
    breakdown is the slice [:, t]. One box test per scene and time feeds
    both label sets: the exact labels are ``occupancy_oracle``'s ground |
    boxes, and the ray-traced labels take the boxes as occupied evidence.
    ``timings`` adds up the seconds of "score", "oracle" (the box test and
    exact labels), "raytrace" (the rest of the ray-traced labels) and
    "metrics". Returns the metric bundle with per-time breakdown and probe
    label counts.
    """
    centers = grid.centers()
    layer = grid.shape[1] * grid.shape[2]
    shape = (len(scenes), len(grid.times), len(centers))
    scores, exact = np.empty(shape), np.empty(shape, dtype=np.int8)
    ray = np.empty(shape if raytrace else 0, dtype=np.int8)  # without ray tracing, all counts are 0
    for si, (scene, z_grid) in enumerate(zip(scenes, z_grids)):
        with _timed(timings, "score"):  # the logits in place, then one time's probabilities at a time
            lattice_head(fp, z_grid, "occ", centers[:layer, :2], centers[::layer, 2], grid.times, scores[si].reshape(-1, 1))
            for row in scores[si]:
                row[:] = sigmoid(row)
        to_world = ego_pose_at(scene, t0)
        with _timed(timings, "oracle"):
            world = to_world.apply(centers)
            scene.check_time([t0 + t for t in grid.times])
            boxes = np.stack([boxes_contain(scene, world, t0 + t) for t in grid.times])
            exact[si] = (world[:, 2] <= scene.ground_z) | boxes
        if raytrace:
            with _timed(timings, "raytrace"):
                ref = inverse(to_world)
                eval_scans = [
                    cast_lidar_scan(scene, lidar_pose_at(scene, t0 + t), scene.rig.lidar_pattern, t0 + t)
                    .transformed(ref)
                    .time_shifted(-t0)
                    for t in grid.times
                ]
                ray[si] = label_by_raytrace(eval_scans, grid, boxes).reshape(len(grid.times), -1)
        del world, boxes  # not held through the sweeps below, where eval's RSS peaks

    with _timed(timings, "metrics"):
        report = {"probe_counts": _label_counts(ray), "n_probes": scores.size, "per_time_breakdown": []}
        # one sort for every sweep: each subset below is a mask on this order
        sc = scores.ravel()
        order, s, ex = _ranked(sc, exact.ravel())
        ti_of = order // len(centers) % len(grid.times)
        r, thr, ap = _summary(s, _both_classes(ex))
        report.update(r_at_p70_exact=r, threshold_exact=thr, ap_occ_exact=ap, soft_iou=soft_iou(sc, exact.ravel()))
        if raytrace:
            rl = ray.ravel()[order]
            known = rl != LABEL_UNKNOWN
            y = rl[known]
            r, thr, ap = _summary(s[known], y) if 0 < y.sum() < len(y) else (0.0, math.inf, 0.0)
            report.update(r_at_p70=r, threshold=thr, ap_occ=ap)
        for ti, t in enumerate(grid.times):
            row, at_t = {"time": t}, ti_of == ti
            y = ex[at_t]
            if 0 < y.sum() < len(y):
                row["r_at_p70_exact"], _, row["ap_occ_exact"] = _summary(s[at_t], y)
            if raytrace:
                row["probe_counts"] = _label_counts(ray[:, ti])
                at_t &= known
                y = rl[at_t]
                if 0 < y.sum() < len(y):
                    row["r_at_p70"] = _summary(s[at_t], y)[0]
            report["per_time_breakdown"].append(row)
    return report


def eval_ego_path(
    fp: FieldParams, scenes: list, sampler: SamplerConfig, t0: float, bev_step: float, z_grids: list, timings=None
) -> dict:
    """AP of the ego-path head over a BEV probe lattice labeled by the tube
    rule, plus one probability raster per scene for qualitative dumps.
    ``t0``, ``z_grids`` and ``timings`` as in ``eval_4d_occupancy``."""
    cfg = fp.config
    xs = np.arange(cfg.x_range[0] + bev_step / 2, cfg.x_range[1], bev_step)
    ys = np.arange(cfg.y_range[0] + bev_step / 2, cfg.y_range[1], bev_step)
    yg, xg = np.meshgrid(ys, xs, indexing="ij")
    all_scores, all_labels, rasters = [], [], []
    for scene, z_grid in zip(scenes, z_grids):
        ref = inverse(ego_pose_at(scene, t0))
        verts = ref.apply(ego_path_vertices(scene, t0, t0 + sampler.t_max))
        z_probe = float(np.clip(verts[:, 2].mean(), cfg.z_range[0], cfg.z_range[1]))
        probes = np.stack([xg.ravel(), yg.ravel(), np.full(xg.size, z_probe)], axis=1)
        with _timed(timings, "oracle"):
            labels = (ego_tube_distance(verts, probes) <= sampler.w_ego).astype(np.int8)
        with _timed(timings, "score"):
            scores = sigmoid(lattice_head(fp, z_grid, "ego", probes[:, :2], [z_probe], sampler.t_max / 2.0)[:, 0])
        all_scores.append(scores)
        all_labels.append(labels)
        rasters.append(scores.reshape(len(ys), len(xs)))
    scores = np.concatenate(all_scores)
    labels = np.concatenate(all_labels)
    return {
        "ap_ego": average_precision(scores, labels),
        "ego_base_rate": float(labels.mean()),
        "rasters": rasters,
    }


# ---------------------------------------------------------------------------
# report artifacts


def write_report_json(report: dict, path) -> None:
    """Strict JSON: a threshold that no score reaches (inf) is written as
    null, and any other non-finite value raises ValueError."""
    doc = {k: None if k.startswith("threshold") and v == math.inf else v for k, v in report.items()}
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1, allow_nan=False)
        f.write("\n")


def write_pgm(raster: np.ndarray, path) -> None:
    """8-bit binary PGM of values in [0, 1]."""
    img = np.clip(np.asarray(raster, dtype=np.float64), 0.0, 1.0)
    data = (img * 255.0).round().astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())
