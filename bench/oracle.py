"""Reference computations the benchmark checks the program's outputs against.

Written from the definitions, without calling occ4d: scenes are the plain
dicts of the scene JSON files. test_oracle.py checks each one against
hand-worked cases.
"""

from __future__ import annotations

import math

import numpy as np

MISS = -2
GROUND = -1


def box_center(box: dict, t: float) -> list:
    return [c + t * v for c, v in zip(box["center"], box["velocity"])]


def ray_hit(scene: dict, origin, direction, t: float, max_range: float, eps: float = 1e-9):
    """Nearest surface hit of one ray at time t, one slab test per box.

    Returns (range, kind): kind is the box index, GROUND or MISS (range inf).
    A ray starting inside a box hits it where it leaves."""
    best, kind = math.inf, MISS
    for bi, box in enumerate(scene["boxes"]):
        c, s = math.cos(box["yaw"]), math.sin(box["yaw"])
        cx, cy, cz = box_center(box, t)
        rx, ry, rz = origin[0] - cx, origin[1] - cy, origin[2] - cz
        # world -> box frame is a rotation by -yaw
        o = (c * rx + s * ry, -s * rx + c * ry, rz)
        d = (c * direction[0] + s * direction[1], -s * direction[0] + c * direction[1], direction[2])
        t_in, t_out = -math.inf, math.inf
        for k in range(3):
            h = box["half_extents"][k]
            if d[k] == 0.0:
                if abs(o[k]) > h:
                    t_in, t_out = math.inf, -math.inf
                continue
            a, b = (-h - o[k]) / d[k], (h - o[k]) / d[k]
            t_in, t_out = max(t_in, min(a, b)), min(t_out, max(a, b))
        if t_in > t_out or t_out <= eps:
            continue
        r = t_in if t_in > eps else t_out
        if r <= max_range and r < best:
            best, kind = r, bi
    if direction[2] < 0.0:
        r = (scene["ground_z"] - origin[2]) / direction[2]
        if eps < r <= max_range and r < best:
            best, kind = r, GROUND
    return best, kind


def solid_depth(scene: dict, points: np.ndarray, t) -> np.ndarray:
    """Signed depth of each point inside the scene's solids at time t:
    >= 0 inside a box or at/below the ground (closed sets), < 0 in free
    space, where -depth bounds the distance to the nearest box face or to
    the ground plane from below."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(pts),))
    depth = scene["ground_z"] - pts[:, 2]
    for box in scene["boxes"]:
        c, s = math.cos(-box["yaw"]), math.sin(-box["yaw"])
        center = np.asarray(box["center"], dtype=np.float64)
        vel = np.asarray(box["velocity"], dtype=np.float64)
        rel = pts - (center[None, :] + t[:, None] * vel[None, :])
        local = (c * rel[:, 0] - s * rel[:, 1], s * rel[:, 0] + c * rel[:, 1], rel[:, 2])
        h = box["half_extents"]
        inside = np.minimum(np.minimum(h[0] - np.abs(local[0]), h[1] - np.abs(local[1])), h[2] - np.abs(local[2]))
        depth = np.maximum(depth, inside)
    return depth


def ego_pose(scene: dict, t: float):
    """(yaw, position) of the ego at time t: linear position between track
    keyframes and yaw along the shorter way round."""
    track = sorted(scene["ego_track"], key=lambda k: k["t"])
    times = [k["t"] for k in track]
    if not times[0] - 1e-9 <= t <= times[-1] + 1e-9:
        raise ValueError(f"time {t} outside the ego track")
    for a, b in zip(track, track[1:]):
        if a["t"] <= t <= b["t"]:
            if t == a["t"]:
                return a["yaw"], list(a["position"])
            f = (t - a["t"]) / (b["t"] - a["t"])
            dyaw = (b["yaw"] - a["yaw"] + math.pi) % (2.0 * math.pi) - math.pi
            pos = [pa + f * (pb - pa) for pa, pb in zip(a["position"], b["position"])]
            return a["yaw"] + f * dyaw, pos
    k = track[0] if t < times[0] else track[-1]
    return k["yaw"], list(k["position"])


def ego_path(scene: dict, t0: float, t1: float) -> list:
    """Ego positions at t0, at every keyframe strictly inside (t0, t1), and at t1."""
    inner = sorted(k["t"] for k in scene["ego_track"] if t0 < k["t"] < t1)
    return [ego_pose(scene, t)[1] for t in [t0, *inner, t1]]


def yaw_rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def tube_distance(path, point) -> float:
    """x-y distance from one point to a polyline of (x, y, ...) vertices."""
    px, py = point[0], point[1]
    if len(path) == 1:
        return math.hypot(px - path[0][0], py - path[0][1])
    best = math.inf
    for a, b in zip(path, path[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        den = dx * dx + dy * dy
        u = 0.0 if den == 0.0 else min(1.0, max(0.0, ((px - a[0]) * dx + (py - a[1]) * dy) / den))
        best = min(best, math.hypot(px - (a[0] + u * dx), py - (a[1] + u * dy)))
    return best


def average_precision(scores, labels) -> float:
    """Area under the step precision-recall curve, sum of (R_k - R_{k-1}) P_k
    over the distinct scores in descending order, tied scores taken together.
    Counts are integers, so only the final divisions round."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order].tolist()
    y = labels[order].tolist()
    n_pos = sum(1 for v in y if v)
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    ap, tp, fp, prev_recall = 0.0, 0, 0, 0.0
    n = len(s)
    for i in range(n):
        if y[i]:
            tp += 1
        else:
            fp += 1
        if i + 1 < n and s[i + 1] == s[i]:
            continue
        recall = tp / n_pos
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return ap


def central_difference(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)
