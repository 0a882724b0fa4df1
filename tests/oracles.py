"""Independent brute-force reference implementations used by the tests.

Everything in this file is deliberately written as plain loops over scalars
(or transparent one-liners) so it shares no code path with the package
implementations it checks. The exceptions sit in the last section: helpers
that only tests need, over package internals.
"""

from __future__ import annotations

import math

import numpy as np


def homogeneous(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def ray_box_hit_scalar(origin, direction, center, half, yaw):
    """Slab test of one ray against one yaw-rotated box. Returns entry/exit
    parameters (t_in, t_out) or None."""
    c, s = math.cos(-yaw), math.sin(-yaw)
    ox, oy, oz = (np.asarray(origin, dtype=float) - np.asarray(center, dtype=float))
    ox, oy = c * ox - s * oy, s * ox + c * oy
    dx, dy, dz = direction
    dx, dy = c * dx - s * dy, s * dx + c * dy
    t_in, t_out = -math.inf, math.inf
    for o, d, h in ((ox, dx, half[0]), (oy, dy, half[1]), (oz, dz, half[2])):
        if abs(d) < 1e-300:
            if o < -h or o > h:
                return None
            continue
        t1, t2 = (-h - o) / d, (h - o) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_in = max(t_in, t1)
        t_out = min(t_out, t2)
        if t_in > t_out:
            return None
    return t_in, t_out


def nearest_hit_scalar(scene, origin, direction, t, max_range):
    """Closest intersection of a ray with the scene at time t (boxes +
    ground), or None. Pure per-box loop."""
    best = math.inf
    for box in scene.boxes:
        center = np.asarray(box.center) + np.asarray(box.velocity) * t
        hit = ray_box_hit_scalar(origin, direction, center, box.half_extents, box.yaw)
        if hit is not None:
            t_in, t_out = hit
            if t_out >= 1e-9 and t_in <= max_range:
                r = t_in if t_in > 1e-9 else t_out
                if 1e-9 < r < best:
                    best = r
    dz = direction[2]
    if dz < -1e-300:
        rg = (scene.ground_z - origin[2]) / dz
        if 1e-9 < rg < best:
            best = rg
    if best <= max_range:
        return best
    return None


def segment_voxel_overlap(p0, p1, vmin, vmax, eps=1e-12) -> bool:
    """True when the segment p0->p1 spends positive length inside the closed
    voxel [vmin, vmax]. Scalar slab test clipped to the segment."""
    t_lo, t_hi = 0.0, 1.0
    for k in range(3):
        d = p1[k] - p0[k]
        if abs(d) < 1e-300:
            if p0[k] < vmin[k] or p0[k] > vmax[k]:
                return False
            continue
        t1 = (vmin[k] - p0[k]) / d
        t2 = (vmax[k] - p0[k]) / d
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
        if t_lo >= t_hi:
            return False
    return (t_hi - t_lo) > eps


def pr_curve_bruteforce(scores, labels):
    """All (precision, recall) operating points from an O(n^2) sweep over
    every distinct threshold, in descending-threshold order."""
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    n_pos = sum(labels)
    points = []
    for thr in sorted(set(scores), reverse=True):
        tp = fp = 0
        for s, y in zip(scores, labels):
            if s >= thr:
                if y == 1:
                    tp += 1
                else:
                    fp += 1
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / n_pos if n_pos > 0 else 0.0
        points.append((thr, precision, recall))
    return points


def recall_at_precision_bruteforce(scores, labels, target):
    best_recall, best_thr = 0.0, math.inf
    for thr, precision, recall in pr_curve_bruteforce(scores, labels):
        if precision >= target and (
            recall > best_recall or (recall == best_recall and thr < best_thr and best_recall > 0.0)
        ):
            best_recall, best_thr = recall, thr
    return best_recall, best_thr


def average_precision_bruteforce(scores, labels):
    ap = 0.0
    prev_recall = 0.0
    for _, precision, recall in pr_curve_bruteforce(scores, labels):
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def pr_sweep_stable(scores, labels):
    """(thresholds desc, precision, recall) at every distinct score, ties
    grouped, from a stable descending sort and float cumulative counts of
    true and false positives: the sweep as the package computed it before it
    sorted once with an unstable sort and counted in integers."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    tp = np.cumsum(y)
    fp = np.cumsum(1.0 - y)
    idx = np.concatenate([np.nonzero(np.diff(s) != 0.0)[0], [len(s) - 1]])
    tp, fp = tp[idx], fp[idx]
    n_pos = float(labels.sum())
    precision = tp / np.maximum(tp + fp, 1.0)
    recall = tp / n_pos if n_pos > 0 else np.zeros_like(tp)
    return s[idx], precision, recall


def recall_and_ap_stable(scores, labels, target):
    """(max recall at precision >= target, loosest such threshold, AP) from
    ``pr_sweep_stable``, with AP summed in descending-threshold order."""
    thr, precision, recall = pr_sweep_stable(scores, labels)
    ap = float(np.cumsum((recall - np.concatenate([[0.0], recall[:-1]])) * precision)[-1])
    ok = precision >= target
    if not ok.any():
        return 0.0, math.inf, ap
    best = recall[ok].max()
    return float(best), float(thr[ok & (recall == best)].min()), ap


def soft_iou_loop(probs, labels):
    inter = 0.0
    sp = 0.0
    sy = 0.0
    for p, y in zip(probs, labels):
        inter += float(p) * float(y)
        sp += float(p)
        sy += float(y)
    denom = sp + sy - inter
    if denom == 0.0:
        return 1.0 if (sp == 0.0 and sy == 0.0) else 0.0
    return inter / denom


def point_segment_dist_xy(q, a, b) -> float:
    """Exact x-y distance from point q to segment a->b, plain scalars."""
    qx, qy = float(q[0]), float(q[1])
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(qx - ax, qy - ay)
    t = ((qx - ax) * dx + (qy - ay) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(qx - (ax + t * dx), qy - (ay + t * dy))


def polyline_dist_xy(q, vertices) -> float:
    """Exact x-y distance from q to a polyline given as an (N,3) array."""
    best = math.inf
    if len(vertices) == 1:
        return point_segment_dist_xy(q, vertices[0], vertices[0])
    for i in range(len(vertices) - 1):
        best = min(best, point_segment_dist_xy(q, vertices[i], vertices[i + 1]))
    return best


def splat_zbuffer(pixel_u, pixel_v, depths, width, height):
    """Point-splat z-buffer: per-pixel minimum depth over all points, built
    with a plain loop. Pixels with no point stay at +inf."""
    buf = [[math.inf] * width for _ in range(height)]
    for u, v, z in zip(pixel_u, pixel_v, depths):
        if 0 <= u < width and 0 <= v < height and z < buf[v][u]:
            buf[v][u] = z
    return buf


def central_difference(f, x0, h=1e-5):
    """Scalar central difference of f at x0."""
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def ks_statistic_uniform(samples) -> float:
    """Kolmogorov-Smirnov distance between samples and U(0,1)."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    cdf_hi = np.arange(1, n + 1) / n
    cdf_lo = np.arange(0, n) / n
    return float(max(np.abs(cdf_hi - xs).max(), np.abs(xs - cdf_lo).max()))


# ---------------------------------------------------------------------------
# scalar query generators: one numpy Philox generator per ray and a redraw
# loop per ray, as the package generated queries before its array replay.
# They share ray selection (quota, visibility, missing-ray runs) with the
# package and check only the per-ray draws.


def missing_ray_regions_scalar(miss, rows, cols, min_run):
    """Ray indices in runs of >= min_run consecutive misses within a row,
    found by walking each row."""
    out = []
    for row in range(rows):
        col = 0
        while col < cols:
            start = col
            while col < cols and miss[row * cols + col]:
                col += 1
            if col - start >= min_run:
                out.extend(range(row * cols + start, row * cols + col))
            col = max(col, start + 1)
    return out


def draw_filtered_scalar(gen, needed, make_positions, roi, max_redraws):
    """Up to max_redraws rounds of needed - total draws each, keeping the
    roi-contained draws that make_positions marks ok."""
    kept = []
    total = 0
    for _ in range(max_redraws):
        if total >= needed:
            break
        u = gen.uniform(size=needed - total)
        pos, ok = make_positions(u)
        ok = ok & roi.contains_xyz(pos)
        kept.extend(pos[ok])
        total += int(ok.sum())
    return kept


def _scalar_set(q, tag, positions, times, labels, feats=None, d=0):
    n = len(positions)
    return q.QuerySet(
        np.full(n, tag, np.uint8), np.array(times, dtype=float), np.array(positions, dtype=float).reshape(-1, 3),
        np.full(n, labels, np.uint8), np.zeros((0, d)) if feats is None else np.array(feats).reshape(-1, d), d,
    )


def occupancy_negatives_scalar(scan, cfg, count, scan_stream=0):
    from occ4d import queries as q
    from occ4d.geom import per_ray_rng

    hits = scan.hit_indices
    tau = cfg.jitter_tau
    quota = q._per_ray_quota(count, len(hits))
    positions, times = [], []
    for j, ray in enumerate(hits):
        gen = per_ray_rng(cfg.seed, int(ray), q._stream(q._PURPOSE_NEG, scan_stream))
        s = scan.origins[ray]
        p = scan.origins[ray] + scan.ranges[ray] * scan.dirs[ray]

        def make(u, s=s, p=p):
            dtau = u ** tau
            return s[None, :] + dtau[:, None] * (p - s)[None, :], (dtau != 0.0) & (dtau != 1.0)

        kept = draw_filtered_scalar(gen, int(quota[j]), make, cfg.roi, q._MAX_REDRAWS)
        positions.extend(kept)
        times.extend([scan.times[ray]] * len(kept))
    return _scalar_set(q, q.TAG_RAY_NEG, positions, times, 0)


def occupancy_positives_scalar(scan, cfg, count, scan_stream=0):
    from occ4d import queries as q
    from occ4d.geom import per_ray_rng

    hits = scan.hit_indices
    ends = scan.endpoints()[hits]
    eligible = cfg.roi.contains_xyz(ends) & cfg.roi.contains_xyz(ends + cfg.delta * scan.dirs[hits])
    hits = hits[eligible]
    positions, times = [], []
    quota = q._per_ray_quota(count, len(hits)) if len(hits) else []
    for j, ray in enumerate(hits):
        gen = per_ray_rng(cfg.seed, int(ray), q._stream(q._PURPOSE_POS, scan_stream))
        p = scan.origins[ray] + scan.ranges[ray] * scan.dirs[ray]
        u_dir = scan.dirs[ray]

        def make(u, p=p, u_dir=u_dir):
            return p[None, :] + (cfg.delta * u)[:, None] * u_dir[None, :], u != 0.0

        kept = draw_filtered_scalar(gen, int(quota[j]), make, cfg.roi, q._MAX_REDRAWS)
        positions.extend(kept)
        times.extend([scan.times[ray]] * len(kept))
    return _scalar_set(q, q.TAG_RAY_POS, positions, times, 1)


def missing_ray_negatives_scalar(scan, cfg, scan_stream=0):
    from occ4d import queries as q
    from occ4d.geom import per_ray_rng

    positions, times = [], []
    for ray in q.missing_ray_regions(scan, cfg.missing_ray_min_run):
        gen = per_ray_rng(cfg.seed, int(ray), q._stream(q._PURPOSE_MISS, scan_stream))
        s, d = scan.origins[ray], scan.dirs[ray]

        def make(u, s=s, d=d):
            r = (0.05 + 0.9 * u) * scan.max_range
            return s[None, :] + r[:, None] * d[None, :], np.ones(len(u), dtype=bool)

        kept = draw_filtered_scalar(gen, cfg.missing_ray_samples_per_ray, make, cfg.roi, q._MAX_REDRAWS)
        positions.extend(kept)
        times.extend([scan.times[ray]] * len(kept))
    return _scalar_set(q, q.TAG_MISSING_RAY, positions, times, 0)


def feature_queries_scalar(scan, images, pca, cfg, scan_stream=0):
    """Feature queries of one scan, one scalar draw loop per visible hit."""
    from occ4d import queries as q
    from occ4d.geom import per_ray_rng
    from occ4d.pca import project

    img = q.closest_image(images, float(scan.times[0]))
    hits = scan.hit_indices
    endpoints = scan.endpoints()[hits]
    visible, u, v = q.min_depth_visible(img, endpoints, cfg.depth_tol)
    positions, times, targets = [], [], []
    for j in np.nonzero(visible)[0]:
        ray = int(hits[j])
        gen = per_ray_rng(cfg.seed, ray, q._stream(q._PURPOSE_FEAT, scan_stream))
        p, u_dir = endpoints[j], scan.dirs[ray]

        def make(w, p=p, u_dir=u_dir):
            return p[None, :] + (cfg.delta * w)[:, None] * u_dir[None, :], w != 0.0

        kept = draw_filtered_scalar(gen, 1, make, cfg.roi, q._MAX_REDRAWS)
        if kept:
            positions.append(kept[0])
            times.append(scan.times[ray])
            targets.append(project(pca, img.features[v[j], u[j]]))
    return _scalar_set(q, q.TAG_FEATURE, positions, times, 0, targets, pca.d)


def ego_path_queries_scalar(scene, t0, cfg, frame=None):
    """Ego-path queries drawn one query at a time, one ``per_ray_rng``
    generator each, with per-attempt Python redraw loops: the loop body is
    ``gen_ego_path_queries`` as it was before it became array code."""
    from occ4d.geom import per_ray_rng
    from occ4d.queries import (
        _EGO_NEG_ATTEMPTS,
        _MAX_REDRAWS,
        _PURPOSE_EGO_NEG,
        _PURPOSE_EGO_POS,
        TAG_EGO_NEG,
        TAG_EGO_POS,
        QuerySet,
        _labeled_set,
        _stream,
        ego_tube_distance,
    )
    from occ4d.scene import ego_path_vertices

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


# ---------------------------------------------------------------------------
# Scalar labelling: one traverse_voxels call per ray, one floor per hit point
# and every probe tested against every box, as eval labelled before its march
# and box tests became array code.


def boxes_contain_scalar(scene, points, times):
    """Inside any advected box (closed sets), every point against every box."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ts = np.broadcast_to(np.asarray(times, dtype=np.float64), (len(pts),))
    occ = np.zeros(len(pts), dtype=bool)
    for box in scene.boxes:
        rel = pts - (box.center[None, :] + ts[:, None] * box.velocity[None, :])
        c, s = math.cos(-box.yaw), math.sin(-box.yaw)
        lx = c * rel[:, 0] - s * rel[:, 1]
        ly = s * rel[:, 0] + c * rel[:, 1]
        occ |= (
            (np.abs(lx) <= box.half_extents[0])
            & (np.abs(ly) <= box.half_extents[1])
            & (np.abs(rel[:, 2]) <= box.half_extents[2])
        )
    return occ


def label_by_raytrace_scalar(eval_scans, grid, scene=None, to_world=None, t0=0.0):
    """Reference for ``label_by_raytrace``, with the same arguments."""
    from occ4d import evaluation as ev

    nz, ny, nx = grid.shape
    lo = (grid.x[0], grid.y[0], grid.z[0])
    labels = np.full((len(grid.times), nz, ny, nx), ev.LABEL_UNKNOWN, dtype=np.int8)
    for ti, t in enumerate(grid.times):
        dts = [abs(float(scan.times[0]) - t) for scan in eval_scans]
        if not dts or min(dts) > ev.SCAN_MATCH_WINDOW:
            continue
        scan = eval_scans[dts.index(min(dts))]
        free = np.zeros((nz, ny, nx), dtype=bool)
        occupied = np.zeros((nz, ny, nx), dtype=bool)
        for i in np.nonzero(~scan.miss)[0]:
            end = scan.origins[i] + scan.ranges[i] * scan.dirs[i]
            for v in ev.traverse_voxels(scan.origins[i], end, grid):
                free[v] = True
            ix, iy, iz = (math.floor((end[k] - lo[k]) / grid.step) for k in range(3))
            if 0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz:
                occupied[iz, iy, ix] = True
        if scene is not None:
            world = grid.centers() if to_world is None else to_world.apply(grid.centers())
            occupied |= boxes_contain_scalar(scene, world, t0 + t).reshape(nz, ny, nx)
        labels[ti][free] = ev.LABEL_FREE
        labels[ti][occupied] = ev.LABEL_OCCUPIED
    return labels


# ---------------------------------------------------------------------------
# train step: the out-of-place expressions the package's in-place Adam and
# single-bincount grid scatter must match bit for bit


def adam_step_out_of_place(params, grads, m, v, step_index, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam (Kingma & Ba, 2015) on dicts of arrays; every
    parameter and moment is rebound to a newly computed array."""
    bc1 = 1.0 - beta1 ** step_index
    bc2 = 1.0 - beta2 ** step_index
    for k in params:
        g = grads[k]
        m[k] = beta1 * m[k] + (1.0 - beta1) * g
        v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
        params[k] = params[k] - lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + eps)


def interp_backward_add_at(corners, weights, dfeat, n_rows):
    """Bilinear scatter of ``dfeat`` into n_rows zero rows: one unbuffered
    np.add.at per corner, (j0, i0), (j0, i0+1), (j0+1, i0), (j0+1, i0+1)."""
    drows = np.zeros((n_rows, dfeat.shape[1]))
    for at, wk in zip(corners, weights):
        np.add.at(drows, at, wk[:, None] * dfeat)
    return drows


# ---------------------------------------------------------------------------
# dense scoring: one head on one whole block of rows, the reference the
# tiled lattice scoring must match bit for bit


def head_block(params, name, x, slope):
    """A perceptron head on every row of ``x`` at once, its first layer split
    at the grid's C channels as the field sums it: x[:, :C] @ W1[:C] plus
    (x[:, C:] @ W1[C:] + b1); then the leaky layers written as np.where and
    the linear output layer, a per-row einsum reduction for a one-output
    head."""
    c = (params["grid.z"] if "grid.z" in params else params["enc.conv2.b"]).shape[-1]
    w1 = params[f"head.{name}.w1"]
    pre = x[:, :c] @ w1[:c] + (x[:, c:] @ w1[c:] + params[f"head.{name}.b1"])
    return _head_layers(params, name, np.where(pre > 0, pre, slope * pre), slope)


def head_block_unsplit(params, name, x, slope):
    """``head_block`` with the first layer as one product, x @ W1 + b1."""
    pre = x @ params[f"head.{name}.w1"] + params[f"head.{name}.b1"]
    return _head_layers(params, name, np.where(pre > 0, pre, slope * pre), slope)


def _head_layers(params, name, h1, slope):
    """The head after its first hidden layer's output ``h1``."""
    pre = h1 @ params[f"head.{name}.w2"] + params[f"head.{name}.b2"]
    h = np.where(pre > 0, pre, slope * pre)
    w3 = params[f"head.{name}.w3"]
    out = np.einsum("ij,j->i", h, w3[:, 0])[:, None] if w3.shape[1] == 1 else h @ w3
    return out + params[f"head.{name}.b3"]


def leaky_grad_where(x, slope):
    """The leaky unit's derivative by select: 1 where x > 0, else ``slope``,
    in x's dtype."""
    return np.where(x > 0, x.dtype.type(1.0), x.dtype.type(slope))


def sigmoid_masked(x):
    """The logistic function by boolean masks: 1 / (1 + e^-x) where x >= 0,
    e^x / (1 + e^x) elsewhere, so no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# encoder conv in scatter form: pad the input inside the conv, copy each
# tap's patch, and scatter each tap's dx product into a padded gradient


def _pad(x):
    """x inside a one-cell ring of zeros, (H,W,C) -> (H+2,W+2,C)."""
    xp = np.zeros((x.shape[0] + 2, x.shape[1] + 2, x.shape[2]), x.dtype)
    xp[1:-1, 1:-1] = x
    return xp


def conv2d_scatter(x, w, b):
    """3x3 same-padded convolution, (H,W,Cin) x (3,3,Cin,Cout) -> (H,W,Cout)."""
    h, wd, cin = x.shape
    xp = _pad(x)
    out = np.broadcast_to(b, (h, wd, w.shape[3])).copy()
    for dy in range(3):
        for dx in range(3):
            out += xp[dy : dy + h, dx : dx + wd] @ w[dy, dx]
    return out


def conv2d_backward_scatter(x, w, dout):
    """(dw, db, dx) of conv2d_scatter(x, w, b) given dout; each dx product
    takes its tap transposed into a contiguous copy, as BLAS's NN path."""
    h, wd, cin = x.shape
    cout = w.shape[3]
    xp = _pad(x)
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    flat_dout = dout.reshape(-1, cout)
    for dy in range(3):
        for dx in range(3):
            patch = xp[dy : dy + h, dx : dx + wd].reshape(-1, cin)
            dw[dy, dx] = patch.T @ flat_dout
            dxp[dy : dy + h, dx : dx + wd] += dout @ np.ascontiguousarray(w[dy, dx].T)
    db = flat_dout.sum(axis=0)
    return dw, db, dxp[1:-1, 1:-1]


def encoder_scatter(params, hist, dz, slope):
    """The encoder's output Z for pillar histogram ``hist`` and the
    gradients of its parameters given dZ, through the scatter-form conv.

    The embed is folded into conv1: conv1 convolves [hist, 1], padded with
    zeros, with taps E @ W1[tap], E = [embed.w; embed.b]. The taps' gradient
    G gives conv1.w[tap] = E^T G[tap], and E's gradient adds G[tap] W1[tap]^T
    tap by tap into zeros."""
    e = np.vstack([params["enc.embed.w"], params["enc.embed.b"]])
    w1 = params["enc.conv1.w"]
    x0 = np.concatenate([hist, np.ones(hist.shape[:2] + (1,))], axis=2)
    taps = np.empty((3, 3) + e.shape)
    for dy, dx in np.ndindex(3, 3):
        taps[dy, dx] = e @ w1[dy, dx]
    pre1 = conv2d_scatter(x0, taps, params["enc.conv1.b"])
    h1 = np.where(pre1 > 0, pre1, slope * pre1)
    z = conv2d_scatter(h1, params["enc.conv2.w"], params["enc.conv2.b"])
    grads = {}
    grads["enc.conv2.w"], grads["enc.conv2.b"], dh1 = conv2d_backward_scatter(h1, params["enc.conv2.w"], dz)
    dpre1 = dh1 * np.where(pre1 > 0, 1.0, slope)
    g, grads["enc.conv1.b"], _ = conv2d_backward_scatter(x0, taps, dpre1)
    grads["enc.conv1.w"] = np.empty_like(w1)
    de = np.zeros_like(e)
    for dy, dx in np.ndindex(3, 3):
        grads["enc.conv1.w"][dy, dx] = e.T @ g[dy, dx]
        de += g[dy, dx] @ w1[dy, dx].T
    grads["enc.embed.w"], grads["enc.embed.b"] = de[:-1], de[-1]
    return z, grads


def encoder_unfolded_scatter(params, hist, dz, slope):
    """encoder_scatter with the embed as a layer of its own: conv1 convolves
    the embedded histogram, padded with zeros, and the embed's gradients come
    from conv1's input gradient."""
    x0 = hist @ params["enc.embed.w"] + params["enc.embed.b"]
    pre1 = conv2d_scatter(x0, params["enc.conv1.w"], params["enc.conv1.b"])
    h1 = np.where(pre1 > 0, pre1, slope * pre1)
    z = conv2d_scatter(h1, params["enc.conv2.w"], params["enc.conv2.b"])
    grads = {}
    grads["enc.conv2.w"], grads["enc.conv2.b"], dh1 = conv2d_backward_scatter(h1, params["enc.conv2.w"], dz)
    dpre1 = dh1 * np.where(pre1 > 0, 1.0, slope)
    grads["enc.conv1.w"], grads["enc.conv1.b"], dx0 = conv2d_backward_scatter(x0, params["enc.conv1.w"], dpre1)
    hist_flat = hist.reshape(-1, hist.shape[2])
    dx0_flat = dx0.reshape(-1, dx0.shape[2])
    grads["enc.embed.w"] = hist_flat.T @ dx0_flat
    grads["enc.embed.b"] = dx0_flat.sum(axis=0)
    return z, grads


def reconstruct(model, coords) -> np.ndarray:
    """The raw vectors that PCA ``model`` projects to ``coords``."""
    return np.asarray(coords, dtype=np.float64) @ model.components + model.mean


# ---------------------------------------------------------------------------
# test-only helpers over package internals


def zero_params(cfg, mode):
    """FieldParams of ``mode`` with every tensor zero: every logit is 0, a
    constant 0.5-probability predictor (the untrained baseline)."""
    from occ4d.field import init_params

    fp = init_params(cfg, seed=0, mode=mode)
    for v in fp.params.values():
        v[:] = 0.0
    return fp


def loss(fp, z_grid, batch, weights=(1.0, 0.5, 0.1), per_term_average=True):
    """The LossTerms of ``loss_and_grads`` from the forward pass alone, on the
    BEV grid ``z_grid``; ``batch`` is a Batch or a QuerySet."""
    from occ4d.field import Batch, _heads_loss, head_input
    from occ4d.queries import QuerySet

    if isinstance(batch, QuerySet):
        batch = Batch.from_queryset(batch)
    x = head_input(z_grid, batch.positions, batch.times, fp.config)
    return _heads_loss(fp, x, batch, weights, per_term_average)[0]
