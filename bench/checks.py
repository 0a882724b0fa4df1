"""Output checks for one round of a workload.

Each check is one benchmark operation. The program's loaders and its field
forward pass supply what the round produced; every verdict comes from the
references in oracle.py or from a property the method must have. ``rng``
(seeded from the run seed) picks the rays, the eval time slice, the gradient
batch and the parameters that are checked.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle

# Query positions and times are stored as float32, so a query may sit this
# far (in metres) on the wrong side of a surface or tube boundary.
F32_TOL = 1e-4
RAYS_PER_SCAN = (16, 8)      # sampled hit rays, sampled missed rays
GRAD_BATCH = 384
GRAD_TENSORS = 6
TAG_RAY_NEG, TAG_RAY_POS, TAG_MISSING_RAY, TAG_FEATURE, TAG_EGO_POS, TAG_EGO_NEG = range(6)


def _scene_doc(work: Path, idx: int) -> dict:
    return json.loads((work / "data" / "scenes" / f"scene{idx:03d}.json").read_text())


def _samples(work: Path):
    metas = sorted((work / "queries").glob("sample*.meta.json"))
    return [(m, Path(str(m).replace(".meta.json", ".bin"))) for m in metas]


def check_ray_hits(work: Path, cfg: dict, rng) -> str | None:
    """A sample of rays of every stored scan agrees with a scalar ray cast."""
    from occ4d.scene import load_scan

    bad = []
    for path in sorted((work / "data" / "scans").glob("scene*.bin")):
        scene = _scene_doc(work, int(path.name[5:8]))
        scan = load_scan(path)
        hits, misses = np.nonzero(~scan.miss)[0], np.nonzero(scan.miss)[0]
        picked = []
        for pool, k in zip((hits, misses), RAYS_PER_SCAN):
            if len(pool):
                picked += rng.choice(pool, size=min(k, len(pool)), replace=False).tolist()
        for i in picked:
            r, kind = oracle.ray_hit(scene, scan.origins[i].tolist(), scan.dirs[i].tolist(),
                                     float(scan.times[i]), scan.max_range)
            got = float(scan.ranges[i])
            same_range = (math.isinf(r) and math.isinf(got)) or abs(r - got) <= 1e-9 * max(1.0, r)
            if not same_range or kind != int(scan.hit_kind[i]):
                bad.append(f"{path.name} ray {i}: stored ({got}, {int(scan.hit_kind[i])}) != ({r}, {kind})")
    return "; ".join(bad[:3]) or None


def _to_world(scene: dict, meta: dict, positions: np.ndarray) -> np.ndarray:
    """Undo the sample's augmentation rotation, then map the t0 ego frame to the world."""
    yaw, pos = oracle.ego_pose(scene, meta["t0"])
    unrot = positions @ oracle.yaw_rotation(-meta["theta"]).T
    return unrot @ oracle.yaw_rotation(yaw).T + np.asarray(pos)


def check_free_queries(work: Path, cfg: dict, rng) -> str | None:
    """Every ray-negative and missing-ray query is labelled free and lies in free space."""
    from occ4d.queries import load_queryset

    bad = []
    for meta_path, qs_path in _samples(work):
        meta = json.loads(meta_path.read_text())
        scene = _scene_doc(work, meta["scene"])
        qs = load_queryset(qs_path)
        sel = np.isin(qs.tags, (TAG_RAY_NEG, TAG_MISSING_RAY))
        if np.any(qs.labels[sel] != 0):
            bad.append(f"{qs_path.name}: free-space query labelled occupied")
        world = _to_world(scene, meta, qs.positions[sel])
        depth = oracle.solid_depth(scene, world, meta["t0"] + qs.times[sel])
        if len(depth) and depth.max() >= F32_TOL:
            bad.append(f"{qs_path.name}: {int(np.sum(depth >= F32_TOL))} free queries inside a solid")
    return "; ".join(bad) or None


def check_ego_labels(work: Path, cfg: dict, rng) -> str | None:
    """Every ego-path label matches the tube rule against the future ego path."""
    from occ4d.queries import load_queryset

    w = cfg["sampler"]["w_ego"]
    t_max = cfg["sampler"]["roi"]["t_max"]
    bad = []
    for meta_path, qs_path in _samples(work):
        meta = json.loads(meta_path.read_text())
        scene = _scene_doc(work, meta["scene"])
        qs = load_queryset(qs_path)
        sel = np.nonzero(np.isin(qs.tags, (TAG_EGO_POS, TAG_EGO_NEG)))[0]
        path = oracle.ego_path(scene, meta["t0"], meta["t0"] + t_max)
        world = _to_world(scene, meta, qs.positions[sel])
        wrong = 0
        for row, p in zip(sel, world):
            d = oracle.tube_distance(path, p)
            positive = qs.tags[row] == TAG_EGO_POS
            if qs.labels[row] != int(positive) or (d > w + F32_TOL if positive else d < w - F32_TOL):
                wrong += 1
        if wrong or not len(sel):
            bad.append(f"{qs_path.name}: {wrong} of {len(sel)} ego queries break the tube rule")
    return "; ".join(bad) or None


def grid_centers(e: dict) -> tuple:
    """Probe centers of the eval lattice, z-major, and its (nz, ny, nx) shape."""
    step = e["step"]
    axes = [e[k][0] + (np.arange(int(round((e[k][1] - e[k][0]) / step))) + 0.5) * step for k in "zyx"]
    zg, yg, xg = np.meshgrid(*axes, indexing="ij")
    return np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1), zg.shape


def check_ap_slice(work: Path, cfg: dict, rng) -> str | None:
    """The report's exact-oracle AP on one time slice equals a brute-force AP
    over the field's scores and oracle labels, to 1e-9."""
    from occ4d.evaluation import scene_grid_for
    from occ4d.field import MODE_FIT_PER_SCENE, query_head, sigmoid
    from occ4d.scene import load_scene_json
    from occ4d.training import load_checkpoint

    report = json.loads((work / "report.json").read_text())
    fp = load_checkpoint(work / "run" / "checkpoint.bin")[0]
    ti = int(rng.integers(len(cfg["eval"]["times"])))
    t = cfg["eval"]["times"][ti]
    centers, _ = grid_centers(cfg["eval"])
    n_scenes = 1 if fp.mode == MODE_FIT_PER_SCENE else cfg["suite"]["n_scenes"]
    scores, labels = [], []
    for idx in range(n_scenes):
        doc = _scene_doc(work, idx)
        yaw, pos = oracle.ego_pose(doc, 0.0)
        world = centers @ oracle.yaw_rotation(yaw).T + np.asarray(pos)
        labels.append(oracle.solid_depth(doc, world, t) >= 0.0)
        z_grid = scene_grid_for(fp, load_scene_json(work / "data" / "scenes" / f"scene{idx:03d}.json"))
        logits = np.empty(len(centers))
        chunk = 65536
        for lo in range(0, len(centers), chunk):
            block = centers[lo : lo + chunk]
            logits[lo : lo + len(block)] = query_head(fp, z_grid, "occ", block, np.full(len(block), t))[:, 0]
        scores.append(sigmoid(logits))
    ap = oracle.average_precision(np.concatenate(scores), np.concatenate(labels))
    row = report["per_time_breakdown"][ti]
    if row["time"] != t or abs(row["ap_occ_exact"] - ap) > 1e-9:
        return f"t={t}: report ap_occ_exact {row['ap_occ_exact']!r} != brute force {ap!r}"
    return None


def check_gradients(work: Path, cfg: dict, rng) -> str | None:
    """Analytic gradients of the final checkpoint match central differences
    on the largest-gradient entry of a few parameter tensors."""
    from occ4d.field import MODE_AMORTIZED, Batch, loss_and_grads
    from occ4d.queries import load_encoder_input, load_queryset
    from occ4d.training import load_checkpoint

    fp = load_checkpoint(work / "run" / "checkpoint.bin")[0]
    qs = load_queryset(work / "queries" / "sample000.bin")
    enc = load_encoder_input(work / "queries" / "sample000.enc.bin") if fp.mode == MODE_AMORTIZED else None
    batch = Batch.from_queryset(qs, np.sort(rng.choice(qs.n, size=min(GRAD_BATCH, qs.n), replace=False)))
    t = cfg["train"]
    kw = dict(
        enc_input=enc,
        weights=(t["lambda_occ"], t["lambda_dino"], t["lambda_ego"]),
        per_term_average=t["per_term_average"],
    )
    _, grads = loss_and_grads(fp, batch, **kw)
    names = sorted(n for n in grads if np.any(grads[n]))
    bad = []
    for name in rng.choice(names, size=min(GRAD_TENSORS, len(names)), replace=False):
        arr = fp.params[name]
        flat = int(np.argmax(np.abs(grads[name])))
        idx = np.unravel_index(flat, arr.shape)
        x0 = float(arr[idx])

        def loss_at(x):
            arr[idx] = x
            return loss_and_grads(fp, batch, **kw)[0].total

        an = float(grads[name][idx])
        # the loss is piecewise smooth (leaky ReLU, L1); a kink inside the
        # step biases the difference, so shrink the step before failing
        for h in (1e-6, 1e-7, 1e-8):
            fd = oracle.central_difference(loss_at, x0, h * max(1.0, abs(x0)))
            if abs(fd - an) <= 1e-4 * abs(an) + 1e-9:
                break
        else:
            bad.append(f"{name}{[int(i) for i in idx]}: analytic {an!r} vs central difference {fd!r}")
        arr[idx] = x0
    return "; ".join(bad) or None


def loss_rows(work: Path) -> list:
    with open(work / "run" / "loss.csv") as f:
        return [float(r["total"]) for r in csv.DictReader(f)]


def check_loss(work: Path, cfg: dict, rng) -> str | None:
    """Every step's loss is finite and the final tenth averages below the first tenth."""
    total = loss_rows(work)
    if len(total) != cfg["train"]["total_steps"] or not all(math.isfinite(v) for v in total):
        return f"{len(total)} loss rows, finite: {all(math.isfinite(v) for v in total)}"
    k = max(1, len(total) // 10)
    first, last = sum(total[:k]) / k, sum(total[-k:]) / k
    return None if last < first else f"loss did not fall: first tenth {first}, final tenth {last}"


def _metric_values(report: dict):
    for key in ("ap_occ", "ap_occ_exact", "r_at_p70", "r_at_p70_exact", "soft_iou", "ap_ego", "ego_base_rate"):
        yield key, report[key]
    for row in report["per_time_breakdown"]:
        for key in ("ap_occ_exact", "r_at_p70_exact", "r_at_p70"):
            if key in row:
                yield f"{key}@{row['time']}", row[key]


def check_metric_ranges(work: Path, cfg: dict, rng) -> str | None:
    """Every metric of the report lies in [0, 1]."""
    report = json.loads((work / "report.json").read_text())
    bad = [f"{k}={v}" for k, v in _metric_values(report) if not 0.0 <= v <= 1.0]
    return ", ".join(bad) or None


def check_probe_counts(work: Path, cfg: dict, rng) -> str | None:
    """Probe label counts add up to n_probes, which is scenes x lattice x times."""
    report = json.loads((work / "report.json").read_text())
    _, shape = grid_centers(cfg["eval"])
    per_slice = report["n_scenes"] * int(np.prod(shape))
    expect = per_slice * len(cfg["eval"]["times"])
    slices = [sum(r["probe_counts"].values()) for r in report["per_time_breakdown"]]
    total = sum(report["probe_counts"].values())
    if report["n_probes"] != expect or total != expect or any(v != per_slice for v in slices):
        return f"n_probes {report['n_probes']}, labels {total}, per time {slices}; expected {expect}"
    return None


CHECKS = (
    ("ray_hits", check_ray_hits),
    ("free_queries", check_free_queries),
    ("ego_labels", check_ego_labels),
    ("ap_slice", check_ap_slice),
    ("gradients", check_gradients),
    ("loss", check_loss),
    ("metric_ranges", check_metric_ranges),
    ("probe_counts", check_probe_counts),
)


def run_checks(work: Path, cfg: dict, rng) -> dict:
    """Run every check; returns name -> None (passed) or a failure message."""
    out = {}
    for name, fn in CHECKS:
        try:
            out[name] = fn(work, cfg, rng)
        except Exception as e:  # a crashing check is a failed operation, not a crashed run
            out[name] = f"{type(e).__name__}: {e}"
    return out
