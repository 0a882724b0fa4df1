"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live).

Tolerances and budgets are pinned here and nowhere else. The slow
training-based criteria (4 and 7) dominate the runtime; the whole module
finishes in roughly 15-20 minutes on a laptop CPU.
"""

import json
import math
import time

import numpy as np
import pytest

from occ4d.artifact import read_json
from occ4d.cli import main
from occ4d.evaluation import (
    EvalGrid, average_precision, eval_4d_occupancy, recall_at_precision, scene_grid_for, soft_iou,
)
from occ4d.field import FieldConfig, MODE_AMORTIZED, MODE_FIT_PER_SCENE, init_params, loss_and_grads
from occ4d.geom import AugmentConfig, rotate_about_z
from occ4d.pca import fit_pca, project
from occ4d.queries import (
    Roi4,
    SamplerConfig,
    assemble_sample,
    gen_ego_path_queries,
    gen_feature_queries,
    gen_missing_ray_negatives,
    gen_occupancy_negatives,
    gen_occupancy_positives,
    min_depth_visible,
)
from occ4d.scene import (
    HIT_GROUND,
    ScanPattern,
    camera_pose_at,
    cast_lidar_scan,
    ego_path_vertices,
    lidar_pose_at,
    occupancy_oracle,
    random_scene,
    render_feature_image,
)
from occ4d.training import TrainConfig, TrainSample, train

from oracles import (
    average_precision_bruteforce,
    loss,
    polyline_dist_xy,
    recall_at_precision_bruteforce,
    reconstruct,
    soft_iou_loop,
    splat_zbuffer,
)

from test_field import SMALL, forward_loss, random_enc_input, random_queryset


def report_line(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({description}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {detail}"


def build_scene_sample(scene, seed, cfg):
    pattern = scene.rig.lidar_pattern
    past = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in (-1.0, -0.5, 0.0)]
    future = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in [0.3 * (i + 1) for i in range(10)]]
    images = [
        render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 16)
        for t in (0.0, 1.5, 3.0)
    ]
    return past, future, images


def test_criterion_1_label_soundness():
    t_start = time.time()
    neg_total = neg_bad = 0
    pos_solid_total = pos_solid_occ = 0
    ego_total = ego_mismatch = 0
    for i in range(10):
        scene = random_scene(seed=1000 + i)
        cfg = SamplerConfig(seed=i)
        t = 0.6
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)

        negatives = gen_occupancy_negatives(scan, cfg, 8000)
        missing = gen_missing_ray_negatives(scan, cfg)
        for qs in (negatives, missing):
            occ = occupancy_oracle(scene, qs.positions, qs.times)
            neg_total += qs.n
            neg_bad += int(occ.sum())

        positives = gen_occupancy_positives(scan, cfg, 4000)
        solid = (scan.hit_kind == HIT_GROUND) | (scan.thickness >= cfg.delta)
        ends = scan.endpoints()[scan.hit_indices]
        hit_of = np.empty(positives.n, dtype=np.int64)
        for lo in range(0, positives.n, 512):
            block = positives.positions[lo : lo + 512]
            d2 = np.sum((block[:, None, :] - ends[None, :, :]) ** 2, axis=2)
            hit_of[lo : lo + 512] = np.argmin(d2, axis=1)
        sel = solid[scan.hit_indices][hit_of]
        occ = occupancy_oracle(scene, positives.positions[sel], positives.times[sel])
        pos_solid_total += int(sel.sum())
        pos_solid_occ += int(occ.sum())

        ego_cfg = SamplerConfig(seed=i, n_ego_pos=500, n_ego_neg=500)
        ego = gen_ego_path_queries(scene, 0.0, ego_cfg)
        verts = ego_path_vertices(scene, 0.0, ego_cfg.t_max)
        for p, label in zip(ego.positions, ego.labels):
            d = polyline_dist_xy(p, verts)
            ego_total += 1
            if (d <= ego_cfg.w_ego) != bool(label):
                ego_mismatch += 1

    elapsed = time.time() - t_start
    solid_frac = pos_solid_occ / pos_solid_total
    ok = (
        neg_total >= 100_000
        and neg_bad == 0
        and solid_frac >= 0.99
        and ego_total >= 10_000
        and ego_mismatch == 0
        and elapsed < 60.0
    )
    report_line(
        1,
        "label soundness",
        ok,
        f"negatives={neg_total} violations={neg_bad}, solid-backed occupancy={solid_frac:.4f}, "
        f"ego={ego_total} mismatches={ego_mismatch}, {elapsed:.1f}s",
    )


def test_criterion_2_metric_oracles():
    t_start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(1000):
        n = int(rng.integers(5, 60))
        if case % 3 == 0:
            scores = rng.integers(0, 7, size=n) / 6.0  # heavy ties
        else:
            scores = rng.uniform(0, 1, size=n)
        labels = (rng.uniform(size=n) < 0.35).astype(int)
        if labels.sum() == 0:
            labels[0] = 1
        if labels.sum() == n:
            labels[0] = 0
        target = float(rng.uniform(0.3, 0.95))
        r_got, _ = recall_at_precision(scores, labels, target)
        r_exp, _ = recall_at_precision_bruteforce(scores, labels, target)
        assert r_got == r_exp, f"case {case}: recall {r_got} != {r_exp}"
        ap_got = average_precision(scores, labels)
        ap_exp = average_precision_bruteforce(scores, labels)
        assert ap_got == ap_exp, f"case {case}: ap {ap_got} != {ap_exp}"
        probs = rng.uniform(0, 1, size=n)
        si_got = soft_iou(probs, labels)
        si_exp = soft_iou_loop(probs, labels)
        assert abs(si_got - si_exp) <= 1e-12, f"case {case}: soft_iou {si_got} != {si_exp}"
        checked += 1
    elapsed = time.time() - t_start
    ok = checked == 1000 and elapsed < 30.0
    report_line(2, "metric oracles", ok, f"{checked} randomized instances, {elapsed:.1f}s")


def test_criterion_3_gradient_suite():
    t_start = time.time()
    rng = np.random.default_rng(36)
    worst = 0.0
    groups = set()
    for instance in range(5):
        fp = init_params(SMALL, seed=410 + instance, mode=MODE_AMORTIZED)
        enc = random_enc_input(rng, SMALL)
        qs = random_queryset(rng, SMALL)
        from occ4d.field import Batch

        batch = Batch.from_queryset(qs)
        _, grads = loss_and_grads(fp, batch, enc_input=enc)
        h = 1e-5
        for name, arr in fp.params.items():
            groups.add(name)
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for j in rng.integers(0, flat.size, size=4):
                old = flat[j]
                flat[j] = old + h
                up = forward_loss(fp, batch, enc)
                flat[j] = old - h
                dn = forward_loss(fp, batch, enc)
                flat[j] = old
                fd = (up - dn) / (2 * h)
                rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-6)
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{j}]: fd={fd} analytic={gflat[j]} rel={rel}"
    elapsed = time.time() - t_start
    ok = worst < 1e-4 and elapsed < 60.0
    report_line(
        3,
        "gradient fidelity",
        ok,
        f"{len(groups)} parameter groups x 5 instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_training_efficacy():
    t_start = time.time()
    # a 3-box scene with verified motion
    scene = random_scene(seed=100, n_boxes=(3, 3))
    speeds = [float(np.linalg.norm(b.velocity)) for b in scene.boxes]
    assert len(scene.boxes) == 3 and max(speeds) > 0.5, "scene must be dynamic"
    pattern = scene.rig.lidar_pattern
    past = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in (-1.0, -0.5, 0.0)]
    future = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in [0.3 * (i + 1) for i in range(10)]]
    images = [
        render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 16)
        for t in (0.0, 1.5, 3.0)
    ]
    rng = np.random.default_rng(0)
    pca = fit_pca(np.concatenate([im.features.reshape(-1, 16) for im in images])[::5], 8)
    sampler = SamplerConfig(seed=1)
    enc, qs, _ = assemble_sample(past, future, images, scene, sampler, AugmentConfig(theta_min=0.0, theta_max=0.0), pca=pca)

    baseline = math.log(2.0)
    field_cfg = FieldConfig(d_feat=8)
    results = []
    for seed in (0, 1, 2):
        tcfg = TrainConfig(
            mode=MODE_FIT_PER_SCENE, total_steps=2000, warmup_steps=100, lr_max=2e-3, seed=seed
        )
        result = train([TrainSample(queries=qs)], field_cfg, tcfg)
        terms = loss(result.params, result.params.params["grid.z"], qs, weights=tcfg.weights)
        report = eval_4d_occupancy(
            result.params, [scene], EvalGrid(), 0.0, [scene_grid_for(result.params, scene)], raytrace=False
        )
        results.append((terms.occ, report["r_at_p70_exact"]))
    elapsed = time.time() - t_start
    bce_ok = all(occ < 0.25 * baseline for occ, _ in results)
    recall_ok = all(r >= 0.5 for _, r in results)
    ok = bce_ok and recall_ok and elapsed < 600.0
    detail = ", ".join(f"seed{i}: BCE={occ:.4f} R@P70={r:.3f}" for i, (occ, r) in enumerate(results))
    report_line(4, "training efficacy (bound 0.25*ln2=0.1733)", ok, f"{detail}, {elapsed:.0f}s")


def test_criterion_5_rotation_equivariance():
    t_start = time.time()
    pattern = ScanPattern(az_count=24, el_count=6)
    rng = np.random.default_rng(5)
    pca = fit_pca(rng.normal(size=(300, 16)), 6)
    worst = 0.0
    n_samples = 0
    for scene_idx in range(5):
        scene = random_scene(seed=700 + scene_idx)
        past = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in (-1.0, 0.0)]
        future = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in (0.8, 2.2)]
        images = [render_feature_image(scene, camera_pose_at(scene, 1.5), scene.rig.camera, 1.5, 16)]
        for k in range(20):
            theta = float(rng.uniform(-math.pi, math.pi))
            cfg = SamplerConfig(seed=scene_idx * 100 + k, n_occ_neg=80, n_occ_pos=80, n_feat=24,
                                n_ego_pos=10, n_ego_neg=10, missing_ray_samples_per_ray=1,
                                missing_ray_min_run=12)
            aug0 = AugmentConfig(theta_min=0.0, theta_max=0.0)
            aug1 = AugmentConfig(theta_min=theta, theta_max=theta)
            _, qs0, m0 = assemble_sample(past, future, images, scene, cfg, aug0, pca=pca)
            _, qs1, m1 = assemble_sample(past, future, images, scene, cfg, aug1, pca=pca)
            assert m1.theta == theta
            err = np.abs(rotate_about_z(qs0.positions, theta) - qs1.positions).max()
            worst = max(worst, float(err))
            assert np.array_equal(qs0.tags, qs1.tags)
            assert np.array_equal(qs0.labels, qs1.labels)
            assert np.array_equal(qs0.feats, qs1.feats)
            n_samples += 1
    elapsed = time.time() - t_start
    ok = worst < 1e-9 and n_samples == 100 and elapsed < 10.0
    report_line(5, "rotation equivariance", ok, f"{n_samples} samples, worst position error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_6_min_depth_filtering():
    t_start = time.time()
    rng = np.random.default_rng(6)
    pca = fit_pca(rng.normal(size=(300, 12)), 6)
    checked_scenes = 0
    total_visible = 0
    for i in range(10):
        scene = random_scene(seed=800 + i, n_boxes=(6, 10))
        t = 0.5
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)
        img = render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 12)
        cfg = SamplerConfig(seed=i)
        pts = scan.endpoints()[scan.hit_indices]
        mine, _, _ = min_depth_visible(img, pts, cfg.depth_tol)

        # independent scalar z-buffer render of the same candidate points
        r, tr = img.pose.rotation, img.pose.translation
        intr = img.intrinsics
        pu, pv, pz = [], [], []
        for p in pts:
            dx, dy, dz = p[0] - tr[0], p[1] - tr[1], p[2] - tr[2]
            x = r[0, 0] * dx + r[1, 0] * dy + r[2, 0] * dz
            y = r[0, 1] * dx + r[1, 1] * dy + r[2, 1] * dz
            z = r[0, 2] * dx + r[1, 2] * dy + r[2, 2] * dz
            if z <= 1e-9:
                pu.append(-1)
                pv.append(-1)
                pz.append(math.inf)
                continue
            pu.append(int(math.floor(intr.fx * x / z + intr.cx)))
            pv.append(int(math.floor(intr.fy * y / z + intr.cy)))
            pz.append(z)
        buf = splat_zbuffer(pu, pv, pz, intr.width, intr.height)
        oracle = np.array(
            [
                0 <= a < intr.width and 0 <= b < intr.height and zz <= buf[b][a] + cfg.depth_tol
                for a, b, zz in zip(pu, pv, pz)
            ]
        )
        assert oracle.sum() < len(pts), "scene must actually occlude points"
        np.testing.assert_array_equal(mine, oracle)

        # the emitted query set is exactly the visible set, roi-filtered
        qs = gen_feature_queries(scan, [img], pca, cfg)
        vis_pts = pts[mine]
        in_roi = cfg.roi.contains_xyz(vis_pts)
        assert qs.n == int(in_roi.sum())
        assert np.abs(qs.positions - vis_pts[in_roi]).max() <= cfg.delta + 1e-12
        checked_scenes += 1
        total_visible += int(oracle.sum())
    elapsed = time.time() - t_start
    ok = checked_scenes == 10 and elapsed < 30.0
    report_line(6, "min-depth visibility vs z-buffer oracle", ok, f"10 scenes, {total_visible} visible points, {elapsed:.1f}s")


SCALING_GROUND_RANGE = (-0.6, 0.6)
SCALING_ROI = Roi4(z=(-1.0, 3.4))
SCALING_FIELD = FieldConfig(z_range=(-1.0, 3.4), d_feat=8)
SCALING_GRID = EvalGrid(x=(-16.0, 16.0), y=(-16.0, 16.0), z=(-0.6, 3.0), step=0.4)


@pytest.mark.slow
def test_criterion_7_scaling_analogue():
    t_start = time.time()
    rng = np.random.default_rng(7)
    pca = fit_pca(rng.normal(size=(2000, 16)) * np.linspace(2, 0.1, 16), 8)

    def build(scene, seed):
        pattern = scene.rig.lidar_pattern
        past = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in (-1.0, -0.5, 0.0)]
        future = [
            cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in [0.3 * (i + 1) for i in range(10)]
        ]
        images = [render_feature_image(scene, camera_pose_at(scene, 1.5), scene.rig.camera, 1.5, 16)]
        cfg = SamplerConfig(seed=seed, n_feat=300, roi=SCALING_ROI)
        enc, qs, _ = assemble_sample(past, future, images, scene, cfg, AugmentConfig(), pca=pca)
        return TrainSample(queries=qs, enc_input=enc)

    samples = [
        build(random_scene(seed=2000 + i, n_boxes=(4, 8), ground_range=SCALING_GROUND_RANGE), 2100 + i)
        for i in range(64)
    ]
    held = [random_scene(seed=9000 + i, n_boxes=(4, 8), ground_range=SCALING_GROUND_RANGE) for i in range(6)]

    counts = (1, 4, 16, 64)
    passes = 0
    curves = []
    for seed in (0, 1, 2):
        scores = []
        for count in counts:
            tcfg = TrainConfig(
                mode=MODE_AMORTIZED, total_steps=800, warmup_steps=50, lr_max=2e-3, seed=seed
            )
            result = train(samples[:count], SCALING_FIELD, tcfg)
            z_grids = [scene_grid_for(result.params, s) for s in held]
            rep = eval_4d_occupancy(result.params, held, SCALING_GRID, 0.0, z_grids, raytrace=False)
            scores.append(rep["r_at_p70_exact"])
        non_decreasing = all(b >= a for a, b in zip(scores, scores[1:]))
        gap_ok = scores[-1] >= scores[0] + 0.05
        if non_decreasing and gap_ok:
            passes += 1
        curves.append(scores)
    elapsed = time.time() - t_start
    ok = passes >= 2 and elapsed < 2700.0
    detail = "; ".join(
        f"seed{i}: " + " -> ".join(f"{s:.3f}" for s in curve) for i, curve in enumerate(curves)
    )
    report_line(7, "scaling analogue (majority of 3 seeds)", ok, f"{detail}; {passes}/3 pass, {elapsed:.0f}s")


def test_criterion_8_pipeline_determinism(tmp_path):
    t_start = time.time()
    overrides = {
        "seed": 42,
        "suite": {"n_scenes": 2, "n_future": 6, "future_dt": 0.5, "d_raw": 12},
        "pca": {"d": 6, "fit_subset": 4000},
        "sampler": {"n_occ_pos": 800, "n_occ_neg": 800, "n_feat": 150, "n_ego_pos": 40, "n_ego_neg": 40},
        "field": {"channels": 8, "head_hidden": 16},
        "train": {"total_steps": 200, "warmup_steps": 20},
        "eval": {"step": 0.8, "times": [0.6, 1.8], "z": [-0.4, 2.0]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(overrides))
    bundles = []
    for run in ("a", "b"):
        base = tmp_path / run
        args = ["--config", str(cfg_path), "--workers", "1"]
        assert main(["simulate", *args, "--out", str(base / "data")]) == 0
        assert main(["genqueries", *args, "--dataset", str(base / "data"), "--out", str(base / "queries")]) == 0
        assert main(["train", *args, "--queries", str(base / "queries"), "--out", str(base / "run")]) == 0
        assert (
            main(
                [
                    "eval",
                    *args,
                    "--checkpoint",
                    str(base / "run" / "checkpoint.bin"),
                    "--dataset",
                    str(base / "data"),
                    "--out",
                    str(base / "report.json"),
                ]
            )
            == 0
        )
        bundles.append(
            json.dumps(
                {
                    "sim": read_json(base / "data" / "manifest.json")["files"],
                    "queries": read_json(base / "queries" / "manifest.json")["files"],
                    "run": read_json(base / "run" / "manifest.json")["files"],
                    "report": (base / "report.json").read_text(),
                },
                sort_keys=True,
            )
        )
    elapsed = time.time() - t_start
    ok = bundles[0] == bundles[1] and elapsed < 300.0
    report_line(8, "end-to-end determinism (seed 42)", ok, f"digest bundles identical, {elapsed:.0f}s")


def test_criterion_9_pca_fidelity():
    t_start = time.time()
    rng = np.random.default_rng(9)
    base = rng.normal(size=(64, 64)) * np.linspace(2.0, 0.05, 64)[None, :]
    pts = rng.normal(size=(3000, 64)) @ base
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (len(pts) - 1)
    eig_desc = np.sort(np.linalg.eigvalsh(cov))[::-1]
    worst = 0.0
    for d in (8, 16, 32):
        model = fit_pca(pts, d)
        recon = reconstruct(model, project(model, pts))
        residual = np.sum((pts - recon) ** 2) / (len(pts) - 1)
        tail = eig_desc[d:].sum()
        err = abs(residual - tail) / max(tail, 1.0)
        worst = max(worst, err)
        assert err <= 1e-8, f"d={d}: residual {residual} vs oracle tail {tail}"
    elapsed = time.time() - t_start
    ok = worst <= 1e-8 and elapsed < 10.0
    report_line(9, "pca residual vs eigendecomposition oracle (d in 8/16/32)", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
