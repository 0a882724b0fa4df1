import json
import math
import zlib

import numpy as np
import pytest

from occ4d.geom import AugmentConfig, Pose, inverse, per_ray_rng, philox_uniforms, rotate_about_z, yaw_matrix
from occ4d import queries
from occ4d.field import init_params
from occ4d.pca import fit_pca, load_pca, project, save_pca
from occ4d.queries import (
    EmptyScanError,
    EncoderInput,
    QuerySet,
    Roi4,
    SamplerConfig,
    TAG_EGO_NEG,
    TAG_EGO_POS,
    TAG_FEATURE,
    TAG_MISSING_RAY,
    TAG_RAY_NEG,
    TAG_RAY_POS,
    assemble_sample,
    closest_image,
    ego_tube_distance,
    gen_ego_path_queries,
    gen_feature_queries,
    gen_missing_ray_negatives,
    gen_occupancy_negatives,
    gen_occupancy_positives,
    load_encoder_input,
    load_queryset,
    min_depth_visible,
    missing_ray_regions,
    project_to_pixels,
    save_encoder_input,
    save_queryset,
)
from occ4d.scene import (
    CAMERA_IN_EGO,
    CameraIntrinsics,
    FeatureImage,
    HIT_GROUND,
    LidarScan,
    ScanPattern,
    camera_pose_at,
    cast_lidar_scan,
    ego_pose_at,
    ego_path_vertices,
    lidar_pose_at,
    load_feature_image,
    load_scan,
    occupancy_oracle,
    random_scene,
    render_feature_image,
    save_feature_image,
    save_scan,
)
from occ4d.training import save_checkpoint

from test_field import SMALL
from oracles import (
    ego_path_queries_scalar,
    feature_queries_scalar,
    ks_statistic_uniform,
    missing_ray_negatives_scalar,
    missing_ray_regions_scalar,
    occupancy_negatives_scalar,
    occupancy_positives_scalar,
    polyline_dist_xy,
    splat_zbuffer,
)


def synthetic_scan(origins, endpoints, rows=1, cols=None, max_range=40.0, t=0.0, miss_dirs=()):
    """Hand-built scan: hit rays from (origin, endpoint) pairs plus optional
    miss rays given as (origin, unit_dir)."""
    origins = [np.asarray(o, dtype=float) for o in origins]
    endpoints = [np.asarray(p, dtype=float) for p in endpoints]
    n_hit = len(origins)
    o = list(origins) + [np.asarray(o, dtype=float) for o, _ in miss_dirs]
    dirs, ranges, miss = [], [], []
    for s, p in zip(origins, endpoints):
        v = p - s
        r = np.linalg.norm(v)
        dirs.append(v / r)
        ranges.append(r)
        miss.append(False)
    for _, d in miss_dirs:
        dirs.append(np.asarray(d, dtype=float))
        ranges.append(np.inf)
        miss.append(True)
    n = len(o)
    cols = cols or n
    return LidarScan(
        origins=np.array(o),
        dirs=np.array(dirs),
        ranges=np.array(ranges),
        miss=np.array(miss),
        times=np.full(n, t),
        rows=rows,
        cols=cols,
        max_range=max_range,
        hit_kind=np.array([0] * n_hit + [-2] * (n - n_hit), dtype=np.int32),
        thickness=np.full(n, np.inf),
    )


def scene_sample_inputs(seed, t0=0.0, n_future=6, future_dt=0.5, n_images=4):
    scene = random_scene(seed=seed)
    pattern = scene.rig.lidar_pattern
    past = [
        cast_lidar_scan(scene, lidar_pose_at(scene, t0 + dt), pattern, t0 + dt)
        for dt in (-1.0, -0.5, 0.0)
    ]
    future_times = [t0 + future_dt * (i + 1) for i in range(n_future)]
    future = [cast_lidar_scan(scene, lidar_pose_at(scene, t), pattern, t) for t in future_times]
    img_times = np.linspace(t0, t0 + 3.0, n_images)
    images = [
        render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 16)
        for t in img_times
    ]
    return scene, past, future, images


NARROW_ROI = Roi4(x=(-6.0, 9.0), y=(-8.0, 5.0), z=(0.3, 2.0))


@pytest.fixture(scope="module")
def pca16():
    rng = np.random.default_rng(0)
    return fit_pca(rng.normal(size=(400, 16)) * np.linspace(3, 0.2, 16), 8)


class TestSamplerConfig:
    @pytest.mark.parametrize("tol", [-0.1, float("nan")])
    def test_negative_depth_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="depth_tol"):
            SamplerConfig(depth_tol=tol)
        SamplerConfig(depth_tol=0.0)

    def test_negative_missing_ray_samples_rejected(self):
        with pytest.raises(ValueError, match="missing_ray_samples_per_ray must be >= 0"):
            SamplerConfig(missing_ray_samples_per_ray=-1)
        SamplerConfig(missing_ray_samples_per_ray=0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_nonpositive_jitter_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="jitter_tau must be positive"):
            SamplerConfig(jitter_tau=tau)


class TestOccupancyNegatives:
    def test_on_segment_with_tau_one(self):
        scan = synthetic_scan([(0, 0, 1)], [(10, 0, 1)])
        cfg = SamplerConfig(seed=7)
        qs = gen_occupancy_negatives(scan, cfg, 2000)
        assert qs.n == 2000
        assert (qs.tags == TAG_RAY_NEG).all()
        assert (qs.labels == 0).all()
        # strictly interior points of the segment
        fracs = qs.positions[:, 0] / 10.0
        assert np.all((fracs > 0.0) & (fracs < 1.0))
        np.testing.assert_allclose(qs.positions[:, 1:], np.array([[0.0, 1.0]]) * np.ones((2000, 1)), atol=1e-12)
        # tau = 1 reduces to plain uniform along the ray
        assert ks_statistic_uniform(fracs) < 0.04

    def test_jitter_tau_reshapes_draw(self):
        scan = synthetic_scan([(0, 0, 1)], [(10, 0, 1)])
        cfg = SamplerConfig(seed=7, jitter_tau=2.0)
        qs = gen_occupancy_negatives(scan, cfg, 2000)
        fracs = qs.positions[:, 0] / 10.0
        # E[d^2] = 1/3 for d ~ U(0,1)
        assert abs(fracs.mean() - 1.0 / 3.0) < 0.03

    def test_oracle_sweep_no_violations(self):
        for seed in (1, 2, 3):
            scene = random_scene(seed=seed)
            scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.0), scene.rig.lidar_pattern, 0.0)
            cfg = SamplerConfig(seed=seed)
            qs = gen_occupancy_negatives(scan, cfg, 4000)
            occ = occupancy_oracle(scene, qs.positions, qs.times)
            assert occ.sum() == 0

    def test_round_robin_quota(self):
        scan = synthetic_scan([(0, 0, 1), (0, 0, 1), (0, 0, 1)], [(10, 0, 1), (0, 10, 1), (5, 5, 1)])
        qs = gen_occupancy_negatives(scan, SamplerConfig(seed=0), 7)
        assert qs.n == 7

    def test_empty_scan_error(self):
        scan = synthetic_scan([], [], miss_dirs=[((0, 0, 1), (1, 0, 0))])
        with pytest.raises(EmptyScanError):
            gen_occupancy_negatives(scan, SamplerConfig(), 5)

    def test_roi_rejection(self):
        # ray pokes far outside the roi; samples must stay inside
        scan = synthetic_scan([(0, 0, 1)], [(30, 0, 1)])
        cfg = SamplerConfig(seed=1)
        qs = gen_occupancy_negatives(scan, cfg, 300)
        assert qs.n == 300
        assert cfg.roi.contains_xyz(qs.positions).all()


class TestOccupancyPositives:
    def test_buffer_geometry(self):
        scan = synthetic_scan([(0, 0, 1)], [(10, 0, 1)])
        cfg = SamplerConfig(seed=3)
        qs = gen_occupancy_positives(scan, cfg, 400)
        assert (qs.labels == 1).all()
        overshoot = qs.positions[:, 0] - 10.0
        assert np.all((overshoot > 0.0) & (overshoot <= cfg.delta))
        assert abs(overshoot.mean() - cfg.delta / 2) < 0.01

    def test_delta_default_matches_published_value(self):
        assert SamplerConfig().delta == 0.1

    def test_solid_backed_hits_mostly_occupied(self):
        total, occupied = 0, 0
        for seed in (4, 5, 6):
            scene = random_scene(seed=seed)
            scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.0), scene.rig.lidar_pattern, 0.0)
            cfg = SamplerConfig(seed=seed)
            qs = gen_occupancy_positives(scan, cfg, 4000)
            # classify by the emitting hit: re-derive per-position via nearest endpoint
            solid = (scan.hit_kind == HIT_GROUND) | (scan.thickness >= cfg.delta)
            ends = scan.endpoints()[scan.hit_indices]
            hit_of = np.empty(qs.n, dtype=np.int64)
            for lo in range(0, qs.n, 512):
                block = qs.positions[lo : lo + 512]
                d2 = np.sum((block[:, None, :] - ends[None, :, :]) ** 2, axis=2)
                hit_of[lo : lo + 512] = np.argmin(d2, axis=1)
            sel = solid[scan.hit_indices][hit_of]
            occ = occupancy_oracle(scene, qs.positions[sel], qs.times[sel])
            total += int(sel.sum())
            occupied += int(occ.sum())
        assert total > 5000
        assert occupied / total >= 0.99


class TestMissingRays:
    def test_run_detection(self):
        # one row of 40 columns: 19 hits then a 21-column run of misses
        hits = [(math.cos(a), math.sin(a), 0.5) for a in np.linspace(0, 1.8, 19)]
        miss = [((0, 0, 1), (math.cos(a), math.sin(a), 0.3)) for a in np.linspace(2.0, 3.0, 21)]
        scan = synthetic_scan([(0, 0, 1)] * 19, hits, rows=1, cols=40, miss_dirs=miss)
        regions = missing_ray_regions(scan, 5)
        np.testing.assert_array_equal(regions, np.arange(19, 40))
        # a higher threshold than the run length yields nothing
        assert len(missing_ray_regions(scan, 22)) == 0

    def test_regions_match_row_walk_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rows, cols = (int(k) for k in rng.integers(1, 12, size=2))
            miss = rng.uniform(size=rows * cols) < rng.uniform()
            scan = synthetic_scan([], [], rows=rows, cols=cols, miss_dirs=[((0, 0, 1), (1, 0, 0))] * (rows * cols))
            scan.miss[:] = miss
            for min_run in (1, 3):
                got = missing_ray_regions(scan, min_run)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, missing_ray_regions_scalar(miss, rows, cols, min_run))

    def test_isolated_miss_ignored(self):
        scan = synthetic_scan(
            [(0, 0, 1)] * 4,
            [(5, 0, 1), (0, 5, 1), (-5, 0, 1), (0, -5, 1)],
            rows=1,
            cols=5,
            miss_dirs=[((0, 0, 1), (1, 0, 0.5))],
        )
        qs = gen_missing_ray_negatives(scan, SamplerConfig(missing_ray_min_run=5))
        assert qs.n == 0

    def test_oracle_sweep(self):
        scene = random_scene(seed=9)
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.0), scene.rig.lidar_pattern, 0.0)
        cfg = SamplerConfig(seed=9, missing_ray_samples_per_ray=3)
        qs = gen_missing_ray_negatives(scan, cfg)
        assert qs.n > 1000
        assert (qs.tags == TAG_MISSING_RAY).all()
        occ = occupancy_oracle(scene, qs.positions, qs.times)
        assert occ.sum() == 0


def front_camera_image(d_raw=8, width=8, height=8, fx=8.0, fy=8.0):
    intr = CameraIntrinsics(width=width, height=height, fx=fx, fy=fy, cx=width / 2, cy=height / 2)
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(height, width, d_raw))
    pose = Pose(CAMERA_IN_EGO, np.zeros(3))
    return FeatureImage(feats, np.full((height, width), np.inf), pose, intr, 0.0)


class TestFeatureQueries:
    def test_occlusion_two_points_one_pixel(self):
        img = front_camera_image()
        pca = fit_pca(np.random.default_rng(1).normal(size=(100, 8)), 4)
        scan = synthetic_scan([(0, 0, 2), (0, 0, 2)], [(5, 0.01, 0.01), (12, 0.02, 0.02)])
        cfg = SamplerConfig(seed=0, depth_tol=0.2)
        qs = gen_feature_queries(scan, [img], pca, cfg)
        assert qs.n == 1
        assert abs(qs.positions[0][0] - 5.0) < cfg.delta + 0.1

    def test_point_behind_camera_dropped(self):
        img = front_camera_image()
        pca = fit_pca(np.random.default_rng(1).normal(size=(100, 8)), 4)
        scan = synthetic_scan([(0, 0, 2)], [(-5, 0.0, 0.5)])
        qs = gen_feature_queries(scan, [img], pca, SamplerConfig(seed=0))
        assert qs.n == 0

    def test_closest_image_tie_breaks_earlier(self):
        a = front_camera_image()
        b = front_camera_image()
        a.time, b.time = -1.0, 1.0
        assert closest_image([b, a], 0.0) is a

    def test_visible_set_matches_splat_zbuffer_oracle(self):
        for seed in (10, 11, 12):
            scene = random_scene(seed=seed)
            t = 0.5
            scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)
            img = render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 8)
            pts = scan.endpoints()[scan.hit_indices]
            tol = 0.2
            mine, u, v = min_depth_visible(img, pts, tol)

            # scalar-loop oracle with the same evaluation order
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
                    pz.append(np.inf)
                    continue
                uu = intr.fx * x / z + intr.cx
                vv = intr.fy * y / z + intr.cy
                pu.append(int(math.floor(uu)))
                pv.append(int(math.floor(vv)))
                pz.append(z)
            buf = splat_zbuffer(pu, pv, pz, intr.width, intr.height)
            oracle = np.array(
                [
                    0 <= a < intr.width and 0 <= b < intr.height and zz <= buf[b][a] + tol
                    for a, b, zz in zip(pu, pv, pz)
                ]
            )
            assert oracle.sum() > 100
            assert oracle.sum() < len(pts)  # occlusion actually happened
            np.testing.assert_array_equal(mine, oracle)

    def test_subsample_cap(self, pca16):
        # assemble_sample caps the feature queries of all scans at n_feat
        scene, past, future, images = scene_sample_inputs(13)
        cfg = SamplerConfig(seed=1, n_occ_neg=60, n_occ_pos=60, n_feat=37, n_ego_pos=5, n_ego_neg=5)
        _, qs, _ = assemble_sample(past, future, images, scene, cfg, AugmentConfig(rotation_enabled=False), pca=pca16)
        assert qs.counts()["feature"] == 37
        assert qs.feats.shape == (37, 8)

    @staticmethod
    def _drawn_over_every_visible_hit(scan, img, pca, cfg, scan_stream):
        """(gen_feature_queries' QuerySet with every visible hit as a key, the number of visible hits)"""
        hits = scan.hit_indices
        ends = scan.endpoints()[hits]
        visible, u, v = min_depth_visible(img, ends, cfg.depth_tol)
        vis = np.flatnonzero(visible)

        def make(idx, w):
            return ends[vis[idx]] + (cfg.delta * w)[:, None] * scan.dirs[hits[vis[idx]]], w != 0.0

        stream = queries._stream(queries._PURPOSE_FEAT, scan_stream)
        idx, pos = queries._draw_filtered(cfg.seed, stream, hits[vis], np.ones(len(vis), np.int64), make, cfg.roi)
        feats = np.array([project(pca, img.features[v[j], u[j]]) for j in vis[idx]]).reshape(-1, pca.d)
        n = len(idx)
        qs = QuerySet(np.full(n, TAG_FEATURE, np.uint8), scan.times[hits[vis[idx]]], pos, np.zeros(n, np.uint8), feats, pca.d)
        return qs, len(vis)

    def _assert_same_bytes(self, scan, img, pca, cfg, tmp_path, monkeypatch):
        """Returns (queries, keys drawn, visible hits)."""
        draw, drawn = queries._draw_filtered, []

        def counting_draw(seed, stream, keys, *args):
            drawn.append(len(keys))
            return draw(seed, stream, keys, *args)

        monkeypatch.setattr(queries, "_draw_filtered", counting_draw)
        got = gen_feature_queries(scan, [img], pca, cfg, scan_stream=2)
        monkeypatch.setattr(queries, "_draw_filtered", draw)
        want, visible = self._drawn_over_every_visible_hit(scan, img, pca, cfg, 2)
        assert_same_queries(got, want)
        save_queryset(got, tmp_path / "got.bin")
        save_queryset(want, tmp_path / "want.bin")
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()
        return got, drawn[0], visible

    @pytest.mark.parametrize(
        "seed, t, roi", [(1, 1.5, Roi4()), (4, 0.0, Roi4(x=(-6.0, 9.0), y=(-8.0, 5.0)))], ids=["default_roi", "cut_roi"]
    )
    def test_hits_beyond_one_roi_face_draw_nothing(self, seed, t, roi, pca16, tmp_path, monkeypatch):
        # about two fifths of the visible hits lie with their whole buffer
        # beyond one roi face: they get no key, and the queries keep every byte
        scene = random_scene(seed=seed)
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)
        img = render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 16)
        got, drawn, visible = self._assert_same_bytes(scan, img, pca16, SamplerConfig(seed=3, roi=roi), tmp_path, monkeypatch)
        assert got.n > 40 and drawn + 30 < visible

    def test_buffer_crossing_a_roi_face_keeps_its_key(self, pca16, tmp_path, monkeypatch):
        # the sensor lies outside the roi (x >= 5), so hits at x = 4.95 and
        # 4.97 are outside it but their buffers reach into it; hits at x = 4
        # lie wholly beyond the face and draw nothing
        xs = (4.0, 4.95, 4.97, 6.0)
        ends = [(x, x * (-0.3 + 0.2 * (i % 4)), x * (0.05 + 0.12 * (i // 4))) for i, x in enumerate(xs * 4)]
        scan = synthetic_scan([(0.0, 0.0, 0.0)] * len(ends), ends)
        cfg = SamplerConfig(seed=2, roi=Roi4(x=(5.0, 20.0)))
        got, drawn, visible = self._assert_same_bytes(scan, front_camera_image(d_raw=16), pca16, cfg, tmp_path, monkeypatch)
        assert visible == 16 and drawn == 12 and got.n == 12

    def test_empty_image_list_errors(self, pca16):
        scan = synthetic_scan([(0, 0, 2)], [(5, 0, 1)])
        with pytest.raises(ValueError):
            gen_feature_queries(scan, [], pca16, SamplerConfig())


def assert_same_queries(got, want):
    for name in ("tags", "times", "positions", "labels", "feats"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestArrayReplayMatchesScalarOracle:
    """The array generators emit exactly what one numpy Philox generator
    and one redraw loop per ray emit."""

    @pytest.mark.parametrize("roi", [Roi4(), NARROW_ROI], ids=["default_roi", "narrow_roi"])
    def test_scene_scans(self, roi, pca16):
        for seed, t in ((1, 0.0), (2, 0.9)):
            scene = random_scene(seed=seed)
            scan = cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t)
            img = render_feature_image(scene, camera_pose_at(scene, t), scene.rig.camera, t, 16)
            cfg = SamplerConfig(seed=seed, roi=roi)
            assert_same_queries(gen_occupancy_negatives(scan, cfg, 1500, 2), occupancy_negatives_scalar(scan, cfg, 1500, 2))
            assert_same_queries(gen_occupancy_positives(scan, cfg, 1500, 1), occupancy_positives_scalar(scan, cfg, 1500, 1))
            assert_same_queries(gen_missing_ray_negatives(scan, cfg, 4), missing_ray_negatives_scalar(scan, cfg, 4))
            assert_same_queries(
                gen_feature_queries(scan, [img], pca16, cfg, 3), feature_queries_scalar(scan, [img], pca16, cfg, 3)
            )

    def test_small_draw_groups(self, pca16, monkeypatch):
        # keys split into many groups give the same draws as one group
        monkeypatch.setattr(queries, "_GROUP_DRAWS", 200)
        scene = random_scene(seed=4)
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.3), scene.rig.lidar_pattern, 0.3)
        img = render_feature_image(scene, camera_pose_at(scene, 0.3), scene.rig.camera, 0.3, 16)
        cfg = SamplerConfig(seed=4, roi=NARROW_ROI)
        assert_same_queries(gen_occupancy_negatives(scan, cfg, 3000), occupancy_negatives_scalar(scan, cfg, 3000))
        assert_same_queries(gen_missing_ray_negatives(scan, cfg), missing_ray_negatives_scalar(scan, cfg))
        cfg = SamplerConfig(seed=4)
        qs = gen_feature_queries(scan, [img], pca16, cfg)
        assert_same_queries(qs, feature_queries_scalar(scan, [img], pca16, cfg))
        assert qs.n > 50
        # wide keys: an ego-path query's worst case is 320 or 400 draws, so
        # every query is a group of its own
        cfg = SamplerConfig(seed=4, n_ego_neg=300, w_ego=2.5)
        for t0 in (0.0, -0.5):
            for frame in (None, inverse(ego_pose_at(scene, t0)), Pose(yaw_matrix(0.7), [3.0, -2.0, 0.5])):
                qs = gen_ego_path_queries(scene, t0, cfg, frame=frame)
                assert_same_bits(qs, ego_path_queries_scalar(scene, t0, cfg, frame))
                assert qs.counts()["ego_neg"] == 300

    @pytest.mark.parametrize("tau", [0.7, 2.5])
    def test_jitter_tau(self, tau):
        scene = random_scene(seed=3)
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.3), scene.rig.lidar_pattern, 0.3)
        cfg = SamplerConfig(seed=5, roi=NARROW_ROI, jitter_tau=tau)
        qs = gen_occupancy_negatives(scan, cfg, 2000, 1)
        assert_same_queries(qs, occupancy_negatives_scalar(scan, cfg, 2000, 1))

    def test_rays_outside_roi_use_every_round(self):
        # the second ray lies wholly outside the roi (x > 14) and draws all
        # 64 rounds; 8 draws over 3 rays exercise the round-robin quota
        scan = synthetic_scan([(0, 0, 1), (20, 0, 1), (0, 0, 1)], [(10, 0, 1), (30, 0, 1), (0, 30, 1)])
        cfg = SamplerConfig(seed=11)
        qs = gen_occupancy_negatives(scan, cfg, 8)
        assert_same_queries(qs, occupancy_negatives_scalar(scan, cfg, 8))
        assert 0 < qs.n < 8

    def test_quota_zero_rays(self):
        scan = synthetic_scan([(0, 0, 1)] * 3, [(10, 0, 1), (0, 10, 1), (5, 5, 1)])
        for count in (0, 2):
            cfg = SamplerConfig(seed=4)
            assert_same_queries(gen_occupancy_negatives(scan, cfg, count), occupancy_negatives_scalar(scan, cfg, count))
            assert_same_queries(gen_occupancy_positives(scan, cfg, count), occupancy_positives_scalar(scan, cfg, count))

    def test_single_hit_with_large_quota(self):
        # more than half the ray lies outside the roi, so redraw rounds follow round 0
        scan = synthetic_scan([(0, 0, 1)], [(30, 0, 1)])
        for tau in (1.0, 0.5):
            cfg = SamplerConfig(seed=1, jitter_tau=tau)
            qs = gen_occupancy_negatives(scan, cfg, 300)
            assert_same_queries(qs, occupancy_negatives_scalar(scan, cfg, 300))
        assert_same_queries(gen_occupancy_positives(scan, cfg, 300), occupancy_positives_scalar(scan, cfg, 300))

    def test_missing_rays_leaving_the_roi(self):
        # 6 steep rays climb above z = 3 before 0.05 of max range and never
        # emit; 6 level rays leave the x-y box part of the way out
        steep = [((0, 0, 1.5), (0.6 * math.cos(a), 0.6 * math.sin(a), 0.8)) for a in np.linspace(0, 1, 6)]
        level = [((0, 0, 1.0), (math.cos(a), math.sin(a), 0.0)) for a in np.linspace(2, 3, 6)]
        scan = synthetic_scan([(0, 0, 1)] * 4, [(5, 0, 1), (0, 5, 1), (-5, 0, 1), (0, -5, 1)],
                              rows=1, cols=16, miss_dirs=steep + level)
        cfg = SamplerConfig(seed=2, missing_ray_samples_per_ray=3)
        qs = gen_missing_ray_negatives(scan, cfg)
        assert_same_queries(qs, missing_ray_negatives_scalar(scan, cfg))
        assert 0 < qs.n < 12 * 3

    def test_empty_missing_ray_set(self):
        scan = synthetic_scan([(0, 0, 1)] * 4, [(5, 0, 1), (0, 5, 1), (-5, 0, 1), (0, -5, 1)])
        qs = gen_missing_ray_negatives(scan, SamplerConfig())
        assert qs.n == 0
        assert_same_queries(qs, missing_ray_negatives_scalar(scan, SamplerConfig()))

    def test_feature_buffers_outside_roi(self):
        img = front_camera_image()
        pca = fit_pca(np.random.default_rng(1).normal(size=(100, 8)), 4)
        # three visible hits; the roi ends at x = 7, so the hit at x = 9 never emits
        scan = synthetic_scan([(0, 0, 2)] * 3, [(5, 0.4, 0.5), (9, -0.5, 0.6), (6, 0.0, 0.1)])
        cfg = SamplerConfig(seed=0, roi=Roi4(x=(-14.0, 7.0)))
        qs = gen_feature_queries(scan, [img], pca, cfg)
        assert_same_queries(qs, feature_queries_scalar(scan, [img], pca, cfg))
        assert qs.n == 2

    def test_no_visible_feature_points(self):
        img = front_camera_image()
        pca = fit_pca(np.random.default_rng(1).normal(size=(100, 8)), 4)
        scan = synthetic_scan([(0, 0, 2)], [(-5, 0.0, 0.5)])
        qs = gen_feature_queries(scan, [img], pca, SamplerConfig(seed=0))
        assert_same_queries(qs, feature_queries_scalar(scan, [img], pca, SamplerConfig(seed=0)))
        assert qs.n == 0


class TestCappedTailMatchesScalarOracle(TestArrayReplayMatchesScalarOracle):
    """The same cases with one or two redraw rounds in the first tail call,
    so keys of every generator reach the third call, and with the whole
    tail in one call."""

    @pytest.fixture(autouse=True, params=[1, 2, 99], ids=["tail1", "tail2", "tail99"])
    def tail_rounds(self, request, monkeypatch):
        monkeypatch.setattr(queries, "_TAIL_ROUNDS", request.param)


def test_missing_ray_tail_draws_a_fraction_of_the_worst_case(monkeypatch):
    # a key still short after round 0 may need its deficit in each of the
    # 63 later rounds; most keys are done in a few, and only those draw more
    scene = random_scene(seed=1)
    scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.0), scene.rig.lidar_pattern, 0.0)
    cfg = SamplerConfig(seed=1)
    draws = []

    def counted(seed, stream, keys, offsets):
        draws.append(len(offsets))
        return philox_uniforms(seed, stream, keys, offsets)

    monkeypatch.setattr(queries, "philox_uniforms", counted)
    qs = gen_missing_ray_negatives(scan, cfg)
    assert_same_queries(qs, missing_ray_negatives_scalar(scan, cfg))
    quota = len(missing_ray_regions(scan, cfg.missing_ray_min_run)) * cfg.missing_ray_samples_per_ray
    monkeypatch.setattr(queries, "_MAX_REDRAWS", 1)  # the scalar oracle's redraw limit: round 0 only
    deficit = quota - missing_ray_negatives_scalar(scan, cfg).n
    assert deficit > 0 and draws[0] == quota and len(draws) <= 3
    assert sum(draws[1:]) < 0.25 * 63 * deficit


class TestEgoPathQueries:
    def test_center_of_tube_positive(self):
        scene = random_scene(seed=14)
        cfg = SamplerConfig(seed=0, n_ego_pos=200, n_ego_neg=200)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        verts = ego_path_vertices(scene, 0.0, cfg.t_max)
        pos = qs.positions[qs.tags == TAG_EGO_POS]
        d = ego_tube_distance(verts, pos)
        assert np.all(d <= cfg.w_ego)

    def test_outside_tube_negative(self):
        scene = random_scene(seed=14)
        cfg = SamplerConfig(seed=0, n_ego_pos=50, n_ego_neg=400)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        verts = ego_path_vertices(scene, 0.0, cfg.t_max)
        neg = qs.positions[qs.tags == TAG_EGO_NEG]
        d = ego_tube_distance(verts, neg)
        assert np.all(d > cfg.w_ego)

    def test_labels_match_bruteforce_polyline(self):
        scene = random_scene(seed=15)
        cfg = SamplerConfig(seed=3, n_ego_pos=500, n_ego_neg=500)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        verts = ego_path_vertices(scene, 0.0, cfg.t_max)
        for p, label in zip(qs.positions, qs.labels):
            d = polyline_dist_xy(p, verts)
            assert (d <= cfg.w_ego) == bool(label)

    def test_dense_polyline_distance_bound(self):
        scene = random_scene(seed=16)
        cfg = SamplerConfig(seed=4, n_ego_pos=2000, n_ego_neg=0)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        verts = ego_path_vertices(scene, 0.0, cfg.t_max)
        # densify: sample every millimeter along each segment
        dense = []
        for a, b in zip(verts[:-1], verts[1:]):
            steps = max(2, int(np.linalg.norm(b - a) / 0.001))
            dense.append(a + np.linspace(0, 1, steps)[:, None] * (b - a))
        dense = np.concatenate(dense)
        pos = qs.positions[qs.tags == TAG_EGO_POS]
        worst = 0.0
        for lo in range(0, len(pos), 128):
            block = pos[lo : lo + 128]
            d2 = np.min(
                (block[:, None, 0] - dense[None, :, 0]) ** 2 + (block[:, None, 1] - dense[None, :, 1]) ** 2,
                axis=1,
            )
            worst = max(worst, float(np.sqrt(d2).max()))
        assert worst <= cfg.w_ego + 1e-9

    def test_times_uniform_and_carried(self):
        scene = random_scene(seed=17)
        cfg = SamplerConfig(seed=5, n_ego_pos=1000, n_ego_neg=1000)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        assert np.all((qs.times >= 0) & (qs.times <= cfg.t_max))
        assert ks_statistic_uniform(qs.times / cfg.t_max) < 0.05

    def test_short_trajectory_errors(self):
        scene = random_scene(seed=14)
        with pytest.raises(ValueError):
            gen_ego_path_queries(scene, 2.0, SamplerConfig())  # needs cover to 5.0


def assert_same_bits(got, want):
    assert_same_queries(got, want)
    for name in ("times", "positions"):  # array_equal calls -0.0 and 0.0 equal
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def ego_error(fn, *args):
    with pytest.raises(RuntimeError) as info:
        fn(*args)
    return str(info.value)


class TestEgoMatchesScalarOracle:
    """gen_ego_path_queries emits, bit for bit, what one per_ray_rng
    generator and one redraw loop per query emit."""

    @pytest.mark.parametrize("seed", [0, 7, 21])
    @pytest.mark.parametrize("t0", [0.0, -0.5])
    def test_same_bits(self, seed, t0):
        scene = random_scene(seed=seed)
        frames = (None, inverse(ego_pose_at(scene, t0)), Pose(yaw_matrix(0.7), [3.0, -2.0, 0.5]))
        budgets = ({}, {"n_ego_pos": 37, "n_ego_neg": 300, "w_ego": 2.5}, {"roi": NARROW_ROI})
        for frame in frames:
            for budget in budgets:
                cfg = SamplerConfig(seed=seed, **budget)
                qs = gen_ego_path_queries(scene, t0, cfg, frame=frame)
                assert_same_bits(qs, ego_path_queries_scalar(scene, t0, cfg, frame))
                assert qs.counts()["ego_neg"] == cfg.n_ego_neg

    def test_stationary_ego(self):
        # zero path length: every positive is a disk offset from the one point
        scene = random_scene(seed=3, ego_speed=(0.0, 0.0))
        cfg = SamplerConfig(seed=3)
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        assert_same_bits(qs, ego_path_queries_scalar(scene, 0.0, cfg))
        verts = ego_path_vertices(scene, 0.0, cfg.t_max)
        assert np.all(verts[:, :2] == verts[0, :2])
        pos = qs.positions[qs.tags == TAG_EGO_POS]
        assert len(pos) == cfg.n_ego_pos
        assert np.all(np.hypot(*(pos[:, :2] - verts[0, :2]).T) <= cfg.w_ego)

    def test_roi_off_the_path_drops_positives(self):
        # the path runs along +x from the origin; the roi lies behind it, so
        # every positive uses all its redraws and is dropped
        scene = random_scene(seed=5)
        cfg = SamplerConfig(seed=5, roi=Roi4(x=(-14.0, -8.0)))
        qs = gen_ego_path_queries(scene, 0.0, cfg)
        assert_same_bits(qs, ego_path_queries_scalar(scene, 0.0, cfg))
        assert qs.counts()["ego_pos"] == 0 and qs.counts()["ego_neg"] == cfg.n_ego_neg

    @pytest.mark.parametrize("seed, w_ego, first", [(1, 4.0, 57), (3, 4.0, 76), (0, 100.0, 0)])
    def test_covered_roi_names_first_exhausted_negative(self, seed, w_ego, first):
        scene = random_scene(seed=5)
        cfg = SamplerConfig(seed=seed, w_ego=w_ego, roi=Roi4(x=(-2.0, 12.0), y=(-3.0, 3.0)))
        message = ego_error(gen_ego_path_queries, scene, 0.0, cfg)
        assert message == ego_error(ego_path_queries_scalar, scene, 0.0, cfg)
        assert message.startswith(f"ego negative {first}: exceeded 100 rejection attempts")


class TestAssembleSample:
    def test_tag_order_and_counts(self, pca16):
        scene, past, future, images = scene_sample_inputs(18)
        cfg = SamplerConfig(seed=2, n_occ_neg=600, n_occ_pos=600, n_feat=150, n_ego_pos=40, n_ego_neg=40)
        aug = AugmentConfig(rotation_enabled=False)
        enc, qs, meta = assemble_sample(past, future, images, scene, cfg, aug, pca=pca16)
        counts = qs.counts()
        assert counts["ray_negative"] == 600
        assert counts["ray_positive"] == 600
        assert counts["feature"] == 150
        assert counts["ego_pos"] == 40 and counts["ego_neg"] == 40
        assert meta.exhausted == []
        # fixed tag order
        boundaries = np.nonzero(np.diff(qs.tags.astype(int)) != 0)[0]
        assert np.all(np.diff(qs.tags.astype(int))[boundaries] > 0)
        assert len(enc.point_sets) == 3
        assert sum(len(p) for p in enc.point_sets) > 1000

    def test_rotation_equivariance_forced_theta(self, pca16):
        scene, past, future, images = scene_sample_inputs(19)
        cfg = SamplerConfig(seed=4, n_occ_neg=200, n_occ_pos=200, n_feat=50, n_ego_pos=20, n_ego_neg=20)
        theta = math.radians(90.0)
        base_aug = AugmentConfig(theta_min=0.0, theta_max=0.0)
        rot_aug = AugmentConfig(theta_min=theta, theta_max=theta)
        _, qs0, meta0 = assemble_sample(past, future, images, scene, cfg, base_aug, pca=pca16)
        _, qs1, meta1 = assemble_sample(past, future, images, scene, cfg, rot_aug, pca=pca16)
        assert meta0.theta == 0.0 and meta1.theta == theta
        np.testing.assert_allclose(rotate_about_z(qs0.positions, theta), qs1.positions, atol=1e-9)
        np.testing.assert_array_equal(qs0.tags, qs1.tags)
        np.testing.assert_array_equal(qs0.labels, qs1.labels)
        np.testing.assert_array_equal(qs0.feats, qs1.feats)

    def test_label_soundness_with_rotation(self, pca16):
        scene, past, future, images = scene_sample_inputs(20)
        cfg = SamplerConfig(seed=6, n_occ_neg=800, n_occ_pos=0, n_feat=0, n_ego_pos=0, n_ego_neg=0)
        aug = AugmentConfig()  # rotation on, theta ~ U(-20deg, 20deg)
        _, qs, meta = assemble_sample(past, future, images, scene, cfg, aug, pca=pca16)
        negs = qs.indices_for(TAG_RAY_NEG, TAG_MISSING_RAY)
        ref_pos = rotate_about_z(qs.positions[negs], -meta.theta)
        world = ego_pose_at(scene, meta.t0).apply(ref_pos)
        occ = occupancy_oracle(scene, world, qs.times[negs] + meta.t0)
        assert occ.sum() == 0

    def test_determinism_bytes(self, pca16, tmp_path):
        scene, past, future, images = scene_sample_inputs(21)
        cfg = SamplerConfig(seed=8, n_occ_neg=300, n_occ_pos=300, n_feat=60, n_ego_pos=20, n_ego_neg=20)
        aug = AugmentConfig()
        paths = []
        for run in range(2):
            _, qs, _ = assemble_sample(past, future, images, scene, cfg, aug, pca=pca16)
            p = tmp_path / f"qs{run}.bin"
            save_queryset(qs, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


class TestQuerySetFormat:
    def _tiny(self):
        return QuerySet(
            tags=np.array([0, 1, 3, 3, 4, 5], np.uint8),
            times=np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
            positions=np.arange(18, dtype=float).reshape(6, 3) / 4.0,
            labels=np.array([0, 1, 0, 0, 1, 0], np.uint8),
            feats=np.array([[1.0, -2.0], [0.25, 8.0]]),
            d=2,
        )

    def test_round_trip(self, tmp_path):
        qs = self._tiny()
        p = tmp_path / "q.bin"
        save_queryset(qs, p)
        back = load_queryset(p)
        np.testing.assert_array_equal(back.tags, qs.tags)
        np.testing.assert_array_equal(back.labels, qs.labels)
        np.testing.assert_allclose(back.positions, qs.positions, atol=1e-6)
        np.testing.assert_allclose(back.feats, qs.feats, atol=1e-6)
        assert back.d == 2

    def test_round_trip_edge_cases(self, tmp_path):
        p = tmp_path / "q.bin"
        no_feats = QuerySet(np.array([0, 1], np.uint8), [0.5, 1.0], np.zeros((2, 3)), np.array([0, 1], np.uint8), [], 0)
        save_queryset(no_feats, p)
        back = load_queryset(p)
        assert back.d == 0 and back.feats.shape == (0, 0)
        np.testing.assert_array_equal(back.labels, [0, 1])
        qs = self._tiny()
        qs.labels[2] = 1  # labels carry no meaning on FEATURE rows and load as 0
        save_queryset(qs, p)
        np.testing.assert_array_equal(load_queryset(p).labels, [0, 1, 0, 0, 1, 0])

    def test_golden_layout(self, tmp_path):
        # frozen format 3: magic, 8-byte little-endian header length, sorted-key
        # JSON header, each array's C-order bytes at a 64-byte-aligned offset,
        # then the CRC-32 of everything before it
        p = tmp_path / "q.bin"
        qs = self._tiny()
        save_queryset(qs, p)
        raw = p.read_bytes()
        assert raw[:6] == b"OCC4D\0"
        n = int.from_bytes(raw[6:14], "little")
        header = json.loads(raw[14 : 14 + n])
        assert raw[14 : 14 + n] == json.dumps(header, sort_keys=True).encode()
        assert header == {
            "kind": "queryset",
            "version": 3,
            "arrays": [
                ["tags", "|u1", [6]], ["times", "<f4", [6]], ["positions", "<f4", [6, 3]],
                ["labels", "|u1", [6]], ["feats", "<f4", [2, 2]],
            ],
        }
        expected = {"tags": qs.tags, "times": qs.times, "positions": qs.positions, "labels": qs.labels, "feats": qs.feats}
        end = 14 + n
        for name, dtype, shape in header["arrays"]:
            offset = end + -end % 64
            assert offset % 64 == 0 and raw[end:offset] == bytes(offset - end)
            end = offset + np.dtype(dtype).itemsize * math.prod(shape)
            assert raw[offset:end] == np.asarray(expected[name], dtype).tobytes(), name
        assert raw[end:] == zlib.crc32(raw[:end]).to_bytes(4, "little")

    def test_feature_targets_alignment(self):
        qs = self._tiny()
        idx = qs.indices_for(TAG_FEATURE)
        np.testing.assert_array_equal(qs.feature_targets(idx), qs.feats)

    @pytest.mark.parametrize("cut", [lambda n: 0, lambda n: 10, lambda n: n // 2], ids=["empty", "10_bytes", "half"])
    def test_truncated_files_raise_value_error(self, tmp_path, cut):
        enc = EncoderInput([np.random.default_rng(0).normal(size=(40, 3)), np.ones((9, 3))], [-0.5, 0.0])
        scene = random_scene(seed=3)
        cases = [
            ("q.bin", save_queryset, QuerySet.concat([self._tiny()] * 50, 2), load_queryset),
            ("enc.bin", save_encoder_input, enc, load_encoder_input),
            ("scan.bin", save_scan, cast_lidar_scan(scene, lidar_pose_at(scene, 0.0), scene.rig.lidar_pattern, 0.0), load_scan),
            ("img.bin", save_feature_image, render_feature_image(scene, camera_pose_at(scene, 0.0), scene.rig.camera, 0.0, 8), load_feature_image),
            ("pca.bin", save_pca, fit_pca(np.random.default_rng(1).normal(size=(100, 8)), 4), load_pca),
        ]
        for name, save, obj, load in cases:
            p = tmp_path / name
            save(obj, p)
            raw = p.read_bytes()
            p.write_bytes(raw[: cut(len(raw))])
            with pytest.raises(ValueError, match="truncated") as e:
                load(p)
            assert str(p) in str(e.value)

    def test_v1_file_is_rejected_by_name(self, tmp_path):
        p = tmp_path / "old.bin"
        p.write_bytes(b"OCC4DQRY" + (1).to_bytes(4, "little") + (2).to_bytes(4, "little") + bytes(8))
        with pytest.raises(ValueError, match="not an occ4d queryset file") as e:
            load_queryset(p)
        assert str(p) in str(e.value) and "pickle" not in str(e.value)

    def test_other_kind_is_rejected_by_name(self, tmp_path):
        p = tmp_path / "ckpt.bin"
        save_checkpoint(p, init_params(SMALL, seed=0))
        with pytest.raises(ValueError, match="not an occ4d queryset file") as e:
            load_queryset(p)
        assert str(p) in str(e.value) and "checkpoint" in str(e.value) and "pickle" not in str(e.value)

    def test_encoder_input_round_trip(self, tmp_path):
        enc = EncoderInput([np.random.default_rng(0).normal(size=(7, 3)), np.zeros((0, 3))], [-0.5, 0.0])
        p = tmp_path / "enc.bin"
        save_encoder_input(enc, p)
        back = load_encoder_input(p)
        assert back.rel_times == enc.rel_times
        np.testing.assert_array_equal(back.point_sets[0], enc.point_sets[0])
        assert back.point_sets[1].shape == (0, 3)
