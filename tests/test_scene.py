import json
import math
import re

import numpy as np
import pytest

from occ4d.geom import Pose, compose, inverse
from occ4d.scene import (
    Aabb,
    Box,
    CameraIntrinsics,
    FeatureImage,
    GROUND_CLASS,
    HIT_GROUND,
    HIT_MISS,
    PERTURB_BOUND,
    ScanPattern,
    Scene,
    SensorRig,
    SKY_CLASS,
    camera_pose_at,
    cast_lidar_scan,
    cast_rays,
    class_prototype,
    ego_pose_at,
    load_feature_image,
    load_scan,
    load_scene_json,
    occupancy_oracle,
    random_scene,
    render_feature_image,
    save_feature_image,
    save_scan,
    save_scene_json,
    scene_from_dict,
    scene_to_dict,
)
from occ4d.scene import boxes_contain

from oracles import boxes_contain_scalar, nearest_hit_scalar


def simple_scene(boxes=(), ground_z=0.0):
    times = np.array([-1.5, 0.0, 1.5, 3.5])
    positions = np.array([[-3.0, 0, 0], [0.0, 0, 0], [3.0, 0, 0], [7.0, 0, 0]])
    yaws = np.zeros(4)
    return Scene(ground_z, tuple(boxes), times, positions, yaws, Aabb([-24, -24, -2], [24, 24, 8]))


class TestSceneInvariants:
    def test_rejects_nonincreasing_track(self):
        with pytest.raises(ValueError):
            Scene(0.0, (), np.array([0.0, 0.0]), np.zeros((2, 3)), np.zeros(2), Aabb([-1, -1, -1], [1, 1, 1]))

    def test_rejects_escaping_box(self):
        box = Box([0, 0, 1], [1, 1, 1], [40.0, 0, 0])
        with pytest.raises(ValueError):
            simple_scene([box])

    def test_rejects_zero_extent_box(self):
        with pytest.raises(ValueError):
            Box([0, 0, 0], [1, 0.0, 1], [0, 0, 0])


class TestOccupancyOracle:
    def test_box_center_occupied(self):
        sc = simple_scene([Box([5, 0, 1], [1, 1, 1], [0, 0, 0])])
        assert occupancy_oracle(sc, np.array([5.0, 0, 1]), 0.0)

    def test_empty_space_free(self):
        sc = simple_scene()
        assert not occupancy_oracle(sc, np.array([0.0, 0, 10.0]), 0.0)

    def test_below_ground_occupied(self):
        sc = simple_scene()
        assert occupancy_oracle(sc, np.array([2.0, 3.0, -0.5]), 1.0)

    def test_moving_box_advected(self):
        sc = simple_scene([Box([5, 0, 1], [0.5, 0.5, 0.5], [2.0, 0, 0])])
        # hand-advected: at t=1 the box covers x in [6.5, 7.5]
        assert not occupancy_oracle(sc, np.array([5.0, 0, 1.0]), 1.0)
        assert occupancy_oracle(sc, np.array([7.0, 0, 1.0]), 1.0)

    def test_yawed_box_containment(self):
        sc = simple_scene([Box([5, 0, 1], [2.0, 0.5, 1], [0, 0, 0], yaw=math.pi / 4)])
        # along the rotated long axis
        p = np.array([5.0 + 1.2 * math.cos(math.pi / 4), 1.2 * math.sin(math.pi / 4), 1.0])
        assert occupancy_oracle(sc, p, 0.0)
        # same offset along the unrotated axis now falls outside
        assert not occupancy_oracle(sc, np.array([6.2, 0.0, 1.0]), 0.0)

    def test_out_of_horizon_raises(self):
        sc = simple_scene()
        with pytest.raises(ValueError):
            occupancy_oracle(sc, np.array([0.0, 0, 1]), 99.0)

    def test_nan_time_raises(self):
        # NaN compares False against both horizon ends; it must still be refused
        sc = random_scene(seed=1000)
        centre = sc.boxes[0].center_at(1.0)
        assert occupancy_oracle(sc, centre, 1.0)
        for t in (np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="horizon"):
                occupancy_oracle(sc, np.stack([centre, centre]), t)


def box_lattice_points(box, t):
    """World points at local offsets {-h, 0, +h} per axis (center, face
    centers, edges and corners) of ``box`` at time t, and the next floats
    outward and inward of each."""
    local = np.stack(np.meshgrid(*[[-h, 0.0, h] for h in box.half_extents], indexing="ij"), -1).reshape(-1, 3)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = box.center_at(t) + np.stack(
        [c * local[:, 0] - s * local[:, 1], s * local[:, 0] + c * local[:, 1], local[:, 2]], axis=1
    )
    return np.concatenate([world, np.nextafter(world, np.inf), np.nextafter(world, -np.inf)])


class TestBoxesContain:
    """The culled box test equals every point against every box."""

    def test_scene_points_scalar_and_per_point_times(self):
        for seed in (1000, 1001, 1002):
            scene = random_scene(seed=seed)
            rng = np.random.default_rng(seed)
            lattice = np.stack(np.meshgrid(*[np.arange(-16.0, 16.0, 0.4)] * 2 + [np.arange(-0.4, 2.8, 0.4)]), -1)
            pts = np.concatenate(
                [lattice.reshape(-1, 3), rng.uniform([-30, -30, -1], [30, 30, 4], (5000, 3))]
                + [box_lattice_points(box, t) for box in scene.boxes for t in (0.0, 0.6)]
            )
            for t in (0.0, 0.6, rng.uniform(-1.5, 3.5, len(pts))):
                want = boxes_contain_scalar(scene, pts, t)
                assert np.array_equal(boxes_contain(scene, pts, t), want)
                assert np.array_equal(occupancy_oracle(scene, pts, t), (pts[:, 2] <= scene.ground_z) | want)
                assert want.sum() > 100

    def test_closed_faces_and_next_floats(self):
        boxes = [
            Box([5.0, 0.5, 1.0], [1.0, 0.5, 0.75], [2.0, -1.0, 0.0]),
            Box([-4.0, 3.0, 0.5], [0.5, 2.0, 0.5], [0.0, 0.0, 0.0], yaw=0.7),
        ]
        sc = simple_scene(boxes)
        pts = np.concatenate([box_lattice_points(box, 1.0) for box in boxes])
        got = boxes_contain(sc, pts, 1.0)
        assert np.array_equal(got, boxes_contain_scalar(sc, pts, 1.0))
        # the unyawed box's lattice points lie on its faces exactly (closed
        # sets); the next floats beyond its (+h, +h, +h) and (-h, -h, -h)
        # corners lie outside
        assert got[:27].all()
        assert not got[27 + 26] and not got[54]
        times = np.repeat([1.0, 0.0], [81, 81])
        assert np.array_equal(boxes_contain(sc, pts, times), boxes_contain_scalar(sc, pts, times))

    def test_corner_on_the_x_axis(self):
        # a corner sits norm(hx, hy) along x from the center and hz is tiny,
        # so norm(half_extents) is that distance: in this box the in-box
        # arithmetic accepts points 1 and 2 ulps beyond it, which only the
        # cull's margin keeps
        hx, hy, yaw = 0.24477684266600153, 2.322262806597999, 1.6758130109069835
        box = Box([0.5103489304831221, 17.164168831880247, 0.5], [hx, hy, 1e-12], [0.0, 0.0, 0.0], yaw=yaw)
        sc = simple_scene([box])
        pts = []
        for end in box.center[0] - math.hypot(hx, hy), box.center[0] + math.hypot(hx, hy):
            xs = end + np.arange(-60, 61) * np.spacing(abs(end))
            pts.append(np.stack([xs, np.full_like(xs, box.center[1]), np.full_like(xs, 0.5)], axis=1))
        pts = np.concatenate(pts + [box_lattice_points(box, 0.6)])
        got = boxes_contain(sc, pts, 0.6)
        assert np.array_equal(got, boxes_contain_scalar(sc, pts, 0.6))
        assert got.any()

    def test_non_finite_points_and_times(self):
        sc = simple_scene([Box([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0])])
        pts = np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [0.5, -np.inf, 1.0], [0.5, 0.0, 1.0]])
        with np.errstate(invalid="ignore"):
            for times in (0.0, np.nan, np.array([0.0, 0.0, 0.0, np.nan, np.inf]), np.array([np.nan, 0.0, 0.0, 0.0, 0.5])):
                assert np.array_equal(boxes_contain(sc, pts, times), boxes_contain_scalar(sc, pts, times))
            assert boxes_contain(sc, pts, np.array([np.nan, 0.0, 0.0, 0.0, 0.5])).tolist() == [False] * 4 + [True]
        assert boxes_contain(sc, np.zeros((0, 3)), 0.0).shape == (0,)


class TestCastLidar:
    def test_axis_aligned_face(self):
        sc = simple_scene([Box([6, 0, 0], [1, 1, 5], [0, 0, 0])])
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 0.0]))
        ranges, kind, thickness = cast_rays(sc, pose.translation[None], np.array([[1.0, 0, 0]]), 0.0, 40.0)
        assert kind[0] == 0
        np.testing.assert_allclose(ranges[0], 5.0, atol=1e-12)
        np.testing.assert_allclose(thickness[0], 2.0, atol=1e-12)

    def test_sky_ray_misses(self):
        sc = simple_scene()
        ranges, kind, _ = cast_rays(sc, np.zeros((1, 3)), np.array([[0.0, 0, 1.0]]), 0.0, 40.0)
        assert kind[0] == HIT_MISS and np.isinf(ranges[0])

    def test_full_scan_matches_bruteforce_oracle(self):
        sc = random_scene(seed=11)
        pattern = ScanPattern(az_count=64, el_count=32)
        pose = Pose(np.eye(3), np.array([0.37, -0.21, 1.8]))
        scan = cast_lidar_scan(sc, pose, pattern, 0.5)
        dirs = scan.dirs
        for i in range(scan.n):
            expected = nearest_hit_scalar(sc, pose.translation, dirs[i], 0.5, pattern.max_range)
            if expected is None:
                assert scan.miss[i]
            else:
                assert not scan.miss[i]
                np.testing.assert_allclose(scan.ranges[i], expected, atol=1e-9)

    def test_interior_samples_free(self):
        # free space strictly between sensor and every hit
        sc = random_scene(seed=3)
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.8]))
        scan = cast_lidar_scan(sc, pose, ScanPattern(az_count=48, el_count=16), 0.0)
        hits = scan.hit_indices
        rs = np.linspace(0.02, 0.98, 17)
        for r in rs:
            pts = scan.origins[hits] + (r * scan.ranges[hits])[:, None] * scan.dirs[hits]
            occ = occupancy_oracle(sc, pts, 0.0)
            assert not occ.any()

    def test_hit_surface_tightness(self):
        # just behind a solid-backed hit face the oracle reports occupied
        sc = random_scene(seed=4)
        pose = Pose(np.eye(3), np.array([0.1, 0.2, 1.8]))
        scan = cast_lidar_scan(sc, pose, ScanPattern(az_count=48, el_count=16), 0.0)
        delta = 0.1
        solid = (~scan.miss) & ((scan.hit_kind == HIT_GROUND) | (scan.thickness >= delta))
        idx = np.nonzero(solid)[0]
        assert len(idx) > 50
        for eps in (1e-6, 0.03, 0.45 * delta):
            pts = scan.endpoints()[idx] + eps * scan.dirs[idx]
            assert occupancy_oracle(sc, pts, 0.0).all()


class TestRenderFeatureImage:
    def test_depth_matches_lidar_through_same_directions(self):
        sc = random_scene(seed=5)
        cam_pose = camera_pose_at(sc, 0.0)
        intr = sc.rig.camera
        img = render_feature_image(sc, cam_pose, intr, 0.0, 16)
        # re-cast pixel-center rays with the lidar path and compare depths
        u = (np.arange(intr.width) + 0.5 - intr.cx) / intr.fx
        v = (np.arange(intr.height) + 0.5 - intr.cy) / intr.fy
        vg, ug = np.meshgrid(v, u, indexing="ij")
        d_cam = np.stack([ug, vg, np.ones_like(ug)], axis=-1).reshape(-1, 3)
        norms = np.linalg.norm(d_cam, axis=1)
        dirs = cam_pose.rotate_only(d_cam / norms[:, None])
        ranges, kind, _ = cast_rays(sc, cam_pose.translation[None], dirs, 0.0, sc.rig.lidar_pattern.max_range)
        depth = np.where(kind == HIT_MISS, np.inf, ranges / norms).reshape(img.depth.shape)
        finite = np.isfinite(depth)
        assert finite.any()
        np.testing.assert_allclose(img.depth[finite], depth[finite], atol=1e-9)
        np.testing.assert_array_equal(np.isinf(img.depth), np.isinf(depth))

    def test_box_pixel_near_prototype(self):
        sc = simple_scene([Box([8, 0, 1.2], [2, 2, 1.2], [0, 0, 0], class_id=2)])
        cam_pose = camera_pose_at(sc, 0.0)
        img = render_feature_image(sc, cam_pose, sc.rig.camera, 0.0, 12)
        intr = sc.rig.camera
        center_px = img.features[int(intr.cy), int(intr.cx)]
        assert np.isfinite(img.depth[int(intr.cy), int(intr.cx)])
        assert np.abs(center_px - class_prototype(2, 12)).max() <= PERTURB_BOUND + 1e-12
        assert PERTURB_BOUND <= 0.1

    def test_ground_patch_smoothness(self):
        sc = simple_scene()
        cam_pose = camera_pose_at(sc, 0.0)
        img = render_feature_image(sc, cam_pose, sc.rig.camera, 0.0, 8)
        ground_rows = img.depth[-1]  # bottom rows look down at the ground
        assert np.isfinite(ground_rows).all()
        f0 = img.features[-1, 10]
        f1 = img.features[-1, 11]
        assert np.abs(f0 - f1).max() <= 2 * PERTURB_BOUND

    def test_sky_pixels(self):
        sc = simple_scene()
        cam_pose = camera_pose_at(sc, 0.0)
        img = render_feature_image(sc, cam_pose, sc.rig.camera, 0.0, 8)
        sky = np.isinf(img.depth)
        assert sky.any()
        proto = class_prototype(SKY_CLASS, 8)
        assert np.abs(img.features[sky] - proto[None, :]).max() <= 1e-12

    def test_rejects_tiny_feature_dim(self):
        sc = simple_scene()
        with pytest.raises(ValueError):
            render_feature_image(sc, camera_pose_at(sc, 0.0), sc.rig.camera, 0.0, 3)


class TestEgoPose:
    def test_keyframe_exact(self):
        sc = simple_scene()
        p = ego_pose_at(sc, 1.5)
        np.testing.assert_array_equal(p.translation, np.array([3.0, 0, 0]))

    def test_midpoint(self):
        sc = simple_scene()
        p = ego_pose_at(sc, 0.75)
        np.testing.assert_allclose(p.translation, [1.5, 0, 0], atol=1e-12)

    def test_continuity_sweep(self):
        sc = random_scene(seed=8)
        ts = np.sort(np.random.default_rng(0).uniform(sc.horizon[0], sc.horizon[1], size=100))
        poses = [ego_pose_at(sc, float(t)) for t in ts]
        v_max = 5.0
        for (t0, p0), (t1, p1) in zip(zip(ts, poses), zip(ts[1:], poses[1:])):
            step = np.linalg.norm(p1.translation - p0.translation)
            assert step <= v_max * (t1 - t0) + 1e-9

    def test_yaw_shortest_path(self):
        times = np.array([0.0, 1.0])
        positions = np.zeros((2, 3))
        yaws = np.array([math.pi - 0.1, -math.pi + 0.1])  # 0.2 rad apart across the wrap
        sc = Scene(0.0, (), times, positions, yaws, Aabb([-24, -24, -2], [24, 24, 8]))
        mid = ego_pose_at(sc, 0.5).yaw()
        assert abs(abs(mid) - math.pi) < 1e-9

    def test_out_of_horizon(self):
        sc = simple_scene()
        with pytest.raises(ValueError):
            ego_pose_at(sc, 100.0)


class TestCameraLidarConsistency:
    def test_unoccluded_hit_projects_onto_consistent_depth(self):
        sc = random_scene(seed=13)
        t = 0.0
        from occ4d.scene import lidar_pose_at

        scan = cast_lidar_scan(sc, lidar_pose_at(sc, t), ScanPattern(az_count=96, el_count=32), t)
        cam_pose = camera_pose_at(sc, t)
        intr = sc.rig.camera
        img = render_feature_image(sc, cam_pose, intr, t, 8)
        inv = inverse(cam_pose)
        pts = scan.endpoints()[scan.hit_indices]
        cam = inv.apply(pts)
        zs = cam[:, 2]
        keep = zs > 0.1
        cam = cam[keep]
        zs = zs[keep]
        us = intr.fx * cam[:, 0] / zs + intr.cx
        vs = intr.fy * cam[:, 1] / zs + intr.cy
        inside = (us >= 1) & (us < intr.width - 1) & (vs >= 1) & (vs < intr.height - 1)
        checked = 0
        for u, v, z in zip(us[inside], vs[inside], zs[inside]):
            pu, pv = int(u), int(v)
            patch = img.depth[max(0, pv - 1) : pv + 2, max(0, pu - 1) : pu + 2]
            if not np.isfinite(patch).all():
                continue
            # local depth-quantization step: neighbor-to-neighbor depth variation
            step = np.abs(np.diff(patch, axis=0)).max() + np.abs(np.diff(patch, axis=1)).max()
            if z <= img.depth[pv, pu] + step + 1e-9:
                checked += 1
            else:
                # occluded from the camera (lidar sits higher); skip
                continue
        assert checked > 100


class TestSceneIO:
    def test_json_round_trip(self, tmp_path):
        sc = random_scene(seed=21)
        path = tmp_path / "scene.json"
        save_scene_json(sc, path)
        back = load_scene_json(path)
        assert len(back.boxes) == len(sc.boxes)
        np.testing.assert_allclose(back.ego_positions, sc.ego_positions)
        np.testing.assert_allclose(back.boxes[0].center, sc.boxes[0].center)
        assert back.rig.lidar_pattern == sc.rig.lidar_pattern

    def test_schema_rejects_bad_doc(self):
        with pytest.raises(ValueError, match="invalid scene config"):
            scene_from_dict({"ground_z": 0.0, "boxes": [{"center": [0, 0, 0]}], "ego_track": [], "bounds": {"lo": [0, 0, 0], "hi": [1, 1, 1]}})
        with pytest.raises(ValueError, match="boxes/0"):
            scene_from_dict(
                {
                    "ground_z": 0.0,
                    "boxes": [{"center": [0, 0, 0]}],
                    "ego_track": [
                        {"t": 0.0, "position": [0, 0, 0], "yaw": 0.0},
                        {"t": 1.0, "position": [1, 0, 0], "yaw": 0.0},
                    ],
                    "bounds": {"lo": [-9, -9, -9], "hi": [9, 9, 9]},
                }
            )

    @pytest.mark.parametrize(
        "sensor, key, value, message",
        [
            ("lidar", "az_count", "64", "is not of type 'integer'"),
            ("lidar", "max_range", None, "is not of type 'number'"),
            ("lidar", "offset", [0, 0], "is too short"),
            ("lidar", "el_extent", [-0.3, 0.1, 0.2], "is too long"),
            ("camera", "width", 48.5, "is not of type 'integer'"),
            ("camera", "offset", [0.5, 0.0, "1.2"], "is not of type 'number'"),
            ("lidar", "az_count", 64.0, "is not of type 'integer'"),
        ],
    )
    def test_schema_rejects_mistyped_sensor_field(self, sensor, key, value, message):
        doc = scene_to_dict(random_scene(seed=3))
        doc["sensors"][sensor][key] = value
        with pytest.raises(ValueError, match=f"invalid scene config at sensors/{sensor}/{key}") as e:
            scene_from_dict(doc)
        assert message in str(e.value)

    def test_schema_rejects_unknown_sensor_field(self):
        doc = scene_to_dict(random_scene(seed=3))
        doc["sensors"]["lidar"]["az_cuont"] = 32
        with pytest.raises(ValueError, match="invalid scene config at sensors/lidar/az_cuont: unknown key"):
            scene_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda d: d["boxes"][0].update(clas_id=3), "boxes/0/clas_id"),
            (lambda d: d.update(grund_z=0.5), "grund_z"),
            (lambda d: d["sensors"].update(radar={"max_range": 60.0}), "sensors/radar"),
        ],
        ids=["box_field", "top_level", "sensor"],
    )
    def test_schema_rejects_unknown_key(self, edit, where):
        doc = scene_to_dict(random_scene(seed=3))
        edit(doc)
        with pytest.raises(ValueError, match=f"invalid scene config at {where}: unknown key"):
            scene_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("bounds"), "at bounds: missing required key"),
            (lambda d: d["bounds"].pop("hi"), "at bounds/hi: missing required key"),
            (lambda d: d["boxes"][1].pop("half_extents"), "at boxes/1/half_extents: missing required key"),
            (lambda d: d["ego_track"][2].pop("yaw"), "at ego_track/2/yaw: missing required key"),
            (lambda d: d["bounds"].update(lo=[-24.0, -24.0]), "at bounds/lo: [-24.0, -24.0] is too short; it must have 3 items"),
            (lambda d: d.update(ground_z=True), "at ground_z: True is not of type 'number'"),
            (lambda d: d["boxes"][0].update(class_id=2.0), "at boxes/0/class_id: 2.0 is not of type 'integer'"),
            (lambda d: d["boxes"][0].update(velocity=None), "at boxes/0/velocity: None is not of type 'array'"),
            (lambda d: d["ego_track"][0].update(t=None), "at ego_track/0/t: None is not of type 'number'"),
            # the constructors enforce these two (see test_constructor_errors_name_the_element)
            (lambda d: d["boxes"][0].update(class_id=0), "box class_id must lie in"),
            (lambda d: d.update(ego_track=d["ego_track"][:1]), "ego trajectory needs at least two keyframes"),
        ],
        ids=[
            "missing_top_level", "missing_bounds_key", "missing_box_key", "missing_keyframe_key", "two_item_vec3",
            "bool_for_number", "float_for_integer", "null_for_vec3", "null_for_number", "class_id_0", "one_keyframe",
        ],
    )
    def test_schema_rejects_each_rule(self, edit, message):
        doc = scene_to_dict(random_scene(seed=5))
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(message)):
            scene_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["boxes"][1].update(class_id=0), "boxes/1: box class_id must lie in (0, 255)"),
            (lambda d: d.update(ego_track=d["ego_track"][:1]), "ego_track: ego trajectory needs at least two keyframes"),
            (
                lambda d: d["ego_track"][1].update(t=d["ego_track"][0]["t"]),
                "ego_track: ego trajectory timestamps must be strictly increasing",
            ),
            (
                lambda d: d["boxes"][2].update(velocity=[40.0, 0.0, 0.0]),
                "boxes/2: box 2 leaves 2x scene bounds during the simulated horizon",
            ),
        ],
        ids=["class_id_0", "one_keyframe", "repeated_time", "box_leaves_bounds"],
    )
    def test_constructor_errors_name_the_element(self, tmp_path, edit, message):
        # a check that Box or Scene makes names the scene-file element, as
        # the type check's paths do
        doc = scene_to_dict(random_scene(seed=5))
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: invalid scene config at {message}")):
            load_scene_json(path)

    @pytest.mark.parametrize("ground_range", [(0.0, 0.0), (-0.6, 0.6)])
    def test_every_written_scene_loads(self, ground_range):
        for seed in range(40):
            doc = json.loads(json.dumps(scene_to_dict(random_scene(seed, ground_range=ground_range))))
            assert scene_to_dict(scene_from_dict(doc)) == doc

    def test_partial_sensors_take_dataclass_defaults(self):
        doc = scene_to_dict(random_scene(seed=4))
        doc["sensors"] = {"lidar": {"az_count": 32, "offset": [0.0, 0.0, 2.0]}, "camera": {"fx": 30.0}}
        rig = scene_from_dict(doc).rig
        assert rig.lidar_pattern == ScanPattern(az_count=32)
        assert rig.lidar_offset == (0.0, 0.0, 2.0)
        assert rig.camera == CameraIntrinsics(fx=30.0)
        assert rig.camera_offset == SensorRig().camera_offset
        full = scene_to_dict(scene_from_dict(doc))
        assert full["sensors"]["lidar"]["el_count"] == ScanPattern().el_count
        assert scene_to_dict(scene_from_dict(full)) == full

    def test_scan_round_trip(self, tmp_path):
        sc = random_scene(seed=2)
        scan = cast_lidar_scan(sc, Pose(np.eye(3), [0, 0, 1.8]), ScanPattern(az_count=16, el_count=8), 0.0)
        p = tmp_path / "scan.bin"
        save_scan(scan, p)
        back = load_scan(p)
        np.testing.assert_array_equal(back.origins, scan.origins)
        np.testing.assert_array_equal(back.dirs, scan.dirs)
        np.testing.assert_array_equal(back.ranges, scan.ranges)
        np.testing.assert_array_equal(back.miss, scan.miss)
        np.testing.assert_array_equal(back.hit_kind, scan.hit_kind)
        assert back.rows == scan.rows and back.cols == scan.cols

    def test_image_round_trip(self, tmp_path):
        sc = random_scene(seed=2)
        img = render_feature_image(sc, camera_pose_at(sc, 0.0), sc.rig.camera, 0.0, 8)
        p = tmp_path / "img.bin"
        save_feature_image(img, p)
        back = load_feature_image(p)
        np.testing.assert_array_equal(back.depth, img.depth)
        np.testing.assert_allclose(back.features, img.features, atol=1e-6)
        np.testing.assert_allclose(back.pose.rotation, img.pose.rotation)
        assert back.time == img.time
