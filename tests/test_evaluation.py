import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from occ4d.evaluation import (
    EvalGrid,
    LABEL_FREE,
    LABEL_OCCUPIED,
    LABEL_UNKNOWN,
    PAST_OFFSETS,
    average_precision,
    eval_4d_occupancy,
    eval_ego_path,
    label_by_raytrace,
    march_voxels,
    recall_at_precision,
    scene_grid_for,
    traverse_voxels,
    write_pgm,
    write_report_json,
)
from occ4d.field import MODE_AMORTIZED, MODE_FIT_PER_SCENE, encode, init_params, query_head, sigmoid
from occ4d.geom import Pose, inverse
from occ4d.queries import SamplerConfig, past_encoder_input
from occ4d.scene import (
    Aabb,
    Box,
    ScanPattern,
    Scene,
    boxes_contain,
    cast_lidar_scan,
    ego_pose_at,
    lidar_pose_at,
    occupancy_oracle,
    random_scene,
)

from oracles import label_by_raytrace_scalar, segment_voxel_overlap, zero_params


SMALL_GRID = EvalGrid(x=(-4.0, 4.0), y=(-4.0, 4.0), z=(0.0, 2.0), step=0.5, times=(0.6,))


class TestTraverseVoxels:
    def test_matches_bruteforce_slab_oracle(self):
        rng = np.random.default_rng(0)
        grid = SMALL_GRID
        nz, ny, nx = grid.shape
        lo = np.array([grid.x[0], grid.y[0], grid.z[0]])
        for _ in range(300):
            p0 = rng.uniform([-6, -6, -0.5], [6, 6, 2.5])
            p1 = rng.uniform([-6, -6, -0.5], [6, 6, 2.5])
            got = set(traverse_voxels(p0, p1, grid))
            expected = set()
            for iz in range(nz):
                for iy in range(ny):
                    for ix in range(nx):
                        vmin = lo + np.array([ix, iy, iz]) * grid.step
                        vmax = vmin + grid.step
                        if segment_voxel_overlap(p0, p1, vmin, vmax):
                            expected.add((iz, iy, ix))
            assert got == expected, f"{p0} -> {p1}"

    def test_segment_outside_grid(self):
        assert traverse_voxels(np.array([10.0, 10, 1]), np.array([12.0, 10, 1]), SMALL_GRID) == []

    def test_axis_aligned_inside(self):
        vox = traverse_voxels(np.array([-3.9, 0.3, 0.3]), np.array([3.9, 0.3, 0.3]), SMALL_GRID)
        assert len(vox) == SMALL_GRID.shape[2]

    @pytest.mark.filterwarnings("error")
    def test_subnormal_direction_no_overflow_warning(self):
        # z moves by one subnormal step: flat for clipping, but the march
        # steps in z by 1 / d = inf, which must not warn
        p0, p1 = np.array([-3.9, 0.3, 0.0]), np.array([3.9, 0.3, 5e-324])
        vox = traverse_voxels(p0, p1, SMALL_GRID)
        assert len(vox) == SMALL_GRID.shape[2]
        assert sorted(march_voxels(p0, p1, SMALL_GRID).tolist()) == sorted(
            np.ravel_multi_index(v, SMALL_GRID.shape) for v in vox
        )


# the march's grids: one starting on the ground plane with binary-exact faces,
# one whose faces (multiples of 0.2 from -0.4) round
MARCH_GRIDS = (SMALL_GRID, EvalGrid(x=(-3.2, 3.0), y=(-1.6, 2.4), z=(-0.4, 1.2), step=0.2))


@st.composite
def segment_batches(draw):
    """A grid and up to 12 segments on it: free, axis-parallel or zero-length,
    with coordinates anywhere within 2 m of the grid or exactly on a voxel
    face (on the grid's bounds, the ground plane z = 0 included, or beyond)."""
    grid = draw(st.sampled_from(MARCH_GRIDS))
    lo = (grid.x[0], grid.y[0], grid.z[0])
    hi = (grid.x[1], grid.y[1], grid.z[1])
    n = grid.shape[::-1]

    def coord(k):
        return draw(
            st.one_of(
                st.floats(lo[k] - 2.0, hi[k] + 2.0),
                st.integers(-3, n[k] + 3).map(lambda i: lo[k] + i * grid.step),
            )
        )

    segments = []
    for _ in range(draw(st.integers(1, 12))):
        p0 = [coord(k) for k in range(3)]
        kind = draw(st.sampled_from(("free", "axis", "zero")))
        if kind == "free":
            p1 = [coord(k) for k in range(3)]
        else:
            p1 = list(p0)
            if kind == "axis":
                k = draw(st.integers(0, 2))
                p1[k] = coord(k)
        segments.append((p0, p1))
    return grid, np.array(segments, dtype=np.float64).reshape(-1, 2, 3)


class TestMarchVoxels:
    @settings(max_examples=200, deadline=None)
    @given(segment_batches())
    @example((SMALL_GRID, np.array([[[10.0, 10.0, 1.0], [12.0, 10.0, 1.0]]])))  # entirely outside
    @example((SMALL_GRID, np.array([[[-6.0, 0.3, 0.3], [6.0, 0.3, 0.3]]])))  # starts outside, crosses
    @example((SMALL_GRID, np.array([[[0.3, 0.3, 1.8], [2.1, -1.7, 0.0]]])))  # ground hit on z = 0
    @example((SMALL_GRID, np.array([[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]])))  # zero length on a corner
    def test_batch_crosses_the_voxels_of_traverse_voxels(self, case):
        # every segment of the batch marches in lockstep; the multiset of
        # emitted voxels is the union of the scalar lists, segment by segment
        grid, segs = case
        want = [
            np.ravel_multi_index((iz, iy, ix), grid.shape)
            for p0, p1 in segs
            for iz, iy, ix in traverse_voxels(p0, p1, grid)
        ]
        got = march_voxels(segs[:, 0], segs[:, 1], grid)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(np.sort(got), np.sort(np.array(want, dtype=np.int64)))
        for p0, p1 in segs:
            assert set(march_voxels(p0, p1, grid).tolist()) == {
                np.ravel_multi_index(v, grid.shape) for v in traverse_voxels(p0, p1, grid)
            }

    def test_empty_batch(self):
        assert march_voxels(np.zeros((0, 3)), np.zeros((0, 3)), SMALL_GRID).size == 0


class TestArrayLabelling:
    @staticmethod
    def scans(scene, t0, times):
        ref = inverse(ego_pose_at(scene, t0))
        return [
            cast_lidar_scan(scene, lidar_pose_at(scene, t0 + t), scene.rig.lidar_pattern, t0 + t)
            .transformed(ref)
            .time_shifted(-t0)
            for t in times
        ]

    @pytest.mark.parametrize(
        "grid, t0, scan_times",
        [
            (EvalGrid(x=(-8.0, 8.0), y=(-8.0, 8.0), z=(0.0, 2.4), step=0.4, times=(0.6,)), 0.0, (0.6,)),
            # time 2.9 is 0.5 s from its nearest scan, outside the window: unknown
            (
                EvalGrid(x=(-12.0, 12.0), y=(-10.0, 10.0), z=(-0.4, 2.8), step=0.4, times=(0.6, 1.2, 2.0, 2.9)),
                0.0,
                (0.6, 1.3, 2.0, 2.4),
            ),
            (EvalGrid(x=(-6.0, 10.0), y=(-6.0, 6.0), z=(-0.4, 2.0), step=0.2, times=(0.6, 1.8)), -0.5, (0.6, 1.8)),
        ],
    )
    def test_label_by_raytrace_equals_scalar_labeller(self, grid, t0, scan_times):
        scene = random_scene(seed=30)
        scans = self.scans(scene, t0, scan_times)
        to_world = ego_pose_at(scene, t0)
        got = raytrace_with_boxes(scans, grid, scene, to_world, t0)
        assert np.array_equal(got, label_by_raytrace_scalar(scans, grid, scene=scene, to_world=to_world, t0=t0))
        assert np.array_equal(label_by_raytrace(scans, grid), label_by_raytrace_scalar(scans, grid))
        assert np.count_nonzero(got == LABEL_FREE) > 1000
        assert np.count_nonzero(got == LABEL_OCCUPIED) > 100
        if 2.9 in grid.times:
            assert np.all(got[-1] == LABEL_UNKNOWN)

    def test_box_test_at_scene_time(self):
        # grid time t is scene time t0 + t: the box, moving at 2 m/s, covers
        # voxel 10's center at 0.5 s and voxel 12's at 1.0 s
        scene = tiny_scene([Box([0.25, 0.25, 1.0], [0.5, 0.5, 1.0], [2.0, 0.0, 0.0])])
        grid = EvalGrid(x=(-4.0, 4.0), y=(-4.0, 4.0), z=(0.0, 2.0), step=0.5, times=(0.5,))
        sky = ScanPattern(az_count=1, el_count=1, el_extent=(1.0, 1.2))
        scan = cast_lidar_scan(scene, Pose(np.eye(3), np.array([0.0, 0.0, 5.0])), sky, 0.5)
        for t0, inside, outside in ((0.0, 10, 12), (0.5, 12, 10)):
            labels = raytrace_with_boxes([scan], grid, scene, t0=t0)
            assert np.array_equal(labels, label_by_raytrace_scalar([scan], grid, scene=scene, t0=t0))
            assert labels[0, 2, 8, inside] == LABEL_OCCUPIED
            assert labels[0, 2, 8, outside] == LABEL_UNKNOWN


def raytrace_with_boxes(scans, grid, scene, to_world=None, t0=0.0):
    """``label_by_raytrace`` with the box evidence ``eval_4d_occupancy`` gives
    it: the box test of the probe centers, mapped to the scene frame by
    ``to_world``, at the scene times t0 + t."""
    centers = grid.centers()
    world = centers if to_world is None else to_world.apply(centers)
    return label_by_raytrace(scans, grid, np.stack([boxes_contain(scene, world, t0 + t) for t in grid.times]))


def tiny_scene(boxes=()):
    times = np.array([-1.5, 0.0, 3.5])
    positions = np.array([[0.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0]])
    return Scene(0.0, tuple(boxes), times, positions, np.zeros(3), Aabb([-24, -24, -2], [24, 24, 8]))


class TestLabelByRaytrace:
    def test_hit_voxel_occupied_and_path_free(self):
        scene = tiny_scene([Box([3.25, 0.25, 1.0], [0.5, 0.5, 1.0], [0, 0, 0])])
        pose = Pose(np.eye(3), np.array([-3.75, 0.25, 1.05]))
        pattern = ScanPattern(az_count=1, el_count=1, az_extent=(-0.001, 0.001), el_extent=(-0.001, 0.001), max_range=20)
        scan = cast_lidar_scan(scene, pose, pattern, 0.6)
        labels = label_by_raytrace([scan], SMALL_GRID)
        # the hit lands on the box face at x = 2.75: voxel ix = floor((2.75+4)/0.5) = 13
        iy = int((0.25 + 4) / 0.5)
        iz = int(1.05 / 0.5)
        assert labels[0, iz, iy, 13] == LABEL_OCCUPIED
        for ix in range(1, 13):
            assert labels[0, iz, iy, ix] == LABEL_FREE
        # behind the hit: never traversed
        assert labels[0, iz, iy, 15] == LABEL_UNKNOWN

    def test_box_interior_occupied_via_scene(self):
        box = Box([3.25, 0.25, 1.0], [0.5, 0.5, 1.0], [0, 0, 0])
        scene = tiny_scene([box])
        pose = Pose(np.eye(3), np.array([-3.75, 0.25, 1.05]))
        pattern = ScanPattern(az_count=1, el_count=1, az_extent=(-0.001, 0.001), el_extent=(-0.001, 0.001), max_range=20)
        scan = cast_lidar_scan(scene, pose, pattern, 0.6)
        labels = raytrace_with_boxes([scan], SMALL_GRID, scene)
        iy = int((0.25 + 4) / 0.5)
        # voxel centers inside the box get occupied even without a hit point
        assert labels[0, 2, iy, 14] == LABEL_OCCUPIED

    def test_no_scan_in_window_all_unknown(self):
        scene = tiny_scene()
        pose = Pose(np.eye(3), np.array([0.0, 0.0, 1.0]))
        pattern = ScanPattern(az_count=4, el_count=2)
        scan = cast_lidar_scan(scene, pose, pattern, 2.0)  # 1.4 s away from probe time
        labels = label_by_raytrace([scan], SMALL_GRID)
        assert np.all(labels == LABEL_UNKNOWN)

    def test_occupied_wins_conflicts(self):
        # two rays: one ends inside a voxel, another traverses the same voxel
        scene = tiny_scene([Box([2.0, 0.25, 0.75], [0.26, 0.26, 0.26], [0, 0, 0])])
        pose = Pose(np.eye(3), np.array([-3.75, 0.25, 0.75]))
        pattern = ScanPattern(az_count=1, el_count=2, az_extent=(-0.001, 0.001), el_extent=(-0.02, 0.02), max_range=20)
        scan = cast_lidar_scan(scene, pose, pattern, 0.6)
        labels = label_by_raytrace([scan], SMALL_GRID)
        ix = int((1.74 + 4) / 0.5)  # voxel containing the hit surface
        iy = int((0.25 + 4) / 0.5)
        iz = 1
        assert labels[0, iz, iy, ix] == LABEL_OCCUPIED

    def test_free_labels_sound_on_occlusion_free_scene(self):
        # every ray-trace 'free' probe is oracle-free (the spec's soundness
        # direction; agreement on occupied needs boundary tolerance)
        scene = random_scene(seed=30)
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.4), step=0.4, times=(0.6,))
        ref = inverse(ego_pose_at(scene, 0.0))
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.6), scene.rig.lidar_pattern, 0.6)
        labels = raytrace_with_boxes([scan.transformed(ref).time_shifted(0.0)], grid, scene, ego_pose_at(scene, 0.0))
        centers = grid.centers()
        world = ego_pose_at(scene, 0.0).apply(centers)
        exact = occupancy_oracle(scene, world, 0.6)
        free = labels[0].ravel() == LABEL_FREE
        assert free.sum() > 1000
        # free voxels whose center is oracle-occupied can only occur within a
        # voxel diagonal of a surface; demand agreement away from boundaries
        disagree = free & exact
        assert disagree.mean() < 0.01


class TestEvalGridCenters:
    @staticmethod
    def unsnapped(grid):
        nz, ny, nx = grid.shape
        axes = [lo + (np.arange(n) + 0.5) * grid.step for lo, n in zip((grid.z[0], grid.y[0], grid.x[0]), (nz, ny, nx))]
        zg, yg, xg = np.meshgrid(*axes, indexing="ij")
        return np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)

    def test_ground_layer_is_exactly_zero(self):
        grid = EvalGrid(x=(-16.0, 16.0), y=(-16.0, 16.0), z=(-0.6, 3.0), step=0.4)
        nz, ny, nx = grid.shape
        z_layers = grid.centers()[:: ny * nx, 2]
        assert self.unsnapped(grid)[ny * nx, 2] != 0.0  # 1.1e-16 by round-off
        assert z_layers[1] == 0.0
        assert np.count_nonzero(z_layers == 0.0) == 1
        np.testing.assert_allclose(z_layers, self.unsnapped(grid)[:: ny * nx, 2], atol=1e-15)

    @pytest.mark.parametrize("step", [0.2, 0.4])
    def test_default_and_benchmark_lattices_unchanged(self, step):
        # the benchmark's workloads probe the default region at 0.2 m and 0.4 m
        grid = EvalGrid(step=step)
        assert np.array_equal(grid.centers(), self.unsnapped(grid))

    def test_reversed_axis_rejected(self):
        with pytest.raises(ValueError, match=r"cells \(16, 160, -10\); each axis needs at least one"):
            EvalGrid(x=(1.0, -1.0))

    def test_axis_thinner_than_a_cell_rejected(self):
        with pytest.raises(ValueError, match=r"cells \(0, 160, 160\); each axis needs at least one"):
            EvalGrid(z=(0.0, 0.05))

    @pytest.mark.parametrize("bad", [{"step": math.nan}, {"step": math.inf}, {"y": (-1.0, math.nan)}])
    def test_nonfinite_step_or_bound_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            EvalGrid(**bad)


class TestHarness:
    def test_untrained_zero_field_scores_half(self):
        scene = random_scene(seed=31)
        fcfg_kwargs = dict(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4,
                           head_hidden=8, d_feat=3, n_freqs=2)
        from occ4d.field import FieldConfig

        fp = zero_params(FieldConfig(**fcfg_kwargs), MODE_FIT_PER_SCENE)
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=1.0, times=(0.6, 1.2))
        report = eval_4d_occupancy(fp, [scene], grid, 0.0, [scene_grid_for(fp, scene)], raytrace=False)
        # all logits 0 -> all scores exactly 0.5 -> single threshold
        assert report["soft_iou"] > 0
        assert report["r_at_p70_exact"] in (0.0, 1.0)
        base = 0.7  # precision target; base rate is well below it here
        assert report["r_at_p70_exact"] == 0.0

    def test_report_json_is_strict(self, tmp_path):
        # the zero field reaches precision 0.7 at no threshold: the report
        # holds inf there, and the file null; a NaN metric fails to write
        import json

        from occ4d.field import FieldConfig

        scene = random_scene(seed=31)
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = zero_params(cfg, MODE_FIT_PER_SCENE)
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=1.0, times=(0.6, 1.2))
        report = eval_4d_occupancy(fp, [scene], grid, 0.0, [scene_grid_for(fp, scene)], raytrace=True)
        assert report["threshold_exact"] == math.inf and report["threshold"] == math.inf
        path = tmp_path / "report.json"
        write_report_json(report, path)
        back = json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON token {c}"))
        assert back["threshold_exact"] is None and back["threshold"] is None
        assert back["soft_iou"] == report["soft_iou"]
        with pytest.raises(ValueError):
            write_report_json({**report, "ap_ego": math.nan}, path)

    def test_nan_scores_rejected(self):
        from occ4d.field import FieldConfig

        scene = random_scene(seed=31)
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = init_params(cfg, seed=0, mode=MODE_FIT_PER_SCENE)
        fp.params["head.occ.b3"][:] = math.nan
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=1.0, times=(0.6,))
        with pytest.raises(ValueError, match="NaN"):
            eval_4d_occupancy(fp, [scene], grid, 0.0, [scene_grid_for(fp, scene)], raytrace=False)

    def test_report_shape_and_json(self, tmp_path):
        scene = random_scene(seed=32)
        from occ4d.field import FieldConfig

        fp = init_params(
            FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2),
            seed=1,
            mode=MODE_FIT_PER_SCENE,
        )
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=0.5, times=(0.6, 1.2))
        report = eval_4d_occupancy(fp, [scene], grid, 0.0, [scene_grid_for(fp, scene)], raytrace=True)
        for key in ("r_at_p70", "r_at_p70_exact", "ap_occ", "ap_occ_exact", "soft_iou", "probe_counts", "per_time_breakdown"):
            assert key in report
        assert len(report["per_time_breakdown"]) == 2
        assert report["probe_counts"]["free"] > 0
        p = tmp_path / "report.json"
        write_report_json(report, p)
        import json

        back = json.loads(p.read_text())
        assert back["n_probes"] == report["n_probes"]

    def test_raytrace_agrees_with_oracle_no_occlusion(self):
        # protocol sanity on an occlusion-free (ground-only) scene:
        # free labels exactly oracle-free; occupied labels oracle-occupied
        # within one voxel diagonal of boundary tolerance
        scene = tiny_scene()
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.4), step=0.4, times=(0.6,))
        ref = inverse(ego_pose_at(scene, 0.0))
        scan = cast_lidar_scan(scene, lidar_pose_at(scene, 0.6), scene.rig.lidar_pattern, 0.6)
        labels = raytrace_with_boxes([scan.transformed(ref)], grid, scene, ego_pose_at(scene, 0.0))[0].ravel()
        centers = grid.centers()
        world = ego_pose_at(scene, 0.0).apply(centers)
        exact = occupancy_oracle(scene, world, 0.6)
        free = labels == LABEL_FREE
        occ = labels == LABEL_OCCUPIED
        assert free.sum() > 1000 and occ.sum() > 100
        assert not np.any(free & exact)  # no free label is oracle-occupied
        diag = grid.step * math.sqrt(3.0)
        # occupied labels: surface within a voxel diagonal (ground at z=0)
        assert np.all(centers[occ][:, 2] <= diag)
        known = free.sum() + occ.sum()
        assert (free.sum() + np.sum(centers[occ][:, 2] <= diag)) / known >= 0.99

    def test_one_box_test_feeds_both_label_sets(self, tmp_path, monkeypatch):
        # a scene file whose first box reaches 0.5 m below the ground: there
        # "above ground and exactly occupied" is not the box mask, so the
        # shared box test must give the exact labels of occupancy_oracle and
        # the ray labels of the scalar labeller, each whole
        import occ4d.evaluation as evaluation
        from occ4d.field import FieldConfig
        from occ4d.scene import load_scene_json, save_scene_json

        boxes = [Box([3.0, 0.5, 0.2], [1.0, 0.8, 0.7], [0.0, 0.0, 0.0]), Box([-4.0, -2.0, 0.9], [0.8, 0.6, 0.9], [1.5, 0.5, 0.0])]
        save_scene_json(tiny_scene(boxes), tmp_path / "scene.json")
        scene = load_scene_json(tmp_path / "scene.json")
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = init_params(cfg, seed=4, mode=MODE_FIT_PER_SCENE)
        z_grid = np.random.default_rng(4).normal(size=fp.params["grid.z"].shape).astype(np.float32)
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(-0.8, 2.0), step=0.4, times=(0.6, 1.2))
        t0 = -0.5
        seen = {}
        real_ranked, real_counts = evaluation._ranked, evaluation._label_counts

        def ranked(scores, labels):  # eval's one sort takes every exact label
            seen.setdefault("exact", np.array(labels))
            return real_ranked(scores, labels)

        def counts(ray):  # its first count takes every ray label
            seen.setdefault("ray", np.array(ray))
            return real_counts(ray)

        monkeypatch.setattr(evaluation, "_ranked", ranked)
        monkeypatch.setattr(evaluation, "_label_counts", counts)
        eval_4d_occupancy(fp, [scene], grid, t0, [z_grid], raytrace=True)

        to_world = ego_pose_at(scene, t0)
        world = to_world.apply(grid.centers())
        below = world[:, 2] <= scene.ground_z
        exact = np.stack([occupancy_oracle(scene, world, t0 + t) for t in grid.times])
        in_boxes = np.stack([boxes_contain(scene, world, t0 + t) for t in grid.times])
        assert np.any(in_boxes & below) and not np.array_equal(exact & ~below, in_boxes)
        assert np.array_equal(seen["exact"].reshape(exact.shape), exact)
        scans = [
            cast_lidar_scan(scene, lidar_pose_at(scene, t0 + t), scene.rig.lidar_pattern, t0 + t)
            .transformed(inverse(to_world))
            .time_shifted(-t0)
            for t in grid.times
        ]
        ray = label_by_raytrace_scalar(scans, grid, scene=scene, to_world=to_world, t0=t0)
        assert np.array_equal(seen["ray"].reshape(ray.shape), ray)
        assert np.all(ray.reshape(exact.shape)[in_boxes & below] == LABEL_OCCUPIED)

    def test_multi_scene_per_time_rows_are_slices(self):
        # two scenes with different grids at two times: each per-time row is
        # the metric of that time's probes of scene 0 then scene 1, labelled
        # and scored here one scene at a time
        from occ4d.field import FieldConfig

        rng = np.random.default_rng(3)
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = init_params(cfg, seed=2, mode=MODE_FIT_PER_SCENE)
        scenes = [random_scene(seed=32), random_scene(seed=33)]
        z_grids = [rng.normal(size=fp.params["grid.z"].shape) for _ in scenes]
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=0.5, times=(0.6, 1.2))
        t0 = -0.5
        report = eval_4d_occupancy(fp, scenes, grid, t0, z_grids, raytrace=True)

        centers = grid.centers()
        per_scene = []
        for scene, z_grid in zip(scenes, z_grids):
            to_world = ego_pose_at(scene, t0)
            scans = [
                cast_lidar_scan(scene, lidar_pose_at(scene, t0 + t), scene.rig.lidar_pattern, t0 + t)
                .transformed(inverse(to_world))
                .time_shifted(-t0)
                for t in grid.times
            ]
            ray = raytrace_with_boxes(scans, grid, scene, to_world, t0).reshape(len(grid.times), -1)
            per_scene.append([
                (
                    sigmoid(query_head(fp, z_grid, "occ", centers, np.full(len(centers), t))[:, 0]),
                    occupancy_oracle(scene, to_world.apply(centers), t0 + t),
                    ray[ti],
                )
                for ti, t in enumerate(grid.times)
            ])
        assert len(report["per_time_breakdown"]) == len(grid.times)
        for ti, row in enumerate(report["per_time_breakdown"]):
            sc, ex, rl = (np.concatenate(parts) for parts in zip(*(slices[ti] for slices in per_scene)))
            assert row["r_at_p70_exact"] == recall_at_precision(sc, ex, 0.7)[0]
            assert row["ap_occ_exact"] == average_precision(sc, ex)
            known = rl != LABEL_UNKNOWN
            assert row["r_at_p70"] == recall_at_precision(sc[known], rl[known], 0.7)[0]
            counts = row["probe_counts"]
            assert counts == {k: int(np.sum(rl == v)) for k, v in (("free", LABEL_FREE), ("occupied", LABEL_OCCUPIED), ("unknown", LABEL_UNKNOWN))}
            assert sum(counts.values()) == 2 * len(centers)

    @pytest.mark.parametrize("mode", [MODE_FIT_PER_SCENE, MODE_AMORTIZED])
    def test_scene_grid_is_float32(self, mode):
        # the training dtype: the fit-per-scene grid's float32 values come
        # back unrounded, and the amortized grid is encoded in float32
        from occ4d.field import FieldConfig

        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = init_params(cfg, seed=2, mode=mode)
        scene = random_scene(seed=34)
        if mode == MODE_FIT_PER_SCENE:
            fp.params["grid.z"][:] = np.random.default_rng(2).normal(size=fp.params["grid.z"].shape).astype(np.float32)
        z_grid = scene_grid_for(fp, scene)
        assert z_grid.dtype == np.float32
        if mode == MODE_FIT_PER_SCENE:
            assert np.array_equal(z_grid, fp.params["grid.z"])
        else:
            scans = [cast_lidar_scan(scene, lidar_pose_at(scene, t), scene.rig.lidar_pattern, t) for t in PAST_OFFSETS]
            enc = past_encoder_input(scans, inverse(ego_pose_at(scene, 0.0)), 0.0, 0.0)
            assert np.array_equal(z_grid, encode(fp.astype(np.float32), enc))
            assert np.abs(z_grid - encode(fp, enc)).max() < 1e-5

    def test_float32_grids_score_as_query_head(self):
        # eval on float32 grids: each per-time row and the whole-set metrics
        # are those of query_head's float32 scores on the same grids
        from occ4d.field import FieldConfig

        rng = np.random.default_rng(4)
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        fp = init_params(cfg, seed=3, mode=MODE_FIT_PER_SCENE)
        scenes = [random_scene(seed=35), random_scene(seed=36)]
        z_grids = [rng.normal(size=fp.params["grid.z"].shape).astype(np.float32) for _ in scenes]
        grid = EvalGrid(x=(-8, 8), y=(-8, 8), z=(0.0, 2.0), step=0.5, times=(0.6, 1.2))
        t0 = -0.5
        report = eval_4d_occupancy(fp, scenes, grid, t0, z_grids, raytrace=False)

        centers = grid.centers()
        sc, ex = np.zeros((2, len(scenes), len(grid.times), len(centers)))
        for si, (scene, z_grid) in enumerate(zip(scenes, z_grids)):
            for ti, t in enumerate(grid.times):
                logits = query_head(fp, z_grid, "occ", centers, np.full(len(centers), t))[:, 0]
                assert logits.dtype == np.float32
                sc[si, ti] = sigmoid(logits.astype(np.float64))
                ex[si, ti] = occupancy_oracle(scene, ego_pose_at(scene, t0).apply(centers), t0 + t)
        assert report["ap_occ_exact"] == average_precision(sc.ravel(), ex.ravel())
        assert report["r_at_p70_exact"] == recall_at_precision(sc.ravel(), ex.ravel(), 0.7)[0]
        for ti, row in enumerate(report["per_time_breakdown"]):
            assert row["ap_occ_exact"] == average_precision(sc[:, ti].ravel(), ex[:, ti].ravel())
            assert row["r_at_p70_exact"] == recall_at_precision(sc[:, ti].ravel(), ex[:, ti].ravel(), 0.7)[0]

    def test_ego_eval_untrained_near_base_rate(self):
        from occ4d.field import FieldConfig

        scenes = [random_scene(seed=40 + i) for i in range(3)]
        cfg = FieldConfig(x_range=(-8.0, 8.0), y_range=(-8.0, 8.0), cell=0.5, channels=4, head_hidden=8, d_feat=3, n_freqs=2)
        sampler = SamplerConfig(roi=SamplerConfig().roi)
        aps, bases = [], []
        for seed in range(10):
            fp = init_params(cfg, seed=seed, mode=MODE_FIT_PER_SCENE)
            fp.params["grid.z"][:] = np.random.default_rng(seed).normal(size=fp.params["grid.z"].shape) * 1e-3
            out = eval_ego_path(fp, scenes, sampler, 0.0, 0.5, [scene_grid_for(fp, s) for s in scenes])
            aps.append(out["ap_ego"])
            bases.append(out["ego_base_rate"])
        assert abs(np.mean(aps) - np.mean(bases)) < 0.05

    def test_pgm_writer(self, tmp_path):
        raster = np.linspace(0, 1, 12).reshape(3, 4)
        p = tmp_path / "r.pgm"
        write_pgm(raster, p)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n4 3\n255\n")
        assert len(raw) == len(b"P5\n4 3\n255\n") + 12
