"""Hand-worked cases for the benchmark's reference computations.

Run with: python3 -m pytest bench/test_oracle.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
from checks import grid_centers

BOX = {"center": [5.0, 0.0, 1.0], "half_extents": [1.0, 1.0, 1.0], "velocity": [0.0, 0.0, 0.0], "yaw": 0.0}
SCENE = {"ground_z": 0.0, "boxes": [BOX]}


def test_ray_hits_near_face_of_box():
    assert oracle.ray_hit(SCENE, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 0.0, 40.0) == (4.0, 0)


def test_ray_hit_follows_box_yaw_and_motion():
    # half extents (2, 1): turned by 90 degrees the box spans x in [4, 6]
    box = dict(BOX, half_extents=[2.0, 1.0, 1.0], yaw=math.pi / 2)
    r, kind = oracle.ray_hit({"ground_z": 0.0, "boxes": [box]}, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 0.0, 40.0)
    assert kind == 0 and r == pytest.approx(4.0, abs=1e-12)
    moving = dict(BOX, velocity=[1.0, 0.0, 0.0])  # at t = 2 the center is at x = 7
    assert oracle.ray_hit({"ground_z": 0.0, "boxes": [moving]}, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 2.0, 40.0) == (6.0, 0)


def test_ray_from_inside_a_box_hits_its_far_face():
    assert oracle.ray_hit(SCENE, [5.0, 0.0, 1.0], [1.0, 0.0, 0.0], 0.0, 40.0) == (1.0, 0)


def test_ray_hits_ground_misses_sky_and_respects_max_range():
    d = [math.sqrt(0.5), 0.0, -math.sqrt(0.5)]
    r, kind = oracle.ray_hit(SCENE, [0.0, 3.0, 2.0], d, 0.0, 40.0)
    assert kind == oracle.GROUND and r == pytest.approx(2.0 * math.sqrt(2.0))
    assert oracle.ray_hit(SCENE, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 0.0, 40.0) == (math.inf, oracle.MISS)
    assert oracle.ray_hit(SCENE, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 0.0, 3.5) == (math.inf, oracle.MISS)


def test_solid_depth_inside_outside_and_below_ground():
    pts = np.array([[5.0, 0.0, 1.0], [6.5, 0.0, 1.0], [5.0, 0.0, 2.0], [0.0, 0.0, -0.25], [0.0, 0.0, 0.5]])
    depth = oracle.solid_depth(SCENE, pts, 0.0)
    assert depth.tolist() == [1.0, -0.5, 0.0, 0.25, -0.5]


def test_ego_pose_interpolates_yaw_the_short_way_round():
    scene = {"ego_track": [
        {"t": 1.0, "position": [2.0, 2.0, 0.0], "yaw": -3.0},
        {"t": 0.0, "position": [0.0, 0.0, 0.0], "yaw": 3.0},
    ]}
    yaw, pos = oracle.ego_pose(scene, 0.5)
    assert yaw == pytest.approx(3.0 + (2.0 * math.pi - 6.0) / 2.0)  # through pi, not through 0
    assert pos == [1.0, 1.0, 0.0]
    assert oracle.ego_path(scene, 0.25, 1.0) == [[0.5, 0.5, 0.0], [2.0, 2.0, 0.0]]
    with pytest.raises(ValueError):
        oracle.ego_pose(scene, 1.5)


def test_tube_distance_to_a_polyline():
    path = [[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 10.0, 0.0]]
    assert oracle.tube_distance(path, (5.0, 3.0)) == 3.0
    assert oracle.tube_distance(path, (-4.0, 3.0)) == 5.0
    assert oracle.tube_distance(path, (13.0, 4.0)) == 3.0
    assert oracle.tube_distance(path[:1], (3.0, 4.0)) == 5.0


def test_average_precision_by_hand():
    # ranks 1..4: hit, miss, hit, miss -> 0.5 * 1 + 0.5 * 2/3
    assert oracle.average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(5.0 / 6.0, abs=1e-15)
    # tied top scores count as one threshold: 0.5 * 1/2 + 0.5 * 2/3
    assert oracle.average_precision([0.9, 0.1, 0.9], [1, 1, 0]) == pytest.approx(7.0 / 12.0, abs=1e-15)
    with pytest.raises(ValueError):
        oracle.average_precision([0.5, 0.4], [0, 0])


def test_central_difference_of_a_cubic():
    # (f(x+h) - f(x-h)) / 2h = 3x^2 + h^2 for f = x^3
    assert oracle.central_difference(lambda x: x ** 3, 2.0, 1e-3) == pytest.approx(12.000001, abs=1e-9)


def test_grid_centers_match_the_lattice_definition():
    centers, shape = grid_centers({"x": [-1.0, 1.0], "y": [0.0, 1.0], "z": [0.0, 0.5], "step": 0.5})
    assert shape == (1, 2, 4)
    assert centers[:4, 0].tolist() == [-0.75, -0.25, 0.25, 0.75]
    assert centers[4:, 1].tolist() == [0.75] * 4
    assert np.all(centers[:, 2] == 0.25)


def test_tracer_wraps_every_binding_of_a_function():
    """cli and evaluation import cast_lidar_scan by name; both bindings are wrapped."""
    here = Path(__file__).resolve().parent
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import json, tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "from occ4d import evaluation, scene\n"
        "evaluation.average_precision([0.9, 0.1], [1, 0])\n"
        "print(json.dumps(t.summary()))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(here), str(here.parent / "src")],
                         capture_output=True, text=True, check=True).stdout
    summary = json.loads(out)
    assert set(summary["bindings"]["scene.cast_lidar_scan"]) >= {
        "scene.cast_lidar_scan", "cli.cast_lidar_scan", "evaluation.cast_lidar_scan"}
    assert "evaluation.encode" in summary["bindings"]["field.encode"]
    assert summary["calls"]["evaluation.average_precision"] == 1
    assert summary["calls"]["evaluation.recall_at_precision"] == 0
