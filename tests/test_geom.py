import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ4d.geom import (
    AugmentConfig, Pose, compose, inverse, per_ray_rng, philox_uniforms, rotate_about_z, yaw_matrix,
)

from oracles import homogeneous, ks_statistic_uniform


def random_pose(rng):
    # QR of a random matrix gives a uniform-ish orthonormal frame
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return Pose(q, rng.normal(size=3))


class TestPose:
    def test_identity_compose(self):
        rng = np.random.default_rng(0)
        p = random_pose(rng)
        q = compose(Pose(np.eye(3), np.zeros(3)), p)
        np.testing.assert_allclose(q.rotation, p.rotation, atol=1e-12)
        np.testing.assert_allclose(q.translation, p.translation, atol=1e-12)

    def test_inverse_compose_is_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_pose(rng)
            ident = compose(p, inverse(p))
            np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
            np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)

    def test_compose_matches_homogeneous_oracle(self):
        # Rz(30)+t1 composed with Rz(60)+t2 must carry rotation Rz(90),
        # and the full pose must match the 4x4 matrix product oracle.
        a = Pose(yaw_matrix(math.radians(30.0)), (1.0, -2.0, 0.5))
        b = Pose(yaw_matrix(math.radians(60.0)), (0.3, 4.0, -1.0))
        got = compose(a, b)
        oracle = homogeneous(a.rotation, a.translation) @ homogeneous(b.rotation, b.translation)
        np.testing.assert_allclose(got.rotation, yaw_matrix(math.radians(90.0)), atol=1e-12)
        np.testing.assert_allclose(got.rotation, oracle[:3, :3], atol=1e-12)
        np.testing.assert_allclose(got.translation, oracle[:3, 3], atol=1e-12)

    def test_compose_associative(self):
        rng = np.random.default_rng(2)
        a, b, c = (random_pose(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-12)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-12)

    def test_apply_order(self):
        rng = np.random.default_rng(3)
        a, b = random_pose(rng), random_pose(rng)
        x = rng.normal(size=3)
        np.testing.assert_allclose(compose(a, b).apply(x), a.apply(b.apply(x)), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(r, np.zeros(3))


class TestRotateAboutZ:
    def test_quarter_turn(self):
        np.testing.assert_allclose(rotate_about_z(np.array([1.0, 0, 0]), math.pi / 2), [0, 1, 0], atol=1e-12)

    def test_zero_is_identity(self):
        v = np.array([3.0, -4.0, 1.5])
        np.testing.assert_array_equal(rotate_about_z(v, 0.0), v)

    def test_matches_matrix_oracle(self):
        theta = math.radians(37.0)
        v = np.array([3.0, 4.0, 1.0])
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array([c * 3.0 - s * 4.0, s * 3.0 + c * 4.0, 1.0])
        np.testing.assert_allclose(rotate_about_z(v, theta), expected, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.floats(-10.0, 10.0),
    )
    def test_round_trip_and_norm(self, v, theta):
        v = np.array(v)
        rot = rotate_about_z(v, theta)
        np.testing.assert_allclose(rotate_about_z(rot, -theta), v, atol=1e-9 * max(1.0, np.abs(v).max()))
        assert abs(np.linalg.norm(rot) - np.linalg.norm(v)) <= 1e-9 * max(1.0, np.linalg.norm(v))

    def test_batch_shape(self):
        pts = np.arange(12.0).reshape(4, 3)
        out = rotate_about_z(pts, 0.3)
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out[2], rotate_about_z(pts[2], 0.3))


class TestAugmentConfig:
    def test_defaults_match_published_regime(self):
        cfg = AugmentConfig()
        assert cfg.theta_min == -math.radians(20.0)
        assert cfg.theta_max == math.radians(20.0)
        assert cfg.jitter_tau == 1.0

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            AugmentConfig(theta_min=0.2, theta_max=0.1)
        with pytest.raises(ValueError):
            AugmentConfig(jitter_tau=0.0)


class TestPerRayRng:
    def test_reproducible(self):
        a = per_ray_rng(1234, 7).uniform(size=100)
        b = per_ray_rng(1234, 7).uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_adjacent_rays_differ(self):
        a = tuple(per_ray_rng(99, 5).uniform(size=8))
        b = tuple(per_ray_rng(99, 6).uniform(size=8))
        assert a != b

    def test_streams_differ(self):
        a = tuple(per_ray_rng(99, 5, stream=0).uniform(size=8))
        b = tuple(per_ray_rng(99, 5, stream=1).uniform(size=8))
        assert a != b

    def test_uniform_ks(self):
        draws = per_ray_rng(2024, 0).uniform(size=100_000)
        assert ks_statistic_uniform(draws) < 0.02

    def test_order_independent_draws(self):
        # interleaved consumption across rays equals per-ray consumption
        seq = {i: per_ray_rng(7, i).uniform(size=16) for i in range(4)}
        gens = {i: per_ray_rng(7, i) for i in range(4)}
        mixed = {i: [] for i in range(4)}
        for k in range(16):
            for i in (2, 0, 3, 1):
                mixed[i].append(gens[i].uniform())
        for i in range(4):
            np.testing.assert_array_equal(seq[i], np.array(mixed[i]))


U64_MAX = 2**64 - 1


class TestPhiloxUniforms:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, U64_MAX),
        purpose=st.integers(0, 2**32 - 1),
        scan=st.integers(0, 2**32 - 1),
        rays=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=3),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=4),
        skip=st.integers(0, 11),
    )
    def test_matches_per_ray_rng_draw_for_draw(self, seed, purpose, scan, rays, sizes, skip):
        # draws consumed over several uniform(size=...) calls, listed from
        # offset `skip` on, so runs start and end inside 4-word blocks
        stream = (purpose << 32) | scan
        keys, offsets, expected = [], [], []
        for ray in rays:
            gen = per_ray_rng(seed, ray, stream)
            draws = np.concatenate([gen.uniform(size=k) for k in sizes])[skip:]
            keys += [ray] * len(draws)
            offsets += range(skip, skip + len(draws))
            expected += list(draws)
        got = philox_uniforms(seed, stream, np.array(keys, dtype=np.uint64), np.array(offsets, dtype=np.int64))
        np.testing.assert_array_equal(got, np.array(expected))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, U64_MAX), ray=st.integers(0, U64_MAX), offsets=st.lists(st.integers(0, 40), max_size=12))
    def test_any_offset_order(self, seed, ray, offsets):
        draws = per_ray_rng(seed, ray, 3).uniform(size=41)
        got = philox_uniforms(seed, 3, np.full(len(offsets), ray, dtype=np.uint64), np.array(offsets, dtype=np.int64))
        np.testing.assert_array_equal(got, draws[offsets])
