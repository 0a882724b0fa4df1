import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ4d.pca import PcaModel, RankDeficiencyError, fit_pca, load_pca, project, save_pca

from oracles import reconstruct


class TestFitPca:
    def test_line_y_equals_x(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=500)
        pts = np.stack([t, t], axis=1)
        model = fit_pca(pts, 1)
        np.testing.assert_allclose(np.abs(model.components[0]), [1 / np.sqrt(2)] * 2, atol=1e-6)
        assert model.components[0][np.argmax(np.abs(model.components[0]))] > 0

    def test_isotropic_cloud_variances_close(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(10_000, 4))
        model = fit_pca(pts, 4)
        ev = model.explained_variance
        assert ev.max() / ev.min() < 1.1

    def test_residual_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(64, 64)) * np.linspace(2.0, 0.05, 64)[None, :]
        pts = rng.normal(size=(2000, 64)) @ base
        for d in (8, 16, 32):
            model = fit_pca(pts, d)
            centered = pts - pts.mean(axis=0)
            proj = project(model, pts)
            recon = reconstruct(model, proj)
            residual = np.sum((pts - recon) ** 2) / (len(pts) - 1)
            # oracle: tail eigenvalue mass of the dense decomposition
            cov = centered.T @ centered / (len(pts) - 1)
            tail = np.sort(np.linalg.eigvalsh(cov))[::-1][d:].sum()
            assert abs(residual - tail) <= 1e-8 * max(1.0, tail)

    def test_rank_deficiency_error_names_rank(self):
        rng = np.random.default_rng(4)
        t = rng.normal(size=(200, 2))
        pts = np.concatenate([t, t @ rng.normal(size=(2, 3))], axis=1)  # rank 2 in 5-D
        with pytest.raises(RankDeficiencyError) as e:
            fit_pca(pts, 4)
        assert e.value.achieved_rank == 2

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((3, 8)), 4)

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 8))
        a = fit_pca(pts, 3)
        b = fit_pca(pts, 3)
        np.testing.assert_array_equal(a.components, b.components)


class TestProject:
    def _model(self):
        rng = np.random.default_rng(6)
        return fit_pca(rng.normal(size=(500, 12)) * np.linspace(3, 0.1, 12), 4)

    def test_mean_projects_to_zero(self):
        model = self._model()
        np.testing.assert_allclose(project(model, model.mean), 0.0, atol=1e-12)

    def test_eigen_direction(self):
        model = self._model()
        v = model.mean + 2.5 * model.components[0]
        out = project(model, v)
        np.testing.assert_allclose(out, [2.5, 0, 0, 0], atol=1e-9)

    def test_project_reconstruct_idempotent(self):
        model = self._model()
        rng = np.random.default_rng(7)
        v = rng.normal(size=12)
        once = project(model, v)
        twice = project(model, reconstruct(model, once))
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ValueError):
            project(model, np.zeros(5))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 10), st.integers(1, 3))
def test_orthonormality_property(seed, d_raw, d):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(50 + 10 * d_raw, d_raw))
    model = fit_pca(pts, d)
    gram = model.components @ model.components.T
    assert np.abs(gram - np.eye(d)).max() <= 1e-9
    assert np.all(np.diff(model.explained_variance) <= 1e-12)
    for row in model.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    model = fit_pca(rng.normal(size=(400, 10)), 4)
    p = tmp_path / "pca.bin"
    save_pca(model, p)
    back = load_pca(p)
    np.testing.assert_array_equal(back.mean, model.mean)
    np.testing.assert_array_equal(back.components, model.components)
    np.testing.assert_array_equal(back.explained_variance, model.explained_variance)
