"""Principal-component reduction of raw feature vectors.

The fit takes the eigendecomposition of the sample covariance from LAPACK's
symmetric solver (``np.linalg.eigh``) and fixes each component's sign, so it
is deterministic given the samples and their order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifact


class RankDeficiencyError(ValueError):
    def __init__(self, achieved_rank: int, requested: int):
        self.achieved_rank = achieved_rank
        super().__init__(
            f"sample covariance has rank {achieved_rank}, cannot extract {requested} components"
        )


@dataclass(frozen=True)
class PcaModel:
    """Mean + top-d orthonormal component rows + their variances."""

    mean: np.ndarray
    components: np.ndarray          # (d, D_raw), rows orthonormal
    explained_variance: np.ndarray  # (d,), non-increasing

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "components", np.asarray(self.components, dtype=np.float64))
        object.__setattr__(self, "explained_variance", np.asarray(self.explained_variance, dtype=np.float64))
        gram = self.components @ self.components.T
        if np.abs(gram - np.eye(self.d)).max() > 1e-9:
            raise ValueError("component rows must be orthonormal")
        ev = self.explained_variance
        if np.any(ev < -1e-12) or np.any(np.diff(ev) > 1e-12):
            raise ValueError("explained_variance must be non-negative and non-increasing")

    @property
    def d(self) -> int:
        return self.components.shape[0]

    @property
    def d_raw(self) -> int:
        return self.components.shape[1]


def fit_pca(samples: np.ndarray, d: int) -> PcaModel:
    """Fit the top-d components of the sample covariance.

    Rows are sign-normalized so that each component's largest-magnitude
    entry is positive, which makes the fit deterministic given sample order.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be a 2-D array (n, D_raw)")
    n, d_raw = x.shape
    if n <= d:
        raise ValueError(f"need more than d={d} samples, got {n}")
    if d_raw < d:
        raise ValueError(f"d={d} exceeds raw dimension {d_raw}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = np.maximum(eigvals[::-1], 0.0), eigvecs[:, ::-1]
    rank = int(np.sum(eigvals > max(eigvals[0], 1e-300) * 1e-12))
    if rank < d:
        raise RankDeficiencyError(rank, d)
    comps = eigvecs[:, :d].T.copy()
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=comps, explained_variance=eigvals[:d])


def project(model: PcaModel, v: np.ndarray) -> np.ndarray:
    """components @ (v - mean); accepts a single vector or a batch."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != model.d_raw:
        raise ValueError(f"expected last dimension {model.d_raw}, got {v.shape[-1]}")
    return (v - model.mean) @ model.components.T


def save_pca(model: PcaModel, path) -> None:
    artifact.save(
        path, "pca", {},
        mean=np.asarray(model.mean, "<f8"),
        components=np.asarray(model.components, "<f8"),
        explained_variance=np.asarray(model.explained_variance, "<f8"),
    )


def load_pca(path) -> PcaModel:
    _, a = artifact.load(path, "pca")
    return PcaModel(mean=a["mean"], components=a["components"], explained_variance=a["explained_variance"])
