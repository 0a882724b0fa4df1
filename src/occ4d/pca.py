"""Principal-component reduction of raw feature vectors.

The eigendecomposition is a cyclic Jacobi sweep over the covariance matrix
(vectorized row/column rotations), which keeps the fit deterministic and
dependency-free; tests check it against a dense eigensolver oracle.
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


def jacobi_eigh(a: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) with eigenvalues in descending order
    and eigenvectors as columns.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or np.abs(a - a.T).max() > 1e-10 * max(1.0, np.abs(a).max()):
        raise ValueError("jacobi_eigh needs a symmetric square matrix")
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order]


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
    eigvals, eigvecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
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


def reconstruct(model: PcaModel, coords: np.ndarray) -> np.ndarray:
    return np.asarray(coords, dtype=np.float64) @ model.components + model.mean


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
