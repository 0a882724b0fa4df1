"""Rigid transforms, yaw rotations, and deterministic per-ray random streams.

Everything here is pure and immutable: poses validate themselves at
construction, and random streams are counter-based so that any parallel
iteration order reproduces the single-worker result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-9

_U64 = 0xFFFFFFFFFFFFFFFF


def yaw_matrix(theta: float) -> np.ndarray:
    """3x3 rotation about the z axis by ``theta`` radians."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotate_about_z(points: np.ndarray, theta: float) -> np.ndarray:
    """Rotate points (shape (3,) or (N,3)) about z by ``theta`` radians.

    Length-preserving in the x-y plane; z passes through unchanged.
    """
    pts = np.asarray(points, dtype=np.float64)
    c, s = math.cos(theta), math.sin(theta)
    out = np.empty_like(pts)
    out[..., 0] = c * pts[..., 0] - s * pts[..., 1]
    out[..., 1] = s * pts[..., 0] + c * pts[..., 1]
    out[..., 2] = pts[..., 2]
    return out


def _frozen_array(a, shape) -> np.ndarray:
    arr = np.array(a, dtype=np.float64).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Pose:
    """Rigid transform: ``x_out = rotation @ x_in + translation``.

    rotation must be orthonormal with determinant +1 (checked to 1e-9).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _frozen_array(self.rotation, (3, 3)))
        object.__setattr__(self, "translation", _frozen_array(self.translation, (3,)))
        r = self.rotation
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(self.translation)):
            raise ValueError("pose entries must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > ORTHO_TOL:
            raise ValueError(f"rotation not orthonormal (max |R^T R - I| = {err:.3g})")
        det = np.linalg.det(r)
        if abs(det - 1.0) > ORTHO_TOL:
            raise ValueError(f"rotation determinant {det} != +1")

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (3,) or (N,3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def rotate_only(self, vecs: np.ndarray) -> np.ndarray:
        """Rotate direction vectors (no translation)."""
        return np.asarray(vecs, dtype=np.float64) @ self.rotation.T

    def yaw(self) -> float:
        return math.atan2(self.rotation[1, 0], self.rotation[0, 0])


def compose(a: Pose, b: Pose) -> Pose:
    """Pose applying ``b`` first, then ``a``."""
    return Pose(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def inverse(p: Pose) -> Pose:
    rt = p.rotation.T
    return Pose(rt, -(rt @ p.translation))


@dataclass(frozen=True)
class AugmentConfig:
    """Training-sample augmentation knobs: theta is drawn uniformly from
    [theta_min, theta_max] when rotation is enabled."""

    theta_min: float = -math.radians(20.0)
    theta_max: float = math.radians(20.0)
    rotation_enabled: bool = True

    def __post_init__(self):
        if self.theta_min > self.theta_max:
            raise ValueError("theta_min must be <= theta_max")


def per_ray_rng(seed: int, ray_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based random stream keyed by (seed, stream, ray_index).

    Each key gets its own 2^64-draw Philox segment, so draws depend only on
    the key and the draw index — never on worker count or iteration order.
    """
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    counter = np.array([0, ray_index & _U64, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


# the multipliers of words 0 and 2, and the Weyl constants that bump the key each round
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


def philox_uniforms(seed: int, stream: int, keys, offsets) -> np.ndarray:
    """Draw ``offsets[i]`` of the ``per_ray_rng(seed, keys[i], stream)``
    stream, for all i at once, bit-identical to ``Generator.uniform()``.

    numpy's Philox4x64-10 is counter-based: with key ``[seed, stream]`` and
    initial counter ``[0, ray, 0, 0]`` it bumps the counter before each
    4-word block, so draw j is word ``j % 4`` of the block at counter
    ``[j // 4 + 1, ray, 0, 0]``, and the uniform is ``(word >> 11) * 2**-53``.
    Each run of consecutive entries sharing a key and a block is computed
    once, so callers should list draws in key, then draw order.

    A round maps words (w0, w1, w2, w3) to (hi(m1 w2) ^ w1 ^ k0, lo(m1 w2),
    hi(m0 w0) ^ w3 ^ k1, lo(m0 w0)): it multiplies words 0 and 2 only. So the
    state is two (2, n) arrays, ``x`` = words (0, 2) and ``y`` = words (1, 3),
    and a round is 17 whole-array operations, whatever n is. The high words
    come from 32-bit halves so that every partial sum fits in uint64
    (Hacker's Delight, mulhu). Every operation writes into one of seven
    buffers allocated once per call, so a call of tens of thousands of
    blocks does not fault in fresh pages each round; the products enter the
    next round with their rows swapped, as reversed views of those buffers.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    block = offsets // 4
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]) | (block[1:] != block[:-1])
    first = np.flatnonzero(new)
    x, y, lo, t, w, b0, b1 = np.zeros((7, 2, len(first)), dtype=np.uint64)
    x[0] = block[first].astype(np.uint64) + np.uint64(1)
    y[0] = keys[first]
    key = np.array([[seed & _U64], [stream & _U64]], dtype=np.uint64)
    for r in range(10):  # round r uses the key bumped r times by the Weyl constants
        np.multiply(_PHILOX_M, x, out=lo)
        np.bitwise_and(x, _LO32, out=b0)
        np.right_shift(x, _S32, out=b1)
        np.multiply(_M_LO, b0, out=t)
        t >>= _S32
        b0 *= _M_HI
        t += b0  # m_hi * x_lo + (m_lo * x_lo >> 32) < 2**64
        np.bitwise_and(t, _LO32, out=w)
        t >>= _S32
        w += np.multiply(_M_LO, b1, out=b0)
        w >>= _S32
        b1 *= _M_HI
        b1 += t
        b1 += w  # the high words of _PHILOX_M * x
        np.bitwise_xor(b1[::-1], y, out=x)
        x ^= key + np.uint64(r) * _PHILOX_W
        y, lo = lo[::-1], y[::-1]
    words = np.stack([x[0], y[0], x[1], y[1]])[offsets % 4, np.cumsum(new) - 1]
    return (words >> np.uint64(11)) * 2.0**-53
