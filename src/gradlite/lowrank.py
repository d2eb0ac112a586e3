"""Low-rank factor pairs standing in for the full Jacobian.

A factor holds u (m x k, orthonormal columns) and v (d x k, singular
values folded in), so the approximate gradient is the two-matvec pipeline
v @ (u.T @ delta) with a k-length intermediate and no m x d product ever
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError
from .linalg import as_matrix, matvec, matvec_t, truncated_svd
from .rng import SplitMix64, derive_seed

SVD_ITERS = 4
BASIS_MODES = ("svd", "random-projection")
_BASIS_SALT = 0xBA515_0001
_REFRESH_SALT = 0x5FD_2002


@dataclass(frozen=True)
class LowRankFactor:
    u: np.ndarray  # m x k, orthonormal columns
    v: np.ndarray  # d x k, singular values folded in
    birth_step: int


def static_basis(m: int, k: int, seed: int) -> np.ndarray:
    """Orthonormalized seeded Gaussian basis, independent of any data."""
    stream = SplitMix64(derive_seed(seed, _BASIS_SALT))
    q, _ = np.linalg.qr(stream.normal_matrix(m, k))
    return q[:, :k]


def factorize(j, k: int, mode: str, step: int, seed: int) -> LowRankFactor:
    """Build a rank-k factor of j at the given step.

    `mode` is one of BASIS_MODES.  svd mode adapts both sides to j;
    random-projection keeps u fixed by the seed alone (the same basis at
    every refresh) and sets v = j.T @ u.
    """
    j = as_matrix(j, "j")
    m, d = j.shape
    if not 1 <= k <= min(m, d):
        raise RankError(f"rank {k} outside 1..{min(m, d)} for shape {j.shape}")
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}")
    if mode == "svd":
        res = truncated_svd(j, k, iters=SVD_ITERS,
                            seed=derive_seed(derive_seed(seed, _REFRESH_SALT), step))
        u, v = res.u, res.v * res.s[None, :]
    else:
        u = static_basis(m, k, seed)
        v = np.column_stack([matvec_t(j, u[:, c]) for c in range(k)])
    return LowRankFactor(u=u, v=v, birth_step=step)


def projected_signal(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """delta' = u.T @ delta, the k-dimensional compressed error signal."""
    return matvec_t(factor.u, delta)


def approx_gradient(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """g~ = v @ (u.T @ delta), always through the k-length intermediate."""
    return matvec(factor.v, projected_signal(factor, delta))
