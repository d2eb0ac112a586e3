"""Low-rank factor pairs standing in for the full Jacobian.

A factor holds u (m x k, orthonormal columns) and v (d x k, singular
values folded in), so the approximate gradient is the two-matvec pipeline
v @ (u.T @ delta) with a k-length intermediate and no m x d product ever
materialized.  An svd-mode factor is the exact top-k SVD of the Jacobian
(`linalg.truncated_svd`), so it depends on the Jacobian alone, and it keeps
the Jacobian's Gram eigendecomposition, from which a factor of the same
Jacobian at another rank is built with one QR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError
from .linalg import as_matrix, matvec, matvec_t, truncated_svd
from .rng import SplitMix64, derive_seed

BASIS_MODES = ("svd", "random-projection")
_BASIS_SALT = 0xBA515_0001


@dataclass(frozen=True)
class LowRankFactor:
    u: np.ndarray  # m x k, orthonormal columns
    v: np.ndarray  # d x k, singular values folded in
    # The J it was built from, held by reference: a refresh that is handed
    # this same read-only array again keeps the factor.
    source: np.ndarray | None = None
    # svd mode: every eigenvector of source's smaller Gram (`SvdResult.gram_vecs`).
    gram_vecs: np.ndarray | None = None


def static_basis(m: int, k: int, seed: int) -> np.ndarray:
    """Orthonormalized seeded Gaussian basis, independent of any data."""
    stream = SplitMix64(derive_seed(seed, _BASIS_SALT))
    q, _ = np.linalg.qr(stream.normal_matrix(m, k))
    return q[:, :k]


def factorize(j, k: int, mode: str, seed: int,
              gram_vecs: np.ndarray | None = None) -> LowRankFactor:
    """Build a rank-k factor of j.

    `mode` is one of BASIS_MODES.  svd mode takes both sides from the exact
    top-k SVD of j, so its factor depends on j alone, not on the seed;
    random-projection keeps u fixed by the seed alone (the same basis at
    every refresh) and sets v = j.T @ u.  The factor keeps a reference to
    the given j as its `source`.  Its u and v are read-only, because one
    factor may serve several runs (see `optimizers.init_gradlite_state`).
    An svd factor also keeps j's Gram eigenvectors; passed back as
    `gram_vecs` with the same j, they spare the eigh and give the same bits
    (random projection ignores them).
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}")
    # v is Fortran-ordered, so the lift's `matvec` reads v.T in place.
    if mode == "svd":
        res = truncated_svd(j, k, gram_vecs)  # checks j and k once
        u, v = res.u, np.multiply(res.v, res.s[None, :], order="F")
        gram_vecs = res.gram_vecs
    else:
        a = as_matrix(j, "j")
        m, d = a.shape
        if not 1 <= k <= min(m, d):
            raise RankError(f"rank {k} outside 1..{min(m, d)} for shape {a.shape}")
        u = static_basis(m, k, seed)
        v = np.array([matvec_t(a, u[:, c]) for c in range(k)]).T
        gram_vecs = None
    u.flags.writeable = v.flags.writeable = False
    return LowRankFactor(u=u, v=v, source=j, gram_vecs=gram_vecs)


def projected_signal(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """delta' = u.T @ delta, the k-dimensional compressed error signal."""
    return matvec_t(factor.u, delta)


def approx_gradient(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """g~ = v @ (u.T @ delta), always through the k-length intermediate."""
    return matvec(factor.v, projected_signal(factor, delta))
