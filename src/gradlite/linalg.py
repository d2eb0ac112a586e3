"""Dense float64 vectors/matrices and the truncated-SVD kernel.

Values are plain numpy arrays validated at the boundaries (`as_matrix`).
`matvec` and `matvec_t` accumulate in a pinned order
(ascending reduction index, starting from 0.0, no pairwise or compensated
summation) so their results are bit-identical to a scalar double loop and
reproducible across runs.  They pin the order with whole-array numpy
operations: the elementwise products are formed in a C-ordered array whose
outer axis is the reduction index, and that axis is reduced, which numpy
does one row at a time.  numpy sums pairwise only along a contiguous inner
axis, so the C order matters for Fortran-ordered or strided inputs, and a
single-column product, which numpy would reduce as one contiguous run, is
summed with a sequential cumsum instead.  Everything here is pure; nothing
mutates its inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimError, NumError, RankError
from .rng import SplitMix64, derive_seed

# Oversampling columns for the randomized range sketch.
OVERSAMPLE = 5
_SKETCH_SALT = 0x5EED_57E7C4


class SvdResult(NamedTuple):
    """Leading-k factors: u (m x k), s (k, nonincreasing), v (d x k)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NumError(f"{name} contains non-finite entries")
    return arr


def _pinned_row_sum(p: np.ndarray) -> np.ndarray:
    """0.0 + p[0] + p[1] + ..., row by row, for a C-ordered 2-d p."""
    if p.shape[1] == 1:
        # + 0.0 turns an all-(-0.0) sum into +0.0, as the loop's 0.0 start does.
        return np.cumsum(p[:, 0])[-1:] + 0.0
    return np.add.reduce(p, axis=0, initial=0.0)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x with the summation over columns in ascending index order.

    The products a[:, j] * x[j] go into a C-ordered (d, m) array, one row
    per column of a, and its rows are summed in order (see the module doc).
    """
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimError(f"matvec: {a.shape} @ {x.shape}")
    return _pinned_row_sum(np.multiply(a.T, x[:, None], order="C", dtype=np.float64))


def matvec_t(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a.T @ y summed over rows in ascending index order (row-major walk).

    The products a[i] * y[i] go into a C-ordered (m, d) array and its rows
    are summed in order (see the module doc).
    """
    if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.shape[0]:
        raise DimError(f"matvec_t: {a.shape}.T @ {y.shape}")
    return _pinned_row_sum(np.multiply(a, y[:, None], order="C", dtype=np.float64))


def frob_residual(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of a - u @ v.T (v carries any singular-value scaling)."""
    if u.ndim != 2 or v.ndim != 2 or a.shape != (u.shape[0], v.shape[0]) \
            or u.shape[1] != v.shape[1]:
        raise DimError(f"frob_residual: a {a.shape}, u {u.shape}, v {v.shape}")
    diff = a - u @ v.T
    return float(np.sqrt(np.sum(diff * diff)))


def truncated_svd(a, k: int, iters: int = 4, seed: int = 0) -> SvdResult:
    """Leading-k SVD by randomized subspace iteration.

    Gaussian sketch with OVERSAMPLE extra columns, `iters` orthonormalized
    power steps, then an exact SVD of the small projected matrix.  The
    output is deterministic in (a, k, iters, seed); each (u_j, v_j) pair is
    flipped so the largest-magnitude entry of u_j is positive.
    """
    a = as_matrix(a)
    m, d = a.shape
    if not 1 <= k <= min(m, d):
        raise RankError(f"rank {k} outside 1..{min(m, d)} for shape {a.shape}")
    if iters < 1:
        raise ValueError("iters must be >= 1")

    width = min(k + OVERSAMPLE, min(m, d))
    stream = SplitMix64(derive_seed(seed, _SKETCH_SALT))
    omega = stream.normal_matrix(d, width)
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(iters):
        z, _ = np.linalg.qr(a.T @ q)
        q, _ = np.linalg.qr(a @ z)
    b = q.T @ a
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ ub[:, :k]
    v = vt[:k].T.copy()
    s = s[:k].copy()
    for j in range(k):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return SvdResult(u, s, v)
