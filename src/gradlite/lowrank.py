"""Low-rank factor pairs standing in for the full Jacobian.

A factor, built from the whole J by one `factorize` call, holds every
block's u (m x k, orthonormal columns) side by side and their v (d_b x k,
singular values folded in) block-diagonal, so the approximate gradient of
every block is the one two-matvec pipeline v @ (u.T @ delta), with no
m x d product ever materialized.  An svd-mode factor is the exact top-k SVD
of each block, so it depends on J alone, and it keeps each block's Gram
eigendecomposition, from which a factor of the same J at another rank is
built with one QR per block.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DimError, RankError
from .linalg import _gram_svd, _lead_flips, as_matrix, matvec, matvec_t
from .rng import SplitMix64, derive_seed

BASIS_MODES = ("svd", "random-projection")
_BASIS_SALT = 0xBA515_0001


@dataclass(frozen=True)
class LowRankFactor:
    u: np.ndarray  # m x kB, orthonormal columns within each block
    v: np.ndarray  # d x kB, singular values folded in; block-diagonal
    # The J it was built from, held weakly: a refresh handed this same
    # read-only array again keeps the factor, which keeps no old J alive.
    source: weakref.ref | None = None
    # svd mode: each block's `SvdResult.gram_vecs`.
    gram_vecs: tuple[np.ndarray, ...] | None = None


def static_basis(m: int, k: int, seed: int) -> np.ndarray:
    """Orthonormalized seeded Gaussian basis, independent of any data."""
    stream = SplitMix64(derive_seed(seed, _BASIS_SALT))
    q, _ = np.linalg.qr(stream.normal_matrix(m, k))
    return q[:, :k]


def _block_bounds(shape, widths, k: int) -> list[tuple[int, int]]:
    """Each column block's (lo, hi), checked to tile the columns and admit rank k (None: one)."""
    m, d = shape
    bounds, lo = [], 0
    for width in (d,) if widths is None else widths:
        if not 1 <= k <= min(m, width):
            raise RankError(f"rank {k} outside 1..{min(m, width)} for a {m} x {width} block")
        bounds.append((lo, lo + width))
        lo += width
    if lo != d:
        raise DimError(f"block widths {widths} do not tile {d} columns")
    return bounds


def factorize(j, k: int, mode: str, seed: int, widths=None,
              gram_vecs: tuple[np.ndarray, ...] | None = None) -> LowRankFactor:
    """Build the rank-k factor of each column block of j (`widths`, left
    to right; one block by default), packed into one.

    `mode` is one of BASIS_MODES.  svd mode runs `linalg.truncated_svd`'s
    calls on each block, straight into the packed u and v, then its sign
    fix once over the packed columns (a column of u has every row) with s
    folded into v in the same product; a multiply by +-1 is exact, so each
    block's part has the bits of the block's own `truncated_svd` factor,
    which depends on j alone, not on the seed.  random-projection gives
    every block the same u, fixed by the seed alone (the same basis at every
    refresh), and sets the block's v = j_b.T @ u.  The factor holds j
    weakly as its `source`; its u and v are read-only, because one factor
    may serve several runs (see `optimizers.init_gradlite_state`).  An svd
    factor keeps each block's Gram eigenvectors; passed back as `gram_vecs`
    with the same j and widths, they spare the eighs and give the same bits.
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}")
    a = as_matrix(j, "j")
    m, d = a.shape
    bounds = _block_bounds(a.shape, widths, k)
    cols = [slice(i * k, i * k + k) for i in range(len(bounds))]
    u = np.empty((m, k * len(bounds)))
    if mode == "svd":
        parts = []
        for (lo, hi), c, vecs in zip(bounds, cols, gram_vecs or [None] * len(bounds),
                                     strict=True):
            block = a[:, lo:hi]
            w, x, s, vecs = _gram_svd(block if m <= hi - lo else block.T, k, vecs)
            u[:, c], right = (w, x) if m <= hi - lo else (x, w)
            parts.append((right, s, vecs))
        flip = _lead_flips(u)
        u *= flip
        rights = (right * (flip[c] * s) for c, (right, s, _) in zip(cols, parts))
        gram_vecs = gram_vecs or tuple(vecs for _, _, vecs in parts)
    else:
        basis = static_basis(m, k, seed)
        # A block's v is its rows of j.T @ basis; each column of that is
        # summed over j's rows alone, so the whole j gives every block's bits.
        full = np.array([matvec_t(a, basis[:, c]) for c in range(k)]).T
        u[:] = np.tile(basis, len(bounds))
        rights = (full[lo:hi] for lo, hi in bounds)
        gram_vecs = None
    # v is Fortran-ordered, so the lift's `matvec` reads v.T in place; it
    # is made after the blocks' SVDs, which need their own scratch memory.
    v = np.zeros((d, u.shape[1]), order="F")
    for (lo, hi), c, right in zip(bounds, cols, rights):
        v[lo:hi, c] = right
    u.flags.writeable = v.flags.writeable = False
    return LowRankFactor(u=u, v=v, source=weakref.ref(a), gram_vecs=gram_vecs)


def projected_signal(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """delta' = u.T @ delta, the k-dimensional compressed error signal."""
    return matvec_t(factor.u, delta)


def approx_gradient(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """g~ = v @ (u.T @ delta), always through the k-length intermediate."""
    return matvec(factor.v, projected_signal(factor, delta))
