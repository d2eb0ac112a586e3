"""Low-rank factor pairs standing in for the full Jacobian.

A factor, built from the whole J by one `factorize` call, holds every
block's basis u (m x k, orthonormal columns) side by side and its
v = J_b^T u_b block-diagonal, so the approximate gradient of every block
is the one two-matvec pipeline v @ (u.T @ delta) = J^T U U^T delta, with
no m x d product ever materialized.  An svd-mode basis is each block's
top-k left singular vectors, so it depends on J alone, and the factor
keeps each block's Gram eigendecomposition, from which a factor of the
same J at another rank is built with no eigh.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DimError, RankError
from .linalg import _gram_vecs, _lead_flips, _range_qr, as_matrix, matvec, matvec_t
from .rng import SplitMix64, derive_seed

BASIS_MODES = ("svd", "random-projection")
_BASIS_SALT = 0xBA515_0001


@dataclass(frozen=True)
class LowRankFactor:
    u: np.ndarray  # m x kB, orthonormal columns within each block
    v: np.ndarray  # d x kB, block-diagonal: J_b^T u_b on block b's rows and columns
    # The J it was built from, held weakly: a refresh handed this same
    # read-only array again keeps the factor, which keeps no old J alive.
    source: weakref.ref | None = None
    # svd mode: each block's Gram eigenvectors, by descending eigenvalue.
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

    `mode` is one of BASIS_MODES and picks each block's basis u_b alone;
    one product per block then gives v_b = j_b.T @ u_b, so g~ = j.T @ u @
    u.T @ delta.  svd mode's u_b is `truncated_svd(j_b, k).u`, bit for bit
    (a function of j alone): the Gram's top-k eigenvectors when the rows
    are the block's short side, else the QR of j_b @ w, w the top-k
    eigenvectors of j_b.T @ j_b, signed once over the packed u.
    random-projection gives every block the same seed-fixed u (the same at
    every refresh) and sums v by `matvec_t`.  The factor holds j weakly as
    its `source`; its u and v are read-only, so a factor handed to several
    runs (`harness.rate_sweep`) is the same for each.  An svd factor keeps
    each block's Gram eigenvectors; passed back as `gram_vecs` (one per
    block) with the same j and widths, they spare the eighs.
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}")
    a = as_matrix(j, "j")
    m, d = a.shape
    bounds = _block_bounds(a.shape, widths, k)
    cols = [slice(i * k, i * k + k) for i in range(len(bounds))]
    u = np.empty((m, k * len(bounds)))
    if mode == "svd":
        kept = [None] * len(bounds) if gram_vecs is None else list(gram_vecs)
        if len(kept) != len(bounds):
            raise DimError(f"{len(kept)} gram_vecs for {len(bounds)} blocks")
        for i, ((lo, hi), c) in enumerate(zip(bounds, cols)):
            block = a[:, lo:hi]
            short = m <= hi - lo  # the block's rows are its short side
            kept[i] = _gram_vecs(block if short else block.T, kept[i])
            u[:, c] = kept[i][:, :k] if short else _range_qr(block.T, kept[i][:, :k])[0]
        u *= _lead_flips(u)
        # u_b is copied out: gemv sums a strided one-column u_b differently.
        rights = (a[:, lo:hi].T @ np.ascontiguousarray(u[:, c])
                  for (lo, hi), c in zip(bounds, cols))
        gram_vecs = gram_vecs or tuple(kept)
    else:
        basis = static_basis(m, k, seed)
        # A block's v is its rows of j.T @ basis; each column of that is
        # summed over j's rows alone, so the whole j gives every block's bits.
        full = np.array([matvec_t(a, basis[:, c]) for c in range(k)]).T
        u[:] = np.tile(basis, len(bounds))
        rights = (full[lo:hi] for lo, hi in bounds)
        gram_vecs = None
    # v is Fortran-ordered, so the lift's `matvec` reads v.T in place; it
    # is made after the blocks' eighs, which need their own scratch memory.
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
