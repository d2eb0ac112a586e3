"""Low-rank factor pairs standing in for the full Jacobian.

A factor, built from the whole J by one `factorize` call, holds every
block's basis u (m x k, orthonormal columns) side by side and its
v = J_b^T u_b block-diagonal, so the approximate gradient of every block
is the one two-matvec pipeline v @ (u.T @ delta) = J^T U U^T delta, with
no m x d product ever materialized.  A basis mode picks u alone, and one
product per block gives v, whatever the mode.  An svd-mode basis is each
block's top-k left singular vectors, so it depends on J alone; a factor
keeps no Gram eigenvectors, but a caller that builds several ranks of
one J hands `factorize` a memo of them, which spares every eigh after
the first.
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
              gram_vecs: list | None = None) -> LowRankFactor:
    """Build the rank-k factor of each column block of j (`widths`, left
    to right; one block by default), packed into one.

    `mode` is one of BASIS_MODES and picks each block's basis u_b alone;
    one product per block then gives v_b = j_b.T @ u_b in every mode, so
    g~ = j.T @ u @ u.T @ delta.  svd mode's u_b is `truncated_svd(j_b, k).u`,
    bit for bit (a function of j alone): the Gram's top-k eigenvectors when
    the rows are the block's short side, else the QR of j_b @ w, w the
    top-k eigenvectors of j_b.T @ j_b, signed once over the packed u.
    random-projection gives every block the same seed-fixed u (the same at
    every refresh).  The factor holds j weakly as its `source`; its u and v
    are read-only, so a factor handed to several runs
    (`harness.rate_sweep`) is the same for each.

    `gram_vecs` is a memo the caller owns, as `copy.deepcopy`'s is: a list
    with one slot per block of this j and widths.  svd mode fills an empty
    (None) slot with that block's Gram eigenvectors and reads a filled one
    in place of its eigh, so one list handed to every rank of one j
    decomposes each block once.  random-projection leaves it untouched.
    """
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}")
    a = as_matrix(j, "j")
    m, d = a.shape
    bounds = _block_bounds(a.shape, widths, k)
    cols = [slice(i * k, i * k + k) for i in range(len(bounds))]
    if mode == "svd":
        memo = [None] * len(bounds) if gram_vecs is None else gram_vecs
        if len(memo) != len(bounds):
            raise DimError(f"{len(memo)} gram_vecs for {len(bounds)} blocks")
        u = np.empty((m, k * len(bounds)))
        for i, ((lo, hi), c) in enumerate(zip(bounds, cols)):
            block = a[:, lo:hi]
            short = m <= hi - lo  # the block's rows are its short side
            memo[i] = _gram_vecs(block if short else block.T, memo[i])
            u[:, c] = memo[i][:, :k] if short else _range_qr(block.T, memo[i][:, :k])[0]
        u *= _lead_flips(u)
    else:
        u = np.tile(static_basis(m, k, seed), len(bounds))
    # v is Fortran-ordered, so the lift's `matvec` reads v.T in place; it
    # is made after the blocks' eighs, which need their own scratch memory.
    v = np.zeros((d, u.shape[1]), order="F")
    for (lo, hi), c in zip(bounds, cols):
        # u_b is copied out: gemv sums a strided one-column u_b differently.
        v[lo:hi, c] = a[:, lo:hi].T @ np.ascontiguousarray(u[:, c])
    u.flags.writeable = v.flags.writeable = False
    return LowRankFactor(u=u, v=v, source=weakref.ref(a))


def projected_signal(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """delta' = u.T @ delta, the k-dimensional compressed error signal."""
    return matvec_t(factor.u, delta)


def approx_gradient(factor: LowRankFactor, delta: np.ndarray) -> np.ndarray:
    """g~ = v @ (u.T @ delta), always through the k-length intermediate."""
    return matvec(factor.v, projected_signal(factor, delta))
