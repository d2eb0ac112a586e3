"""Dense float64 vectors/matrices and the exact truncated-SVD kernel.

Values are plain numpy arrays validated at the boundaries (`as_matrix`).
`matvec` and `matvec_t` accumulate in a pinned order
(ascending reduction index, starting from 0.0, no pairwise or compensated
summation) so their results are bit-identical to a scalar double loop and
reproducible across runs.  Both stream through one kernel, numpy's C
einsum routine called directly as `c_einsum("ij,i->j", a, y)`, which walks
the rows of `a` in order and adds each rounded product `a[i, j] * y[i]` to
`out[j]`, with no m x d product array.  `np.einsum` with its default
`optimize=False` only returns this same call, so the walk is the same;
calling it directly skips a Python front end that costs more than the
walk itself at these sizes (`test_kernel_bypasses_the_einsum_front_end`).
`matvec` and `matvec_t` each call the kernel, never each other, so a
tracer that wraps both books every call once (`tests/test_tracer.py`).
The order rests on four conditions, each checked against the
scalar loop in `tests/test_linalg.py`:

- `a` is C-ordered, so the inner loop runs along a row and the row index
  is the outer one; `matvec` hands the kernel `a.T`, read in place when
  `a` is Fortran-ordered and copied to C order otherwise (the
  Fortran-ordered and strided inputs of `test_loop_oracle_property`).
- `a` has at least 2 columns.  With one, einsum would reduce the
  contiguous column with an unrolled dot-product kernel, so a single
  column is summed with a sequential cumsum instead (the `d=1` examples of
  `test_loop_oracle_property` and the one-column multiply-add probe).
- Both operands are float64 before the call, so einsum casts nothing.  A
  casting einsum copies its operands through buffers, whose walk numpy
  does not document (the integer and float32 vector tests check the
  result).  An operand that is already C-contiguous float64 is passed
  as is; any other is copied once.
- numpy's einsum rounds each product before adding it.  A build that
  fused the multiply and the add would fail the multiply-add probe
  (`test_products_are_rounded_before_the_add`); it gets no second kernel.

`truncated_svd` calls numpy's LAPACK gufuncs (`eigh_lo`, `qr_r_raw`,
`qr_reduced`) directly, the same calls `np.linalg.eigh` and `np.linalg.qr`
make, under the errstate those wrappers set; at these sizes the wrappers'
Python glue cost about a fifth of the MLP's refresh.  A test keeps the
wrapper route as an oracle and checks the two bit for bit
(`test_matches_the_wrapper_route_bit_for_bit`).  `lowrank.factorize`
shares its eigh (`_gram_vecs`), its QR (`_range_qr`) and its sign fix to
pick each block's basis u, but takes neither its long side nor its s.

Everything here is pure; nothing mutates its inputs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum
from numpy.linalg._umath_linalg import eigh_lo, qr_r_raw, qr_reduced

from .errors import DimError, NumError, RankError

_FLOAT64 = np.dtype(np.float64)


class SvdResult(NamedTuple):
    """Leading-k factors: u (m x k), s (k, nonincreasing), v (d x k)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimError(f"{name} must be a nonempty 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumError(f"{name} contains non-finite entries")
    return arr


def _pinned_sum(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """0.0 + a[0] * y[0] + a[1] * y[1] + ..., a's rows in order, in float64.

    An operand that is not C-contiguous float64 is copied to one first.
    """
    if not (a.dtype is _FLOAT64 and a.flags.c_contiguous):
        a = np.ascontiguousarray(a, dtype=np.float64)
    if not (y.dtype is _FLOAT64 and y.flags.c_contiguous):
        y = np.ascontiguousarray(y, dtype=np.float64)
    if a.shape[1] == 1:
        # + 0.0 turns an all-(-0.0) sum into +0.0, as the loop's 0.0 start does.
        return np.cumsum(a[:, 0] * y)[-1:] + 0.0
    return c_einsum("ij,i->j", a, y)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x with the summation over columns in ascending index order.

    The kernel walks the rows of a.T, C-ordered: a Fortran-ordered a is
    read in place, any other is copied (see the module doc).
    """
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimError(f"matvec: {a.shape} @ {x.shape}")
    return _pinned_sum(a.T, x)


def matvec_t(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a.T @ y summed over rows in ascending index order (row-major walk).

    The kernel walks the rows of a, C-ordered (see the module doc).
    """
    if a.ndim != 2 or y.ndim != 1 or a.shape[0] != y.shape[0]:
        raise DimError(f"matvec_t: {a.shape}.T @ {y.shape}")
    return _pinned_sum(a, y)


def frob_residual(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of a - u @ v.T (v carries any singular-value scaling)."""
    if u.ndim != 2 or v.ndim != 2 or a.shape != (u.shape[0], v.shape[0]) \
            or u.shape[1] != v.shape[1]:
        raise DimError(f"frob_residual: a {a.shape}, u {u.shape}, v {v.shape}")
    diff = a - u @ v.T
    return float(np.sqrt(np.sum(diff * diff)))


def _raise_linalg_error(err, flag):
    raise np.linalg.LinAlgError("eigh or QR failed in truncated_svd")


_LAPACK_ERRSTATE = dict(call=_raise_linalg_error, invalid="call", over="ignore",
                        divide="ignore", under="ignore")  # numpy.linalg's own


def _gram_vecs(b, gram_vecs: np.ndarray | None = None) -> np.ndarray:
    """Every eigenvector of b @ b.T by descending eigenvalue, read-only;
    gram_vecs kept from the same b stand in for the Gram and its eigh."""
    if gram_vecs is None:
        # Formed outside the errstate, so an overflowing Gram warns as a
        # caller's own `b @ b.T` would.
        gram = b @ b.T
        with np.errstate(**_LAPACK_ERRSTATE):
            gram_vecs = eigh_lo(gram)[1][:, ::-1]
        gram_vecs.flags.writeable = False
    elif gram_vecs.shape != (b.shape[0], b.shape[0]):
        raise DimError(f"gram_vecs {gram_vecs.shape} do not fit {b.shape[0]} short-side rows")
    return gram_vecs


def _range_qr(b, w):
    """(q, diag(R)): the reduced QR of b.T @ w."""
    with np.errstate(**_LAPACK_ERRSTATE):
        raw = b.T @ w  # qr_r_raw leaves R in its upper triangle
        return qr_reduced(raw, qr_r_raw(raw)), np.diagonal(raw)


def _lead_flips(u: np.ndarray) -> np.ndarray:
    """+-1 per column of u, the sign that makes its largest-magnitude entry positive."""
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return np.where(lead < 0.0, -1.0, 1.0)


def truncated_svd(a, k: int) -> SvdResult:
    """Exact leading-k SVD from the eigendecomposition of the smaller Gram.

    With b = a when m <= d and b = a.T otherwise, `eigh(b @ b.T)` gives the
    top-k singular vectors w of b's short side; one QR of b.T @ w gives the
    long side, each column signed by diag(R), and s = |diag(R)|.  The QR
    keeps that side orthonormal even where a singular value is zero.  The
    output is a pure function of (a, k); each (u_j, v_j) pair is flipped so
    the largest-magnitude entry of u_j is positive.

    The eigh and the QR are the LAPACK gufuncs of the module doc, under
    numpy.linalg's errstate, where a LAPACK failure (flagged as invalid)
    raises `LinAlgError`.  diag(R) is read from the raw QR output, and each
    side's sign flips are one multiply by +-1, which is exact.
    """
    a = as_matrix(a)
    m, d = a.shape
    if not 1 <= k <= min(m, d):
        raise RankError(f"rank {k} outside 1..{min(m, d)} for shape {a.shape}")
    b = a if m <= d else a.T
    w = _gram_vecs(b)[:, :k]
    q, diag = _range_qr(b, w)
    x = q * np.where(diag < 0.0, -1.0, 1.0)
    u, v = (w, x) if m <= d else (x, w)
    flip = _lead_flips(u)
    return SvdResult(u * flip, np.abs(diag), v * flip)
