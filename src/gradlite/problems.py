"""Desk-scale objectives exposing the (jacobian, error-signal) split.

Every problem satisfies the chain-rule contract
``exact_gradient == jacobian.T @ error_signal`` (noiselessly).  `Problem`
holds what every family shares, so a family states only its math: each
constructor calls ``Problem.__init__(m, block_dims, seed)``, which sets the
shape and the seed and resets the noise to the seed's noise stream.
Every evaluation uses all ``m`` rows.  Stochasticity enters through the
error signal's noise, and the noise row index is the only run state a
problem holds, owned by one run at a time.  Noise row t of a run seeded
s is the (t+1)-th ``normals(m)`` call on ``SplitMix64(s)``, a pure
function of (s, t).  Rows are drawn in blocks of NOISE_BLOCK (64), one
stream call per block, each drawn by jumping the counter to the block's
first row, and scaled by the noise level.  A problem keeps the first
scaled blocks of its seed, up to NOISE_KEEP entries, and replays a kept
block itself, so the runs of a one-seed rate sweep draw them once.

The logistic and MLP families read one cached, read-only evaluation of
the latest theta, `Problem._at(theta)`, a pure function of theta: it is
keyed on the shape and bytes of theta as float64 and computed by the
family's `_evaluate` on a private read-only copy, so a caller may change
its theta in place after the call.  A step's signal and probe and the
loss at the previous step's new iterate share one evaluation.  The
logistic one is ``z = x @ theta`` and ``e = exp(-|z|)``: the loss is one
vector softplus, ``max(z, 0) + log1p(e) - y z`` summed, and the signal and
the Newton solve read the sigmoid as ``where(z >= 0, 1, e) / (1 + e)``, so
one `exp` per new theta serves all three.  The MLP's is one forward pass,
plus a slot for J, swept on the first `jacobian` request.

A Jacobian is read-only and never changed in place, so the same array
means the same J: the quadratic and logistic families return one array for
every theta, the MLP a new one per theta.  A block's columns are
``J[:, sl]`` over ``block_slices()``.  A run keeps a factor whose J is
unchanged.  The exact probe ``probe(theta, delta) = J^T delta`` walks J in
the quadratic and logistic families; the MLP answers it by one reverse
pass over its cached evaluation and builds no J.

Each family has one seeded maker (`make_quadratic`, `make_gaussian_logistic`,
`make_lowrank_logistic`, `make_mlp`), whose parameters are the family's spec
keys plus the seed.  A maker checks its spec before it draws any array,
then draws its own data; the logistic makers also solve the reference
optimum.
"""

from __future__ import annotations

import numpy as np
from numpy._core.multiarray import c_einsum

from .errors import ConfigError, DataError, DimError, SpdError
from .linalg import matvec_t
from .rng import SplitMix64, derive_seed

_NOISE_SALT = 0x0151_0001
_MATRIX_SALT = 0x0151_0002
_DATA_SALT = 0x0151_0003
_LABEL_SALT = 0x0151_0004
_THETA0_SALT = 0x0151_0005
# Noise rows drawn from the stream at once; see Problem._noise_block.
NOISE_BLOCK = 64
# Entries of drawn noise a problem keeps for replay, in whole blocks; see
# Problem._noise_block.  2**17 float64s (1 MiB) hold a whole one-seed sweep
# at d=50 and T <= 200 (12800 entries), and bound what a single run, which
# never replays, holds for nothing.
NOISE_KEEP = 2**17
_NEWTON_TOL = 1e-8  # solve_optimum stops when no gradient entry exceeds it
# Largest quadratic condition number, refused before any array is drawn.  Up
# to 1e16 the built matrix's computed spectrum stayed positive on every seed
# tried (d 2 to 2048); from 2e16 some seeds give a smallest eigenvalue <= 0,
# which QuadraticProblem refuses only after the O(d^3) build.
MAX_QUADRATIC_COND = 1e16
# Entries of the materialized m x d Jacobian a problem may have: 2**22
# float64s (32 MiB), far above the largest instance used (512 x 128).
MAX_JACOBIAN_ENTRIES = 2**22
# Largest work of one Newton step of an n x d logistic solve: n d^2 to form
# the Hessian plus d^3 to solve it.  1024 x 1024, exactly at the cap, builds
# in about 2 s on one BLAS thread; 2048 x 2048, inside both size caps, took
# 11 s and 214 MB.
MAX_NEWTON_WORK = 2**31


def _check_size(m: int, d: int, what: str = "Jacobian"):
    """Refuse an m x d Jacobian (or another m x d matrix, `what`) above the
    desk-scale cap.

    Makers call this before drawing any array.  Dimensions below 1 are
    left to each maker's own check.
    """
    if min(m, d) >= 1 and m * d > MAX_JACOBIAN_ENTRIES:
        raise ConfigError(f"{what} of {m} x {d} exceeds the desk-scale cap "
                          f"of {MAX_JACOBIAN_ENTRIES} entries")


def _check_newton_work(n: int, d: int):
    """Refuse an n x d logistic spec whose Newton step does more than
    MAX_NEWTON_WORK (n d^2 + d^3).  The logistic makers call this after
    checking n, d >= 1 and the Hessian's size, before drawing any array."""
    if n * d * d + d**3 > MAX_NEWTON_WORK:
        raise ConfigError(f"Newton solve of {n} x {d} exceeds the desk-scale cap "
                          f"of {MAX_NEWTON_WORK} for n*d^2 + d^3")


def _expit(z: np.ndarray) -> np.ndarray:
    # e = exp(-|z|) never overflows: 1 / (1 + e) for z >= 0, e / (1 + e) below.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Dataset:
    """Feature matrix plus a target vector, reproducible from its seed."""

    def __init__(self, x, y, seed: int = 0):
        # A private read-only copy: x is the logistic Jacobian (see the
        # module docstring).
        self.x = _read_only(np.array(x, dtype=np.float64))
        self.y = np.asarray(y, dtype=np.float64)
        self.seed = seed
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise DimError(f"dataset shapes {self.x.shape} / {self.y.shape}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise DataError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def _data_streams(n: int, d: int, seed: int) -> tuple[SplitMix64, SplitMix64]:
    """The feature and label streams of an n x d dataset seeded `seed`."""
    if n < 1 or d < 1:
        raise ConfigError(f"dataset dims n={n}, d={d} must be >= 1")
    return (SplitMix64(derive_seed(seed, _DATA_SALT)),
            SplitMix64(derive_seed(seed, _LABEL_SALT)))


def _lowrank_design(stream: SplitMix64, n: int, d: int, cond: float) -> np.ndarray:
    """n x d matrix with exact geometric singular values 10..10/cond."""
    r = min(n, d)
    qu, _ = np.linalg.qr(stream.normal_matrix(n, r))
    qv, _ = np.linalg.qr(stream.normal_matrix(d, r))
    if r == 1:
        s = np.array([10.0])
    else:
        s = 10.0 * (1.0 / cond) ** (np.arange(r) / (r - 1))
    return (qu * s[None, :]) @ qv.T


class Problem:
    """The shape, the seed, the noise and the one per-theta evaluation
    cache; subclasses fill in the math.  `noise_sigma` is read when a noise
    block is drawn and must not change after that."""

    noise_sigma: float = 0.0
    loss_star: float | None = None
    name: str = "problem"
    _noise_seed: int | None = None  # the seed reset_noise set last
    _key = None  # the theta whose evaluation `_at` holds

    def __init__(self, m: int, block_dims: tuple[int, ...], seed: int):
        self.m, self.block_dims, self.seed = m, block_dims, seed
        self.reset_noise(derive_seed(seed, _NOISE_SALT))

    def _at(self, theta):
        """The family's `_evaluate` of theta, computed unless the cache
        already holds this theta."""
        theta = np.asarray(theta, dtype=np.float64)
        key = (theta.shape, theta.tobytes())
        if key != self._key:
            # A private copy: callers may change theta in place after the call.
            self._evaluation = self._evaluate(_read_only(theta.copy()))
            self._key = key
        return self._evaluation

    def reset_noise(self, seed: int):
        """Go back to noise row 0 of `seed`.

        The k-th draw after the reset is row k - 1 of `seed`, which equals
        the k-th ``normals(m)`` call on a fresh ``SplitMix64(seed)``.  The
        blocks kept for the previous seed are dropped only when `seed`
        differs from it.
        """
        if seed != self._noise_seed:
            self._noise_seed = seed
            self._noise_kept = []  # the seed's first blocks, in order
        self._noise_row = 0

    @property
    def d(self) -> int:
        return int(sum(self.block_dims))

    @property
    def blocks(self) -> int:
        return len(self.block_dims)

    def block_slices(self) -> list[slice]:
        out, at = [], 0
        for w in self.block_dims:
            out.append(slice(at, at + w))
            at += w
        return out

    def _add_noise(self, signal: np.ndarray) -> np.ndarray:
        """signal plus noise_sigma times the next noise row; with sigma 0,
        the signal itself, and no row is drawn."""
        if self.noise_sigma == 0.0:
            return signal
        # Rows are read in order from row 0, so a block is entered at its
        # first row; each row's bits equal noise_sigma * normals(m).
        b, i = divmod(self._noise_row, NOISE_BLOCK)
        if i == 0:
            self._noise_current = self._noise_block(b)
        self._noise_row += 1
        return signal + self._noise_current[i]

    def _noise_block(self, b: int) -> np.ndarray:
        """Block b, scaled by noise_sigma: kept, or drawn (and kept if it fits)."""
        kept = self._noise_kept
        if b < len(kept):
            return kept[b]
        stream = SplitMix64(self._noise_seed).skip_rows(self.m, b * NOISE_BLOCK)
        # A fresh contiguous product, so a kept block holds only its entries.
        block = _read_only(self.noise_sigma * stream.normal_rows(self.m, NOISE_BLOCK))
        if b == len(kept) and (b + 1) * block.size <= NOISE_KEEP:
            kept.append(block)
        return block

    def loss(self, theta) -> float:
        raise NotImplementedError

    def error_signal(self, theta) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, theta) -> np.ndarray:
        raise NotImplementedError

    def probe(self, theta, delta) -> np.ndarray:
        """The exact probe J^T delta at theta, for any m-vector delta.

        Here the pinned-order walk of the materialized J; a family that can
        answer it without J overrides this.
        """
        return matvec_t(self.jacobian(theta), delta)

    def exact_gradient(self, theta) -> np.ndarray:
        raise NotImplementedError

    def default_theta0(self) -> np.ndarray:
        raise NotImplementedError


def _noise_sigma(sigma) -> float:
    """sigma as a float; ConfigError unless it is finite and >= 0."""
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ConfigError(f"noise sigma must be finite and >= 0, got {sigma}")
    return sigma


class QuadraticProblem(Problem):
    """0.5 theta' A theta, minimized at the origin, with jacobian sqrt(A).

    The error signal is sqrt(A) theta plus optional Gaussian noise of scale
    sigma per draw, so stochasticity passes through the same projection
    pipeline as the signal itself.
    """

    name = "quadratic"

    def __init__(self, a, noise_sigma: float = 0.0, seed: int = 0):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise SpdError(f"matrix must be square, got {a.shape}")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise SpdError("matrix is not symmetric")
        evals, evecs = np.linalg.eigh(a)
        if evals.min() <= 0.0:
            raise SpdError(f"matrix is not positive definite (min eig {evals.min():g})")
        super().__init__(a.shape[0], (a.shape[0],), seed)
        self.a = a
        sqrt_a = (evecs * np.sqrt(evals)[None, :]) @ evecs.T
        self._sqrt_a = _read_only(0.5 * (sqrt_a + sqrt_a.T))
        self.noise_sigma = _noise_sigma(noise_sigma)
        self.loss_star = 0.0

    def loss(self, theta) -> float:
        return 0.5 * float(theta @ (self.a @ theta))

    def error_signal(self, theta) -> np.ndarray:
        # ndarray.dot is the BLAS gemv that `@` calls, without matmul's
        # gufunc dispatch: the same bits.
        return self._add_noise(self._sqrt_a.dot(theta))

    def jacobian(self, theta) -> np.ndarray:
        return self._sqrt_a

    def exact_gradient(self, theta) -> np.ndarray:
        return self.a @ theta

    def default_theta0(self) -> np.ndarray:
        return np.ones(self.d)


class LogisticProblem(Problem):
    """Summed logistic loss; jacobian is the design matrix itself.

    Its evaluation (`_evaluate`, cached by `Problem._at`) is the read-only
    pair of scores ``z = x @ theta`` and ``e = exp(-|z|)``, which never
    overflows; `loss`, `error_signal` and `solve_optimum` read it.  So a
    recorded step's loss at the new iterate and the next step's signal
    share one product and one `exp`.  The loss is the stable softplus
    ``max(z, 0) + log1p(e)`` over the whole vector; the sigmoid is
    ``where(z >= 0, 1, e) / (1 + e)``, the bits of `_expit`.
    """

    name = "logistic"

    def __init__(self, data: Dataset):
        bad = ~np.isin(data.y, (0.0, 1.0))
        if bad.any():
            raise DataError(f"labels must be in {{0, 1}}; offending row {int(np.argmax(bad))}")
        super().__init__(data.n, (data.d,), data.seed)
        self.data = data

    def _evaluate(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """(x @ theta, exp(-|x @ theta|)), both read-only."""
        z = _read_only(self.data.x @ theta)
        return z, _read_only(np.exp(-np.abs(z)))

    def _sigmoid(self, theta) -> np.ndarray:
        """_expit(x @ theta) from the cached pair: the same e and division."""
        z, e = self._at(theta)
        return np.where(z >= 0, 1.0, e) / (1.0 + e)

    def loss(self, theta) -> float:
        z, e = self._at(theta)
        return float(np.add.reduce(np.maximum(z, 0.0) + np.log1p(e) - self.data.y * z))

    def error_signal(self, theta) -> np.ndarray:
        return self._add_noise(self._sigmoid(theta) - self.data.y)

    def jacobian(self, theta) -> np.ndarray:
        return self.data.x

    def exact_gradient(self, theta) -> np.ndarray:
        return self.data.x.T @ (_expit(self.data.x @ theta) - self.data.y)

    def default_theta0(self) -> np.ndarray:
        return np.zeros(self.d)

    def solve_optimum(self, max_iter: int = 500) -> bool:
        """Damped Newton to a reference optimum; records loss_star on success.

        The reference is accurate to roughly _NEWTON_TOL**2 / curvature in loss
        terms, ample for gap reporting; near-separable instances converge
        slowly along tiny-curvature directions, hence the generous cap.
        A line search that finds no lower loss is success when the Newton
        decrease ``0.5 * g @ step`` is under 16 ulps of the loss, more than
        the rounding of its pairwise sum: the point is optimal to float
        precision.  Each loss is the vector softplus over the cached scores,
        and the gradient and Hessian weights read their sigmoid from the
        cached ``exp(-|z|)`` of the last point `loss` scored: one product
        and one `exp` per point.  Each step forms a d x d Hessian; the
        makers refuse a d whose Hessian is above the desk-scale cap, and an
        n x d whose Newton step is above MAX_NEWTON_WORK, before drawing
        any data.
        """
        theta = np.zeros(self.d)
        loss = self.loss(theta)
        for _ in range(max_iter):
            p = self._sigmoid(theta)
            g = self.data.x.T @ (p - self.data.y)
            if float(np.abs(g).max()) <= _NEWTON_TOL:
                break
            w = p * (1.0 - p)
            h = (self.data.x.T * w[None, :]) @ self.data.x
            h[np.diag_indices_from(h)] += 1e-12
            step = np.linalg.solve(h, g)
            t = 1.0
            while t > 1e-8:
                cand = theta - t * step
                cand_loss = self.loss(cand)
                if cand_loss <= loss:
                    theta, loss = cand, cand_loss
                    break
                t *= 0.5
            else:
                if 0.5 * float(g @ step) > 16 * np.spacing(max(1.0, abs(loss))):
                    return False
                break
        else:
            return False
        self.loss_star = self.loss(theta)
        self.theta_hat = theta
        return True


def _mlp_block_dims(layers) -> tuple[int, ...]:
    """Parameters per layer block (weights, then biases); the one width rule.

    `make_mlp`, `MlpProblem` and the harness's spec-shape check all call it,
    so bad widths are refused before the rank or any array is looked at.
    """
    layers = [int(w) for w in layers]
    if len(layers) < 2 or any(w < 1 for w in layers):
        raise ConfigError(f"bad layer widths {layers}")
    if layers[-1] != 1:
        raise ConfigError("output width must be 1 (vector targets)")
    return tuple(layers[i + 1] * layers[i] + layers[i + 1]
                 for i in range(len(layers) - 1))


class MlpProblem(Problem):
    """Tanh MLP regression with mean squared-error loss 0.5*||f - y||^2 / n.

    One parameter block per layer (weights row-major, then biases).  The
    jacobian of the predictions is materialized explicitly by a top-down
    sweep, which is O(n * params) memory, fine at desk scale.  The probe
    J^T delta and the exact gradient go through one reverse pass
    (`_backward`) instead, which builds no J.

    `loss`, `error_signal`, `probe` and `jacobian` read one evaluation
    (`_evaluate`, cached by `Problem._at`): the weights, the read-only
    activations and the residual of one forward pass, and a slot for J,
    which the sweep fills, writing each block into its columns, on the
    first jacobian request.  A new theta drops the whole evaluation, J
    included.
    `exact_gradient` runs its own uncached forward pass, so the chain-rule
    contract checks a cache-free path against the sweep's J.
    """

    name = "mlp"

    def __init__(self, layers, data: Dataset):
        super().__init__(data.n, _mlp_block_dims(layers), data.seed)
        layers = [int(w) for w in layers]
        if layers[0] != data.d:
            raise DimError(f"input width {layers[0]} != feature count {data.d}")
        _check_size(data.n, self.d)
        self._slices = tuple(self.block_slices())
        self.layers = layers
        self.data = data

    # -- parameter packing ------------------------------------------------
    def _unpack(self, theta):
        ws, bs, at = [], [], 0
        for i in range(len(self.layers) - 1):
            nin, nout = self.layers[i], self.layers[i + 1]
            ws.append(theta[at:at + nout * nin].reshape(nout, nin))
            at += nout * nin
            bs.append(theta[at:at + nout])
            at += nout
        return ws, bs

    def _forward(self, theta):
        ws, bs = self._unpack(theta)
        acts = [self.data.x]
        h = self.data.x
        last = len(ws) - 1
        for i, (w, b) in enumerate(zip(ws, bs)):
            # Each product is a fresh array, so the bias and tanh write into it.
            h = h @ w.T
            h += b
            if i != last:
                np.tanh(h, out=h)
            acts.append(h)
        return ws, acts

    def _evaluate(self, theta) -> list:
        """[weights, activations, residual, J slot] of a read-only theta."""
        ws, acts = self._forward(theta)
        for a in acts[1:]:
            _read_only(a)
        return [ws, acts, _read_only(acts[-1][:, 0] - self.data.y), None]

    def loss(self, theta) -> float:
        resid = self._at(theta)[2]
        return 0.5 * float(resid @ resid) / self.data.n

    def error_signal(self, theta) -> np.ndarray:
        return self._add_noise(self._at(theta)[2] / self.data.n)

    def jacobian(self, theta) -> np.ndarray:
        evaluation = self._at(theta)
        ws, acts, _, jac = evaluation
        if jac is None:
            n = self.data.n
            jac, slices = np.empty((n, self.d)), self._slices
            # dpred[i] / dz_l[i, p], built top-down.  The output layer is
            # linear with one unit: its weight columns are its inputs.
            last = len(ws) - 1
            jac[:, slices[last].start:-1], jac[:, -1] = acts[last], 1.0
            d_sens = None
            for l in range(last - 1, -1, -1):
                # tanh'(z) of layer l from acts[l + 1] = tanh(z), in place, times
                # the output weights (each 1.0 * w exactly) or the layer above's.
                above, d_sens = d_sens, acts[l + 1] ** 2
                np.subtract(1.0, d_sens, out=d_sens)
                d_sens *= ws[last][0] if above is None else above @ ws[l + 1]
                # Block l's columns: weights (p x q, row-major), biases (p).
                # Each weight entry is the one rounded product d_sens[i, p] *
                # acts[i, q], which einsum adds to a zeroed output, so a
                # -0.0 product (where a unit saturates) is stored as +0.0;
                # bias and output-weight columns are copies, -0.0 and all.
                # Every reader of J sums from +0.0, which drops zeros' signs.
                p, q = d_sens.shape[1], acts[l].shape[1]
                lo, hi = slices[l].start, slices[l].stop
                # Splitting the contiguous last axis gives a view, not a copy.
                c_einsum("ip,iq->ipq", d_sens, acts[l], out=jac[:, lo:hi - p].reshape(n, p, q))
                jac[:, hi - p:hi] = d_sens
            jac = evaluation[3] = _read_only(jac)
        return jac

    def probe(self, theta, delta) -> np.ndarray:
        """J^T delta by one reverse pass over the cached evaluation; no J."""
        delta = np.asarray(delta, dtype=np.float64)
        if delta.shape != (self.m,):
            raise DimError(f"probe: signal {delta.shape} for {self.m} rows")
        ws, acts = self._at(theta)[:2]
        return self._backward(ws, acts, delta)

    def exact_gradient(self, theta) -> np.ndarray:
        ws, acts = self._forward(np.asarray(theta, dtype=np.float64))
        return self._backward(ws, acts, (acts[-1][:, 0] - self.data.y) / self.data.n)

    def _backward(self, ws, acts, delta) -> np.ndarray:
        """J^T delta from a forward pass's weights and activations.

        sens[i, p] = delta[i] * dpred[i] / dz_l[i, p], carried bottom-up
        from the linear output unit (where it is delta itself).  Block l's
        weight entries are sens.T @ acts[l] and its biases sens's column
        sums, each written into its slice of the result.
        """
        out, sens = np.empty(self.d), delta[:, None]
        for l in range(len(ws) - 1, -1, -1):
            a, p = acts[l], sens.shape[1]
            lo, hi = self._slices[l].start, self._slices[l].stop
            # ndarray products by np.dot, the BLAS call `@` makes without
            # matmul's gufunc dispatch: the same bits.
            np.dot(sens.T, a, out=out[lo:hi - p].reshape(p, a.shape[1]))
            np.add.reduce(sens, 0, None, out[hi - p:hi])
            if l > 0:
                # tanh'(z) of layer l - 1 from a = tanh(z), in place.
                slope = a * a
                np.subtract(1.0, slope, out=slope)
                sens = np.dot(sens, ws[l])
                sens *= slope
        return out

    def default_theta0(self) -> np.ndarray:
        stream = SplitMix64(derive_seed(self.seed, _THETA0_SALT))
        parts = []
        for nin, nout in zip(self.layers, self.layers[1:]):
            parts.append(stream.normals(nout * nin) / np.sqrt(nin))
            parts.append(stream.normals(nout) * 0.1)
        return np.concatenate(parts)


def finite_difference_gradient(problem: Problem, theta, h: float = 1e-5) -> np.ndarray:
    """Central differences of the (deterministic) loss, coordinate by coordinate."""
    if h <= 0.0:
        raise ConfigError("h must be > 0")
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape[0])
    for i in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        hi = problem.loss(bumped)
        bumped[i] = theta[i] - h
        lo = problem.loss(bumped)
        out[i] = (hi - lo) / (2.0 * h)
    return out


# -- seeded builders used by the harness and CLI --------------------------

def make_quadratic(d: int, cond: float, sigma: float, seed: int) -> QuadraticProblem:
    """Rotated quadratic with geometric spectrum 1 .. 1/cond (so L = 1)."""
    if d < 1 or not 1.0 <= cond <= MAX_QUADRATIC_COND:  # NaN fails too
        above = (f" above the bound {MAX_QUADRATIC_COND:g}"
                 if MAX_QUADRATIC_COND < cond < np.inf else "")
        raise ConfigError(f"bad quadratic spec d={d}, cond={cond}{above}")
    _check_size(d, d)
    _noise_sigma(sigma)
    stream = SplitMix64(derive_seed(seed, _MATRIX_SALT))
    if d == 1:
        lam = np.array([1.0])
    else:
        lam = (1.0 / cond) ** (np.arange(d) / (d - 1))
    q, _ = np.linalg.qr(stream.normal_matrix(d, d))
    a = (q * lam[None, :]) @ q.T
    a = 0.5 * (a + a.T)
    return QuadraticProblem(a, noise_sigma=sigma, seed=seed)


def make_gaussian_logistic(n: int, d: int, seed: int) -> LogisticProblem:
    """Logistic instance on iid N(0,1) features, labels from a hidden linear scorer."""
    _check_size(n, d)
    feat, lab = _data_streams(n, d, seed)
    _check_size(d, d, "Newton Hessian")
    _check_newton_work(n, d)
    x = feat.normal_matrix(n, d)
    w = lab.normals(d) / np.sqrt(d) * 2.0
    y = (lab.uniforms(n) < _expit(x @ w)).astype(np.float64)
    prob = LogisticProblem(Dataset(x, y, seed=seed))
    prob.solve_optimum()
    return prob


def make_lowrank_logistic(n: int, d: int, cond: float, seed: int) -> LogisticProblem:
    """Logistic instance on an ill-conditioned low-rank design matrix.

    Labels are Bernoulli draws from a hidden linear scorer over the same
    features, scaled so flips are common enough to keep the optimum finite.
    """
    if n < 1 or d < 1 or not 1.0 <= cond < np.inf:
        raise ConfigError(f"bad low-rank logistic spec n={n}, d={d}, cond={cond}")
    _check_size(n, d)
    _check_size(d, d, "Newton Hessian")
    _check_newton_work(n, d)
    feat, lab = _data_streams(n, d, seed)
    x = _lowrank_design(feat, n, d, cond=cond)
    w = lab.normals(d)
    s = x @ w
    scale = 2.0 / max(float(np.std(s)), 1e-12)
    p = _expit(s * scale)
    y = (lab.uniforms(n) < p).astype(np.float64)
    prob = LogisticProblem(Dataset(x, y, seed=seed))
    prob.solve_optimum()
    return prob


def make_mlp(layers, n: int, seed: int) -> MlpProblem:
    """Tanh MLP on features of condition 1e3; targets a hidden linear map plus noise."""
    _check_size(n, sum(_mlp_block_dims(layers)))
    d = int(layers[0])
    feat, lab = _data_streams(n, d, seed)
    x = _lowrank_design(feat, n, d, cond=1e3)
    w = lab.normals(d) / np.sqrt(d)
    y = x @ w + 0.1 * lab.normals(n)
    return MlpProblem(layers, Dataset(x, y, seed=seed))
