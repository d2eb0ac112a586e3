import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gradlite import linalg
from gradlite.errors import DimError, NumError, RankError
from gradlite.harness import build_problem
from gradlite.linalg import (frob_residual, matvec, matvec_t, truncated_svd)
from gradlite.optimizers import GradLiteConfig, init_gradlite_state
from gradlite.rng import SplitMix64

J32 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
# The problems of the three benchmark workloads (perfbench/workloads.py).
BENCHMARK_SPECS = [
    {"name": "lowrank-logistic", "n": 512, "d": 128, "cond": 1000.0},
    {"name": "mlp", "layers": (8, 16, 16, 1), "n": 32},
    {"name": "quadratic", "d": 50, "cond": 100.0, "sigma": 0.5},
]

# Each column sums -(1+2E)*1 + (1+E)*(1+E).  Rounding the product before the
# add gives exactly 0.0; a fused multiply-add keeps E*E = 2**-54.
E = 2.0 ** -27
FMA_A = np.array([[-(1 + 2 * E), -(1 + 2 * E)], [1 + E, 1 + E]])
FMA_Y = np.array([1.0, 1 + E])


def loop_matvec(a, x):
    out = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc
    return out


def loop_matvec_t(a, y):
    out = np.zeros(a.shape[1])
    for j in range(a.shape[1]):
        acc = 0.0
        for i in range(a.shape[0]):
            acc += a[i, j] * y[i]
        out[j] = acc
    return out


def assert_matches_oracle(a, k):
    """truncated_svd(a, k) against numpy's full SVD of a."""
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    res = truncated_svd(a, k)
    u_ref = u_ref[:, :k]
    # sine of the largest principal angle between the two k-dim subspaces
    sine = np.linalg.norm(res.u - u_ref @ (u_ref.T @ res.u), 2)
    assert np.arcsin(min(sine, 1.0)) <= 1e-6
    assert np.all(np.abs(res.s - s_ref[:k]) <= 1e-10 * s_ref[:k])
    assert np.abs(res.u.T @ res.u - np.eye(k)).max() <= 1e-12
    # sign convention: the largest-magnitude entry of each u_j is positive
    assert np.all(res.u[np.argmax(np.abs(res.u), axis=0), np.arange(k)] > 0.0)



def wrapper_route_svd(a, k):
    """truncated_svd through np.linalg.eigh and np.linalg.qr, as it was
    written before it called their LAPACK gufuncs directly."""
    m, d = a.shape
    b = a if m <= d else a.T
    _, evecs = np.linalg.eigh(b @ b.T)
    w = evecs[:, ::-1][:, :k]
    q, r = np.linalg.qr(b.T @ w)
    diag = np.diagonal(r)
    s = np.abs(diag)
    x = q * np.where(diag < 0.0, -1.0, 1.0)
    u, v = (w, x) if m <= d else (x, w)
    lead = u[np.argmax(np.abs(u), axis=0), np.arange(k)]
    flip = np.where(lead < 0.0, -1.0, 1.0)
    return u * flip, s, v * flip


def svd_oracle_cases():
    """(id, a, k): both orientations and square, k = 1 and k = min(m, d),
    rank-deficient inputs and entries scaled by 1e+-150."""
    cases = []
    for m, d in ((7, 19), (19, 7), (9, 9), (1, 5), (5, 1)):
        a = SplitMix64(m * 100 + d).normal_matrix(m, d)
        for k in sorted({1, min(m, d) // 2 or 1, min(m, d)}):
            cases.append((f"{m}x{d}-k{k}", a, k))
            for exp in (150, -150):
                cases.append((f"{m}x{d}-k{k}-1e{exp}", a * 10.0 ** exp, k))
    for m, d in ((6, 10), (10, 6)):
        rank2 = SplitMix64(m + d).normal_matrix(m, 2) @ SplitMix64(m * d).normal_matrix(2, d)
        for name, a in (("zero", np.zeros((m, d))), ("rank2", rank2)):
            for k in (1, 4, 6):
                cases.append((f"{name}-{m}x{d}-k{k}", a, k))
    return cases


class TestMatvec:
    def test_identity(self):
        assert np.array_equal(matvec(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_hand_case(self):
        assert np.array_equal(matvec(J32, np.array([1.0, 2.0])), [1.0, 4.0, 0.0])

    def test_matches_scalar_loop_exactly(self):
        stream = SplitMix64(11)
        a = stream.normal_matrix(5, 3)
        x = stream.normals(3)
        assert np.array_equal(matvec(a, x), loop_matvec(a, x))

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            matvec(J32, np.array([1.0, 2.0, 3.0]))

    @given(st.integers(0, 2**32), st.integers(1, 300), st.integers(1, 300))
    @example(seed=0, m=1, d=300)
    @example(seed=1, m=300, d=1)
    @example(seed=2, m=1, d=1)
    def test_loop_oracle_property(self, seed, m, d):
        stream = SplitMix64(seed)
        a = stream.normal_matrix(m, d)
        x = stream.normals(d)
        y = stream.normals(m)
        want, want_t = loop_matvec(a, x), loop_matvec_t(a, y)
        # The same values as drawn, Fortran-ordered, and as a strided view.
        spread = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)
        for a_, x_, y_ in ((a, x, y), (np.asfortranarray(a), x, y),
                           (spread[::2, ::2], np.repeat(x, 2)[::2],
                            np.repeat(y, 2)[::2])):
            assert np.array_equal(matvec(a_, x_), want)
            assert np.array_equal(matvec_t(a_, y_), want_t)

    # A single column of a (or a single row, for matvec) takes the cumsum path.
    @pytest.mark.parametrize("cols", [2, 1], ids=["two-columns", "one-column"])
    def test_products_are_rounded_before_the_add(self, cols):
        a = FMA_A[:, :cols]
        for got, want in ((matvec_t(a, FMA_Y), loop_matvec_t(a, FMA_Y)),
                          (matvec(a.T, FMA_Y), loop_matvec(a.T, FMA_Y))):
            assert got.tobytes() == np.zeros(cols).tobytes()
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_vector_matches_loop(self, dtype):
        stream = SplitMix64(5)
        a = stream.normal_matrix(40, 7)
        for b in (a, a[:, :1], a[:1]):
            y = (stream.normals(b.shape[0]) * 1000).astype(dtype)
            x = (stream.normals(b.shape[1]) * 1000).astype(dtype)
            assert np.array_equal(matvec_t(b, y), loop_matvec_t(b, y))
            assert np.array_equal(matvec(b, x), loop_matvec(b, x))

    @pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s["name"])
    def test_benchmark_jacobians_and_factors_match_loop(self, spec):
        # Each block's J and the u, v of its step-0 factor, at the
        # benchmark's rank, through both kernels.
        problem = build_problem(spec, seed=0)
        state = init_gradlite_state(problem, None, GradLiteConfig(eta=0.05, k=8, seed=0))
        stream = SplitMix64(9)
        for b, factor in enumerate(state.factors):
            for a in (problem.jacobian(state.theta, block=b), factor.u, factor.v):
                y, x = stream.normals(a.shape[0]), stream.normals(a.shape[1])
                assert np.array_equal(matvec_t(a, y), loop_matvec_t(a, y))
                assert np.array_equal(matvec(a, x), loop_matvec(a, x))

    @pytest.mark.parametrize("m, d", [(4, 3), (4, 1), (1, 3)])
    def test_all_negative_zero_terms_sum_to_positive_zero(self, m, d):
        # The loop starts from +0.0, so a sum of -0.0 terms is +0.0.
        a = -np.ones((m, d))
        for got in (matvec(a, np.zeros(d)), matvec_t(a, np.zeros(m))):
            assert not np.signbit(got).any()

    # Shapes with at least 2 columns for both kernels (matvec's kernel walks
    # a.T), including those of the three benchmark workloads' Jacobians.
    KERNEL_SHAPES = [(2, 2), (5, 3), (3, 40), (32, 144), (32, 272), (32, 17),
                     (50, 50), (512, 128), (300, 7)]

    @pytest.mark.parametrize("m, d", KERNEL_SHAPES)
    def test_kernel_bypasses_the_einsum_front_end(self, m, d, monkeypatch):
        stream = SplitMix64(m * 1000 + d)
        a, x, y = stream.normal_matrix(m, d), stream.normals(d), stream.normals(m)
        want, want_t = loop_matvec(a, x), loop_matvec_t(a, y)
        # The C entry the kernels call and the front end give the same bytes.
        assert linalg.c_einsum("ij,i->j", a, y).tobytes() == want_t.tobytes()
        assert np.einsum("ij,i->j", a, y).tobytes() == want_t.tobytes()

        def front_end(*args, **kwargs):
            raise AssertionError("the pinned kernel went through np.einsum")

        monkeypatch.setattr(np, "einsum", front_end)
        for a_ in (a, np.asfortranarray(a)):
            assert matvec(a_, x).tobytes() == want.tobytes()
            assert matvec_t(a_, y).tobytes() == want_t.tobytes()


class TestMatvecT:
    def test_hand_case(self):
        assert np.array_equal(matvec_t(J32, np.array([1.0, 1.0, 1.0])), [1.0, 2.0])

    def test_zero_vector(self):
        a = SplitMix64(3).normal_matrix(4, 6)
        assert np.array_equal(matvec_t(a, np.zeros(4)), np.zeros(6))

    def test_identity(self):
        y = np.array([5.0, -1.0, 2.0])
        assert np.array_equal(matvec_t(np.eye(3), y), y)

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            matvec_t(J32, np.array([1.0, 1.0]))


class TestTruncatedSvd:
    def test_hand_3x2_rank1(self):
        res = truncated_svd(J32, 1)
        assert res.s.shape == (1,)
        assert abs(res.s[0] - 2.0) < 1e-12
        # joint sign convention: largest-|u| entry positive
        assert np.allclose(res.u[:, 0], [0.0, 1.0, 0.0], atol=1e-10)
        assert np.allclose(res.v[:, 0], [0.0, 1.0], atol=1e-10)

    def test_diagonal_full_rank_exact(self):
        a = np.diag([3.0, 2.0, 1.0])
        res = truncated_svd(a, 3)
        assert np.allclose(res.s, [3.0, 2.0, 1.0], atol=1e-12)
        rec = res.u @ np.diag(res.s) @ res.v.T
        assert np.abs(rec - a).max() <= 1e-10

    def test_low_rank_matrix_recovered(self):
        stream = SplitMix64(21)
        b = stream.normal_matrix(20, 4)
        c = stream.normal_matrix(10, 4)
        a = b @ c.T
        res = truncated_svd(a, 4)
        err = frob_residual(a, res.u, res.v * res.s[None, :])
        assert err <= 1e-8

    def test_orthonormal_columns(self):
        for seed in range(5):
            a = SplitMix64(seed).normal_matrix(15, 9)
            res = truncated_svd(a, 4)
            assert np.abs(res.u.T @ res.u - np.eye(4)).max() <= 1e-8
            assert np.abs(res.v.T @ res.v - np.eye(4)).max() <= 1e-8
            assert np.all(np.diff(res.s) <= 1e-12)
            assert np.all(res.s >= 0.0)

    def test_residual_nonincreasing_in_rank(self):
        stream = SplitMix64(33)
        q1, _ = np.linalg.qr(stream.normal_matrix(18, 10))
        q2, _ = np.linalg.qr(stream.normal_matrix(10, 10))
        s = 2.0 ** -np.arange(10, dtype=np.float64)
        a = (q1 * s[None, :]) @ q2.T
        prev = np.inf
        for k in range(1, 11):
            res = truncated_svd(a, k)
            err = frob_residual(a, res.u, res.v * res.s[None, :])
            assert err <= prev + 1e-12
            prev = err

    def test_bit_identical_given_same_inputs(self):
        a = SplitMix64(8).normal_matrix(12, 7)
        r1 = truncated_svd(a, 3)
        r2 = truncated_svd(a, 3)
        assert np.array_equal(r1.u, r2.u)
        assert np.array_equal(r1.s, r2.s)
        assert np.array_equal(r1.v, r2.v)

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            truncated_svd(J32, 0)
        with pytest.raises(RankError):
            truncated_svd(J32, 3)

    def test_non_finite_input(self):
        bad = J32.copy()
        bad[0, 0] = np.nan
        with pytest.raises(NumError):
            truncated_svd(bad, 1)

    @pytest.mark.parametrize("m, d, k", [(40, 12, 5), (12, 40, 5), (30, 30, 10)],
                             ids=["tall", "wide", "square"])
    def test_matches_exact_svd_oracle(self, m, d, k):
        assert_matches_oracle(SplitMix64(m * d).normal_matrix(m, d), k)

    @pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s["name"])
    def test_matches_exact_svd_oracle_on_benchmark_jacobians(self, spec):
        problem = build_problem(spec, seed=0)
        theta = problem.default_theta0()
        for b in range(problem.blocks):
            j = problem.jacobian(theta, block=b)
            for k in (1, 2, 8, 32, 50):
                if k <= min(j.shape):
                    assert_matches_oracle(j, k)
                    for g, w in zip(truncated_svd(j, k), wrapper_route_svd(j, k)):
                        assert (g.strides, g.tobytes()) == (w.strides, w.tobytes())

    @pytest.mark.parametrize("a", [
        np.zeros((4, 6)), np.zeros((6, 4)),
        np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0)),
        np.outer(np.arange(1.0, 7.0), np.arange(1.0, 5.0)),
    ], ids=["zero-4x6", "zero-6x4", "rank1-4x6", "rank1-6x4"])
    def test_rank_deficient_gives_finite_orthonormal_factor(self, a):
        res = truncated_svd(a, 3)
        for part in res:
            assert np.all(np.isfinite(part))
        assert np.abs(res.u.T @ res.u - np.eye(3)).max() <= 1e-12
        assert np.abs((res.u * res.s[None, :]) @ res.v.T - a).max() <= 1e-12


    @pytest.mark.parametrize("a, k", [c[1:] for c in svd_oracle_cases()],
                             ids=[c[0] for c in svd_oracle_cases()])
    def test_matches_the_wrapper_route_bit_for_bit(self, a, k, monkeypatch):
        want = wrapper_route_svd(a, k)

        def wrapper(*args, **kwargs):
            raise AssertionError("truncated_svd went through a numpy.linalg wrapper")

        monkeypatch.setattr(np.linalg, "eigh", wrapper)
        monkeypatch.setattr(np.linalg, "qr", wrapper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = truncated_svd(a, k)
        for g, w in zip(got, want):
            assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes())

    @pytest.mark.parametrize("a, k", [c[1:] for c in svd_oracle_cases()],
                             ids=[c[0] for c in svd_oracle_cases()])
    def test_a_supplied_decomposition_gives_the_same_bits(self, a, k, monkeypatch):
        # The decomposition of a full-rank call serves rank k with no eigh.
        want = truncated_svd(a, k)
        gram_vecs = truncated_svd(a, min(a.shape)).gram_vecs
        assert not gram_vecs.flags.writeable

        def no_eigh(*args, **kwargs):
            raise AssertionError("a supplied decomposition was decomposed again")

        monkeypatch.setattr(linalg, "eigh_lo", no_eigh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = truncated_svd(a, k, gram_vecs)
        assert got.gram_vecs is gram_vecs
        for g, w in zip(got, want):
            assert (g.shape, g.strides, g.tobytes()) == (w.shape, w.strides, w.tobytes())

    def test_a_decomposition_of_another_shape_is_refused(self):
        gram_vecs = truncated_svd(J32, 2).gram_vecs
        with pytest.raises(DimError):
            truncated_svd(J32.T[:, :2], 1, gram_vecs[:1, :1])
        with pytest.raises(DimError):
            truncated_svd(np.ones((3, 4)), 1, gram_vecs)

    def test_lapack_failure_raises_linalg_error(self, monkeypatch):
        # A LAPACK failure shows as an invalid flag, as in numpy's wrappers.
        def failing(a, tau):
            return np.full(a.shape, np.inf) - np.inf

        monkeypatch.setattr(linalg, "qr_reduced", failing)
        with pytest.raises(np.linalg.LinAlgError):
            truncated_svd(SplitMix64(1).normal_matrix(6, 4), 2)


class TestFrobResidual:
    def test_exact_factorization_is_zero(self):
        u = SplitMix64(2).normal_matrix(6, 2)
        v = SplitMix64(3).normal_matrix(4, 2)
        assert frob_residual(u @ v.T, u, v) <= 1e-12

    def test_dropped_direction_norm(self):
        res = truncated_svd(J32, 1)
        err = frob_residual(J32, res.u, res.v * res.s[None, :])
        assert abs(err - 1.0) <= 1e-10

    def test_zero_matrix_zero_factors(self):
        assert frob_residual(np.zeros((3, 2)), np.zeros((3, 1)),
                             np.zeros((2, 1))) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            frob_residual(np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((3, 1)))
