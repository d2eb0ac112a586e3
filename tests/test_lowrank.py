import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradlite.errors import RankError
from gradlite.linalg import frob_residual, matvec_t
from gradlite.lowrank import (LowRankFactor, approx_gradient, factorize,
                              projected_signal, static_basis)
from gradlite.rng import SplitMix64

J32 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
SVD = "svd"
RP = "random-projection"


def spectrum_matrix(seed, m, d, svals):
    stream = SplitMix64(seed)
    q1, _ = np.linalg.qr(stream.normal_matrix(m, min(m, d)))
    q2, _ = np.linalg.qr(stream.normal_matrix(d, min(m, d)))
    s = np.asarray(svals, dtype=np.float64)
    return (q1 * s[None, :]) @ q2.T


class TestFactorize:
    def test_hand_example_folds_singular_value(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        assert np.allclose(fac.u[:, 0], [0.0, 1.0, 0.0], atol=1e-10)
        assert np.allclose(fac.v[:, 0], [0.0, 2.0], atol=1e-10)
        assert fac.birth_step == 0

    def test_full_rank_is_exact(self):
        a = SplitMix64(4).normal_matrix(9, 5)
        fac = factorize(a, 5, SVD, 3, 1)
        assert frob_residual(a, fac.u, fac.v) <= 1e-8

    def test_random_projection_basis_ignores_matrix(self):
        a = SplitMix64(5).normal_matrix(8, 4)
        b = SplitMix64(6).normal_matrix(8, 4)
        fa = factorize(a, 3, RP, 0, seed=42)
        fb = factorize(b, 3, RP, 5, seed=42)
        assert np.array_equal(fa.u, fb.u)
        assert np.abs(fa.u.T @ fa.u - np.eye(3)).max() <= 1e-10
        # v adapts to the matrix even though u does not
        assert np.allclose(fa.v, a.T @ fa.u, atol=1e-12)

    def test_rank_rejected_not_clamped(self):
        with pytest.raises(RankError):
            factorize(J32, 3, SVD, 0, 0)

    def test_unknown_basis_mode_rejected(self):
        with pytest.raises(ValueError):
            factorize(J32, 1, "qr", 0, 0)


class TestProjectedSignal:
    def test_hand_example(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        assert np.allclose(projected_signal(fac, np.array([1.0, 1.0, 1.0])),
                           [1.0], atol=1e-10)

    def test_zero_signal(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        assert np.array_equal(projected_signal(fac, np.zeros(3)), [0.0])

    def test_coordinate_projection(self):
        u = np.eye(5)[:, :2]
        fac = LowRankFactor(u=u, v=np.zeros((4, 2)), birth_step=0)
        delta = np.array([3.0, -1.0, 2.0, 0.5, 7.0])
        assert np.array_equal(projected_signal(fac, delta), delta[:2])

    def test_intermediate_has_length_k(self):
        a = SplitMix64(9).normal_matrix(30, 12)
        for k in (1, 4, 9):
            fac = factorize(a, k, SVD, 0, 2)
            assert projected_signal(fac, np.ones(30)).shape == (k,)


class TestApproxGradient:
    def test_hand_example_rank_one(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        delta = np.array([1.0, 1.0, 1.0])
        assert np.allclose(approx_gradient(fac, delta), [0.0, 2.0], atol=1e-10)
        # exact chain-rule product differs in the dropped direction
        assert np.allclose(matvec_t(J32, delta), [1.0, 2.0])

    def test_full_rank_matches_exact(self):
        stream = SplitMix64(10)
        a = stream.normal_matrix(9, 6)
        delta = stream.normals(9)
        fac = factorize(a, 6, SVD, 0, 3)
        g = matvec_t(a, delta)
        assert np.linalg.norm(approx_gradient(fac, delta) - g) \
            <= 1e-10 * max(np.linalg.norm(g), 1.0)

    def test_zero_signal_gives_zero(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        assert np.array_equal(approx_gradient(fac, np.zeros(3)), [0.0, 0.0])

    @given(st.integers(0, 2**32), st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 6))
    def test_factored_order_identity(self, seed, m, d, k):
        stream = SplitMix64(seed)
        u = stream.normal_matrix(m, k)
        v = stream.normal_matrix(d, k)
        delta = stream.normals(m)
        fac = LowRankFactor(u=u, v=v, birth_step=0)
        fast = approx_gradient(fac, delta)
        ref = matvec_t(u @ v.T, delta)
        assert np.linalg.norm(fast - ref) <= 1e-10 * (1.0 + np.linalg.norm(ref))

    def test_full_rank_relative_exactness(self):
        for seed in range(5):
            stream = SplitMix64(seed)
            a = stream.normal_matrix(12, 7)
            delta = stream.normals(12)
            fac = factorize(a, 7, SVD, 0, seed)
            g = matvec_t(a, delta)
            rel = np.linalg.norm(approx_gradient(fac, delta) - g) \
                / max(np.linalg.norm(g), 1e-12)
            assert rel <= 1e-8

    def test_error_bounded_by_next_singular_value(self):
        # spectra with a factor-2 gap at the cut so subspace iteration converges
        svals = [8.0, 4.0, 2.0, 1.0, 0.5, 0.25]
        a = spectrum_matrix(17, 14, 6, svals)
        stream = SplitMix64(18)
        for k in (1, 2, 3, 5):
            fac = factorize(a, k, SVD, 0, 7)
            for _ in range(10):
                delta = stream.normals(14)
                err = np.linalg.norm(approx_gradient(fac, delta)
                                     - matvec_t(a, delta))
                assert err <= svals[k] * np.linalg.norm(delta) * (1.0 + 1e-6)

    def test_sign_flip_invariance(self):
        fac = factorize(J32, 1, SVD, 0, 0)
        flipped = LowRankFactor(u=-fac.u, v=-fac.v, birth_step=fac.birth_step)
        delta = np.array([0.3, -1.2, 0.9])
        assert np.allclose(approx_gradient(fac, delta),
                           approx_gradient(flipped, delta), atol=1e-14)


def test_static_basis_deterministic_and_orthonormal():
    b1 = static_basis(12, 4, seed=9)
    b2 = static_basis(12, 4, seed=9)
    assert np.array_equal(b1, b2)
    assert np.abs(b1.T @ b1 - np.eye(4)).max() <= 1e-10
    assert not np.array_equal(b1, static_basis(12, 4, seed=10))
