import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradlite.errors import DimError
from gradlite.feedback import correct, estimate_delta, update_accumulator
from gradlite.rng import SplitMix64

J32 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])


class TestCorrect:
    def test_recovers_exact_gradient_in_worked_example(self):
        r = update_accumulator(np.zeros(2), np.array([1.0, 0.0]), "ef-standard")
        assert np.array_equal(correct(np.array([0.0, 2.0]), r), [1.0, 2.0])

    def test_zero_accumulator_is_identity(self):
        g = np.array([0.4, -0.2, 1.1])
        assert np.array_equal(correct(g, np.zeros(3)), g)

    def test_zero_gradient_passes_accumulator_through(self):
        r = update_accumulator(np.zeros(2), np.array([3.0, -7.0]), "paper")
        assert np.array_equal(correct(np.zeros(2), r), [3.0, -7.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            correct(np.zeros(3), np.zeros(2))


class TestEstimateDelta:
    def test_hand_example(self):
        est = estimate_delta(J32, np.array([1.0, 1.0, 1.0]),
                             np.array([0.0, 2.0]), "exact")
        assert np.allclose(est, [1.0, 0.0], atol=1e-12)

    def test_full_rank_residual_vanishes(self):
        stream = SplitMix64(12)
        a = stream.normal_matrix(6, 4)
        delta = stream.normals(6)
        from gradlite.linalg import matvec_t
        g = matvec_t(a, delta)
        est = estimate_delta(a, delta, g, "exact")
        assert np.linalg.norm(est) <= 1e-10

    def test_probe_none_returns_zero_inexact(self):
        # No probe: a zero residual, whatever the Jacobian and signal.
        est = estimate_delta(None, None, np.array([1.0, 2.0]), "none")
        assert np.array_equal(est, [0.0, 0.0])

    def test_probe_none_returns_a_fresh_writeable_zero_vector(self):
        g_tilde = np.array([1.0, -2.0, 3.0])
        first = estimate_delta(None, None, g_tilde, "none")
        second = estimate_delta(None, None, g_tilde, "none")
        for est in (first, second):
            assert est.dtype == np.float64 and est.shape == g_tilde.shape
            assert est.flags.writeable
            assert est.tobytes() == np.zeros(3).tobytes()
        assert not np.shares_memory(first, second)
        first += 7.0
        assert second.tobytes() == np.zeros(3).tobytes()

    def test_unknown_probe(self):
        with pytest.raises(ValueError):
            estimate_delta(J32, np.zeros(3), np.zeros(2), "sketchy")


class TestUpdateAccumulator:
    def test_paper_mode_adds(self):
        r = update_accumulator(np.zeros(2), np.array([1.0, 0.0]), "paper")
        assert np.array_equal(r, [1.0, 0.0])

    def test_paper_mode_grows_without_bound_under_persistent_error(self):
        step = np.array([1.0, 0.0])
        r = update_accumulator(update_accumulator(np.zeros(2), step, "paper"),
                               step, "paper")
        assert np.array_equal(r, [2.0, 0.0])

    def test_standard_mode_replaces(self):
        r = update_accumulator(np.zeros(2), np.array([5.0, 5.0]), "ef-standard")
        r = update_accumulator(r, np.array([1.0, 0.0]), "ef-standard")
        assert np.array_equal(r, [1.0, 0.0])

    def test_standard_mode_stores_a_copy(self):
        residual = np.array([1.0, 0.0])
        r = update_accumulator(np.zeros(2), residual, "ef-standard")
        residual[0] = 9.0
        assert np.array_equal(r, [1.0, 0.0])

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            update_accumulator(np.zeros(2), np.zeros(3), "ef-standard")

    @pytest.mark.parametrize("mode", ["off", "standard", ""])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="unknown accumulator mode"):
            update_accumulator(np.zeros(2), np.zeros(2), mode)


class TestAccumulatorAlgebra:
    @given(st.integers(0, 2**32), st.integers(1, 40))
    def test_paper_mode_closed_form_is_bitwise(self, seed, steps):
        stream = SplitMix64(seed)
        r = np.zeros(5)
        running = np.zeros(5)
        for _ in range(steps):
            delta = stream.normals(5)
            r = update_accumulator(r, delta, "paper")
            running = running + delta
        assert np.array_equal(r, running)

    @given(st.integers(0, 2**32), st.integers(1, 40))
    def test_standard_mode_telescopes(self, seed, steps):
        # with r0 = 0 and exact residuals, sum(g^) = sum(g) - last residual
        stream = SplitMix64(seed)
        r = np.zeros(4)
        sum_ghat = np.zeros(4)
        sum_g = np.zeros(4)
        last = np.zeros(4)
        for _ in range(steps):
            g = stream.normals(4)
            g_tilde = stream.normals(4)
            ghat = correct(g_tilde, r)
            last = g - g_tilde
            r = update_accumulator(r, last, "ef-standard")
            sum_ghat += ghat
            sum_g += g
        assert np.linalg.norm(sum_ghat - sum_g + last) <= 1e-12 * (1.0 + steps)

    def test_zero_error_fixed_point_both_modes(self):
        for mode in ("paper", "ef-standard"):
            r = np.zeros(3)
            for _ in range(10):
                r = update_accumulator(r, np.zeros(3), mode)
                assert np.array_equal(r, np.zeros(3))
                g = np.array([1.0, -2.0, 0.5])
                assert np.array_equal(correct(g, r), g)
