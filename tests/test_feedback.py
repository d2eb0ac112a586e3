import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gradlite
from gradlite.errors import DimError
from gradlite.feedback import EF_MODES, correct, estimate_delta, update_accumulator
from gradlite.linalg import matvec_t
from gradlite.problems import Dataset, LogisticProblem, make_mlp
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


def design_problem(a):
    """A logistic problem whose Jacobian is the design matrix a."""
    return LogisticProblem(Dataset(a, np.zeros(a.shape[0])))


class TestEstimateDelta:
    def test_hand_example(self):
        est = estimate_delta(design_problem(J32), np.zeros(2), np.array([1.0, 1.0, 1.0]),
                             np.array([0.0, 2.0]))
        assert np.allclose(est, [1.0, 0.0], atol=1e-12)

    def test_full_rank_residual_vanishes(self):
        stream = SplitMix64(12)
        a = stream.normal_matrix(6, 4)
        delta = stream.normals(6)
        g = matvec_t(a, delta)
        est = estimate_delta(design_problem(a), np.zeros(4), delta, g)
        assert np.linalg.norm(est) <= 1e-10

    def test_reads_the_problems_probe_at_theta(self):
        # The MLP answers the probe from its activations at theta, no J.
        prob = make_mlp([4, 6, 1], 10, seed=2)
        stream = SplitMix64(5)
        theta = prob.default_theta0() + stream.normals(prob.d)
        delta, g_tilde = stream.normals(prob.m), stream.normals(prob.d)
        want = prob.probe(theta, delta) - g_tilde
        assert estimate_delta(prob, theta, delta, g_tilde).tobytes() == want.tobytes()

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            estimate_delta(design_problem(J32), np.zeros(2), np.ones(3), np.zeros(3))


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

    def test_standard_mode_keeps_the_residual_itself(self):
        # The step's residual is a fresh array that nothing writes to, so
        # the accumulator is that array, not a copy; the paper rule's sum is
        # a new array and leaves r as it was.
        residual = np.array([1.0, 0.0])
        assert update_accumulator(np.zeros(2), residual, "ef-standard") is residual
        r = np.array([0.5, 0.5])
        summed = update_accumulator(r, residual, "paper")
        assert summed is not r and np.array_equal(r, [0.5, 0.5])

    def test_dim_mismatch(self):
        with pytest.raises(DimError):
            update_accumulator(np.zeros(2), np.zeros(3), "ef-standard")

    @pytest.mark.parametrize("mode", ["off", "standard", "", ["off"]])
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


def test_no_module_but_feedback_compares_against_a_mode_name():
    # A mode means its EF_MODES row; every other module reads the row or
    # the state's r, so a new mode is one new row.  Choosing a mode, as in
    # `ef_mode="off"`, is no comparison.
    def names_a_mode(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(names_a_mode(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and node.value in EF_MODES

    paths = sorted(Path(gradlite.__file__).parent.glob("*.py"))
    assert "feedback.py" in {path.name for path in paths}
    found = [f"{path.name}:{node.lineno}"
             for path in paths if path.name != "feedback.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Compare)
             and any(names_a_mode(side) for side in (node.left, *node.comparators))]
    assert found == []
