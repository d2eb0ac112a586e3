import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradlite import linalg
from gradlite.errors import DimError, RankError
from gradlite.linalg import frob_residual, matvec, matvec_t, truncated_svd
from gradlite.lowrank import (LowRankFactor, approx_gradient, factorize,
                              projected_signal, static_basis)
from gradlite.problems import make_lowrank_logistic, make_mlp, make_quadratic
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
        fac = factorize(J32, 1, SVD, 0)
        assert np.allclose(fac.u[:, 0], [0.0, 1.0, 0.0], atol=1e-10)
        assert np.allclose(fac.v[:, 0], [0.0, 2.0], atol=1e-10)

    def test_full_rank_is_exact(self):
        a = SplitMix64(4).normal_matrix(9, 5)
        fac = factorize(a, 5, SVD, 1)
        assert frob_residual(a, fac.u, fac.v) <= 1e-8

    def test_random_projection_basis_ignores_matrix(self):
        a = SplitMix64(5).normal_matrix(8, 7)
        b = SplitMix64(6).normal_matrix(8, 7)
        fa = factorize(a, 3, RP, seed=42, widths=(4, 3))
        fb = factorize(b, 3, RP, seed=42, widths=(4, 3))
        basis = static_basis(8, 3, 42)
        assert np.array_equal(fa.u, fb.u)
        assert fa.u.tobytes() == np.tile(basis, 2).tobytes()
        assert np.abs(basis.T @ basis - np.eye(3)).max() <= 1e-10
        # v adapts to the matrix even though u does not: each block's is
        # the one product J_b^T u_b, bit for bit.
        for (lo, hi), c in (((0, 4), slice(0, 3)), ((4, 7), slice(3, 6))):
            assert fa.v[lo:hi, c].tobytes() == (a[:, lo:hi].T @ basis).tobytes()

    def test_svd_factor_is_a_function_of_the_matrix_alone(self):
        a = SplitMix64(12).normal_matrix(10, 7)
        ref = factorize(a, 3, SVD, 0)
        for seed in (1, 2**40 + 3):
            fac = factorize(a, 3, SVD, seed)
            assert np.array_equal(fac.u, ref.u)
            assert np.array_equal(fac.v, ref.v)

    @pytest.mark.parametrize("mode", [SVD, RP])
    def test_factor_is_read_only_and_lifts_without_a_copy(self, mode):
        # One factor may serve several runs, so no run may write into it;
        # the lift reads v.T, which a Fortran-ordered v gives in C order.
        fac = factorize(SplitMix64(7).normal_matrix(9, 6), 3, mode, 0)
        for arr in (fac.u, fac.v):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        assert fac.u.flags.c_contiguous and fac.v.T.flags.c_contiguous

    def test_rank_rejected_not_clamped(self):
        with pytest.raises(RankError):
            factorize(J32, 3, SVD, 0)

    def test_unknown_basis_mode_rejected(self):
        with pytest.raises(ValueError):
            factorize(J32, 1, "qr", 0)

    @pytest.mark.parametrize("mode", [SVD, RP])
    def test_widths_must_tile_j_and_admit_the_rank(self, mode):
        a = SplitMix64(3).normal_matrix(3, 4)
        with pytest.raises(DimError):
            factorize(a, 1, mode, 0, widths=(1, 2))
        with pytest.raises(RankError):  # a block of no columns admits no rank
            factorize(a, 1, mode, 0, widths=(0, 4))
        with pytest.raises(RankError):  # the first block has one column
            factorize(a, 2, mode, 0, widths=(1, 3))
        assert factorize(a, 1, mode, 0, widths=(1, 3)).u.shape == (3, 2)


class TestProjectedSignal:
    def test_hand_example(self):
        fac = factorize(J32, 1, SVD, 0)
        assert np.allclose(projected_signal(fac, np.array([1.0, 1.0, 1.0])),
                           [1.0], atol=1e-10)

    def test_zero_signal(self):
        fac = factorize(J32, 1, SVD, 0)
        assert np.array_equal(projected_signal(fac, np.zeros(3)), [0.0])

    def test_coordinate_projection(self):
        u = np.eye(5)[:, :2]
        fac = LowRankFactor(u=u, v=np.zeros((4, 2)))
        delta = np.array([3.0, -1.0, 2.0, 0.5, 7.0])
        assert np.array_equal(projected_signal(fac, delta), delta[:2])

    def test_intermediate_has_length_k(self):
        a = SplitMix64(9).normal_matrix(30, 12)
        for k in (1, 4, 9):
            fac = factorize(a, k, SVD, 2)
            assert projected_signal(fac, np.ones(30)).shape == (k,)


class TestApproxGradient:
    def test_hand_example_rank_one(self):
        fac = factorize(J32, 1, SVD, 0)
        delta = np.array([1.0, 1.0, 1.0])
        assert np.allclose(approx_gradient(fac, delta), [0.0, 2.0], atol=1e-10)
        # exact chain-rule product differs in the dropped direction
        assert np.allclose(matvec_t(J32, delta), [1.0, 2.0])

    def test_full_rank_matches_exact(self):
        stream = SplitMix64(10)
        a = stream.normal_matrix(9, 6)
        delta = stream.normals(9)
        fac = factorize(a, 6, SVD, 3)
        g = matvec_t(a, delta)
        assert np.linalg.norm(approx_gradient(fac, delta) - g) \
            <= 1e-10 * max(np.linalg.norm(g), 1.0)

    def test_zero_signal_gives_zero(self):
        fac = factorize(J32, 1, SVD, 0)
        assert np.array_equal(approx_gradient(fac, np.zeros(3)), [0.0, 0.0])

    @given(st.integers(0, 2**32), st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 6))
    def test_factored_order_identity(self, seed, m, d, k):
        stream = SplitMix64(seed)
        u = stream.normal_matrix(m, k)
        v = stream.normal_matrix(d, k)
        delta = stream.normals(m)
        fac = LowRankFactor(u=u, v=v)
        fast = approx_gradient(fac, delta)
        ref = matvec_t(u @ v.T, delta)
        assert np.linalg.norm(fast - ref) <= 1e-10 * (1.0 + np.linalg.norm(ref))

    def test_full_rank_relative_exactness(self):
        for seed in range(5):
            stream = SplitMix64(seed)
            a = stream.normal_matrix(12, 7)
            delta = stream.normals(12)
            fac = factorize(a, 7, SVD, seed)
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
            fac = factorize(a, k, SVD, 7)
            for _ in range(10):
                delta = stream.normals(14)
                err = np.linalg.norm(approx_gradient(fac, delta)
                                     - matvec_t(a, delta))
                assert err <= svals[k] * np.linalg.norm(delta) * (1.0 + 1e-6)

    def test_sign_flip_invariance(self):
        fac = factorize(J32, 1, SVD, 0)
        flipped = LowRankFactor(u=-fac.u, v=-fac.v)
        delta = np.array([0.3, -1.2, 0.9])
        assert np.allclose(approx_gradient(fac, delta),
                           approx_gradient(flipped, delta), atol=1e-14)


def with_zeros(stream, a):
    """a with about a fifth of its entries replaced by +0.0 or -0.0."""
    zero = (stream.uniforms(a.size) < 0.2).reshape(a.shape)
    signed = np.where(stream.uniforms(a.size) < 0.5, 0.0, -0.0).reshape(a.shape)
    return np.where(zero, signed, a)


@st.composite
def block_layouts(draw):
    """(m, block widths, a rank every block admits, seed): 1-4 blocks."""
    m = draw(st.integers(1, 40))
    widths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    return m, widths, draw(st.integers(1, min(m, *widths))), draw(st.integers(0, 2**32))


def block_diagonal(stream, vs):
    """The blocks' v down the diagonal of one Fortran-ordered array whose
    other entries are zeros of either sign."""
    rows, cols = sum(v.shape[0] for v in vs), sum(v.shape[1] for v in vs)
    signed = np.where(stream.uniforms(rows * cols) < 0.5, 0.0, -0.0)
    out = np.asfortranarray(signed.reshape(rows, cols))
    row = col = 0
    for v in vs:
        out[row:row + v.shape[0], col:col + v.shape[1]] = v
        row, col = row + v.shape[0], col + v.shape[1]
    return out


class TestPack:
    """One projection and one lift through a packed factor (the blocks' u
    side by side, their v block-diagonal) give the per-block kernels' bits
    end to end, whatever the sign of the zeros outside the blocks."""

    @given(block_layouts())
    def test_packed_kernels_are_the_per_block_kernels_bit_for_bit(self, layout):
        m, widths, k, seed = layout
        stream = SplitMix64(seed)
        factors = [LowRankFactor(u=with_zeros(stream, stream.normal_matrix(m, k)),
                                 v=np.asfortranarray(with_zeros(stream, stream.normal_matrix(w, k))))
                   for w in widths]
        packed = LowRankFactor(u=np.hstack([f.u for f in factors]),
                               v=block_diagonal(stream, [f.v for f in factors]))
        delta = with_zeros(stream, stream.normals(m))
        signal = with_zeros(stream, stream.normals(k * len(widths)))
        signals = np.split(signal, len(widths))
        for got, want in (
                (matvec_t(packed.u, delta), [matvec_t(f.u, delta) for f in factors]),
                (matvec(packed.v, signal),
                 [matvec(f.v, s) for f, s in zip(factors, signals)]),
                (approx_gradient(packed, delta), [approx_gradient(f, delta) for f in factors])):
            assert got.tobytes() == np.concatenate(want).tobytes()

    def test_one_block_is_its_own_factor(self):
        # The one-block factor of a J has truncated_svd's u of it and
        # v = J.T @ u, whether or not the widths are spelled out.
        res = truncated_svd(J32, 1)
        for fac in (factorize(J32, 1, SVD, 0), factorize(J32, 1, SVD, 0, widths=(2,))):
            assert fac.u.tobytes() == res.u.tobytes()
            assert fac.v.tobytes() == (J32.T @ res.u).tobytes()


def no_eigh(*args, **kwargs):
    raise AssertionError("a kept decomposition was decomposed again")


class TestWholeJacobianFactor:
    """`factorize` on a whole J in blocks is the per-block route, bit for bit."""

    @staticmethod
    def per_block_route(j, widths, k, mode, seed):
        """Each block's factor on its own view of j: u and v = b.T @ u."""
        blocks = np.split(j, np.cumsum(widths)[:-1], axis=1)
        if mode == SVD:
            us = [truncated_svd(b, k).u for b in blocks]
        else:
            us = [static_basis(j.shape[0], k, seed)] * len(blocks)
        return us, [b.T @ u for b, u in zip(blocks, us)]

    @settings(max_examples=100)
    @given(block_layouts(), st.sampled_from([SVD, RP]))
    # A one-column u_b of a packed u is strided: rank 1 on several blocks.
    @example((7, [3, 5, 2], 1, 11), RP)
    @example((12, [1, 9], 1, 2**32), RP)
    @example((7, [3, 5, 2], 1, 11), SVD)
    def test_packed_factor_is_the_per_block_factors_placed(self, layout, mode):
        m, widths, k, seed = layout
        stream = SplitMix64(seed)
        j = with_zeros(stream, stream.normal_matrix(m, sum(widths)))
        j.flags.writeable = False
        fac = factorize(j, k, mode, seed, widths)
        us, vs = self.per_block_route(j, widths, k, mode, seed)
        assert fac.u.tobytes() == np.hstack(us).tobytes()
        # v is the blocks' v placed on its diagonal: their bits inside the
        # blocks, zeros (of either sign) outside.
        want = block_diagonal(stream, vs)
        assert np.array_equal(fac.v, want)
        row = 0
        for i, (width, v) in enumerate(zip(widths, vs)):
            inside = fac.v[row:row + width, i * k:i * k + k]
            assert np.ascontiguousarray(inside).tobytes() == np.ascontiguousarray(v).tobytes()
            row += width
        assert not (fac.u.flags.writeable or fac.v.flags.writeable)
        assert fac.u.flags.c_contiguous and fac.v.flags.f_contiguous

    @settings(max_examples=50)
    @given(block_layouts(), st.data())
    def test_a_memo_filled_at_one_rank_serves_another(self, layout, data):
        # Another rank on the same J reads each block's eigenvectors from
        # the memo instead of decomposing again, and gives a fresh factor's bits.
        m, widths, k, seed = layout
        stream = SplitMix64(seed)
        j = with_zeros(stream, stream.normal_matrix(m, sum(widths)))
        memo = [None] * len(widths)
        factorize(j, k, SVD, seed, widths, memo)
        filled = list(memo)
        assert all(vecs is not None and not vecs.flags.writeable for vecs in filled)
        other = data.draw(st.integers(1, min(m, *widths)))
        fresh = factorize(j, other, SVD, seed, widths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "eigh_lo", no_eigh)
            again = factorize(j, other, SVD, seed, widths, memo)
        assert all(got is want for got, want in zip(memo, filled, strict=True))
        for got, want in ((again.u, fresh.u), (again.v, fresh.v)):
            assert (got.strides, got.tobytes()) == (want.strides, want.tobytes())

    @pytest.mark.parametrize("widths", [None, (1, 1, 2)], ids=["one-block", "three-blocks"])
    def test_random_projection_leaves_the_memo_untouched(self, widths, decomposed):
        a = SplitMix64(3).normal_matrix(3, 4)
        slots = 1 if widths is None else len(widths)
        empty = [None] * slots
        factorize(a, 1, RP, 0, widths, empty)
        assert empty == [None] * slots
        filled = [None] * slots
        factorize(a, 1, SVD, 0, widths, filled)
        kept = list(filled)
        factorize(a, 1, RP, 0, widths, filled)
        assert all(got is want for got, want in zip(filled, kept, strict=True))
        assert len(decomposed) == slots  # the svd call's eighs alone

    @pytest.mark.parametrize("make", [
        lambda: make_quadratic(6, 10.0, 0.3, seed=4),
        lambda: make_lowrank_logistic(24, 6, 100.0, seed=5),
        lambda: make_mlp([3, 5, 1], 8, seed=6),
    ], ids=["quadratic", "lowrank-logistic", "mlp"])
    def test_one_eigh_per_block_serves_every_rank_of_a_problem_jacobian(self, make,
                                                                         decomposed):
        # Every rank's factor reads one memo of the Gram eigenvectors, as a
        # rate sweep's do, and has a fresh factor's bits.
        problem = make()
        j = problem.jacobian(problem.default_theta0())
        ranks = list(range(1, min(problem.m, *problem.block_dims) + 1))
        np.random.default_rng(problem.blocks).shuffle(ranks)
        memo = [None] * problem.blocks
        chained = {k: factorize(j, k, SVD, 0, problem.block_dims, memo) for k in ranks}
        assert len(decomposed) == problem.blocks
        for k in ranks:
            fresh = factorize(j, k, SVD, 0, problem.block_dims)
            for got, want in ((chained[k].u, fresh.u), (chained[k].v, fresh.v)):
                assert (got.shape, got.strides, got.tobytes()) \
                    == (want.shape, want.strides, want.tobytes())
        assert len(decomposed) == problem.blocks * (1 + len(ranks))


def no_qr(*args, **kwargs):
    raise AssertionError("a QR ran")


class TestBasisThenLift:
    """An svd factor picks each block's basis u, `truncated_svd`'s top-k
    left singular vectors, and one product gives the block's v = J_b^T u_b,
    so g~ = J^T U U^T d."""

    @pytest.mark.parametrize("widths", [(3, 9, 6), (9,), (6,), (2,), (2, 6, 4, 1)],
                             ids=["tall-wide-square", "wide", "square", "tall", "mixed"])
    def test_u_is_truncated_svds_u_on_either_side_of_the_rows(self, widths):
        j = SplitMix64(sum(widths)).normal_matrix(6, sum(widths))
        blocks = np.split(j, np.cumsum(widths)[:-1], axis=1)
        for k in range(1, min(6, *widths) + 1):
            fac = factorize(j, k, SVD, 0, widths)
            want = np.hstack([truncated_svd(b, k).u for b in blocks])
            assert fac.u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5, 5), (4, 9)], ids=["square", "wide"])
    def test_a_block_whose_rows_are_its_short_side_makes_no_qr(self, shape, monkeypatch):
        j = SplitMix64(3).normal_matrix(*shape)
        monkeypatch.setattr(linalg, "qr_r_raw", no_qr)
        for k in (1, shape[0]):
            fac = factorize(j, k, SVD, 0)
            assert np.abs(fac.v - j.T @ fac.u).max() <= 1e-12
            assert factorize(np.hstack([j] * 3), k, SVD, 0, (shape[1],) * 3).u.shape \
                == (shape[0], 3 * k)
        with pytest.raises(AssertionError, match="a QR ran"):  # a tall block needs its QR
            factorize(j[:, :2], 1, SVD, 0)

    @pytest.mark.parametrize("widths", [None, (1, 1, 2)], ids=["one-block", "three-blocks"])
    def test_a_decomposition_of_another_block_count_is_refused(self, widths):
        a = SplitMix64(3).normal_matrix(3, 4)
        kept = [None] * (1 if widths is None else len(widths))
        factorize(a, 1, SVD, 0, widths, kept)
        for wrong in (kept + kept[:1], kept * 2, kept[:-1], []):
            with pytest.raises(DimError):
                factorize(a, 1, SVD, 0, widths, wrong)

    @settings(max_examples=10)
    @pytest.mark.parametrize("make, k", [
        (lambda: make_quadratic(12, 10.0, 0.3, seed=4), 4),
        (lambda: make_lowrank_logistic(64, 16, 100.0, seed=5), 4),
        (lambda: make_mlp([8, 16, 16, 1], 32, seed=6), 8),
    ], ids=["quadratic", "lowrank-logistic", "mlp"])
    @given(seed=st.integers(0, 2**32))
    def test_the_step_splits_the_exact_probe_into_two_orthogonal_parts(self, make, k, seed):
        # At a refresh, g~_b = J_b^T U_b U_b^T d and D_b = J_b^T (I - U_b U_b^T) d.
        problem = make()
        stream = SplitMix64(seed)
        theta = problem.default_theta0() + 0.1 * stream.normals(problem.d)
        j = problem.jacobian(theta)
        fac = factorize(j, k, SVD, 0, problem.block_dims)
        delta = stream.normals(problem.m)
        g_tilde = approx_gradient(fac, delta)
        big_d = problem.probe(theta, delta) - g_tilde
        lo = 0
        for i, width in enumerate(problem.block_dims):
            hi, ub = lo + width, fac.u[:, i * k:i * k + k]
            want = j[:, lo:hi].T @ (ub @ (ub.T @ delta))
            g, d = g_tilde[lo:hi], big_d[lo:hi]
            assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)
            assert abs(g @ d) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(d)
            lo = hi


def test_static_basis_deterministic_and_orthonormal():
    b1 = static_basis(12, 4, seed=9)
    b2 = static_basis(12, 4, seed=9)
    assert np.array_equal(b1, b2)
    assert np.abs(b1.T @ b1 - np.eye(4)).max() <= 1e-10
    assert not np.array_equal(b1, static_basis(12, 4, seed=10))
