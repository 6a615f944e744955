import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgreen import linalg
from gaussgreen.criteria import MMatrixCert, is_m_matrix
from gaussgreen.linalg import (
    NotPositiveDefiniteError,
    SingularMatrixError,
    Tolerances,
    as_covariance,
    cholesky,
    invert,
    is_nonneg,
    transience_bound,
)
from helpers import MIN_KERNEL, MIN_KERNEL_INV, random_spd


class TestTolerances:
    def test_defaults_valid(self):
        tol = Tolerances()
        assert 0 < tol.eps_zero < 1
        assert (linalg.EPS_PSD, linalg.SYM_TOL) == (1e-12, 1e-8)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 1.5])
    def test_eps_zero_range(self, bad):
        with pytest.raises(ValueError):
            Tolerances(eps_zero=bad)

    def test_zero_threshold_scales_with_matrix(self):
        tol = Tolerances(eps_zero=1e-10)
        assert tol.zero_threshold(np.eye(2)) == pytest.approx(1e-10)
        assert tol.zero_threshold(100 * np.eye(2)) == pytest.approx(1e-8)

    def test_scaled_widens_band(self):
        tol = Tolerances()
        assert Tolerances().scaled(10).eps_zero == pytest.approx(10 * tol.eps_zero)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_min_kernel_reconstructs(self):
        L = cholesky(MIN_KERNEL)
        np.testing.assert_allclose(L @ L.T, MIN_KERNEL, atol=1e-12)
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_singular_matrix_rejected(self):
        # determinant is exactly 0 (leading minors 1, 0.75, 0)
        G = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.5], [-0.5, 0.5, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(G)
        assert err.value.pivot_index == 2

    def test_negative_definite_fails_at_first_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(-np.eye(2))
        assert err.value.pivot_index == 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            cholesky(np.array([[1.0, 0.3], [0.0, 1.0]]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            as_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInvert:
    def test_identity(self):
        np.testing.assert_allclose(invert(np.eye(4)), np.eye(4))

    def test_min_kernel(self):
        np.testing.assert_allclose(invert(MIN_KERNEL), MIN_KERNEL_INV, atol=1e-12)

    def test_scalar(self):
        np.testing.assert_allclose(invert(np.array([[2.0]])), [[0.5]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            invert(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        M = invert(A)
        np.testing.assert_allclose(A @ M, np.eye(5), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_double_inversion_round_trip(self, n, seed):
        # condition number stays modest by construction
        A = random_spd(n, np.random.default_rng(seed))
        if np.linalg.cond(A) > 1e6:
            return
        np.testing.assert_allclose(invert(invert(A)), A, rtol=1e-8, atol=1e-8)


class TestInvertFromCholesky:
    def test_min_kernel(self):
        M = invert(MIN_KERNEL, factor=cholesky(MIN_KERNEL))
        np.testing.assert_allclose(M, MIN_KERNEL_INV, atol=1e-12)
        np.testing.assert_array_equal(M, M.T)

    def test_residual_guarantee_enforced(self):
        A = random_spd(6, np.random.default_rng(0))
        with pytest.raises(SingularMatrixError, match="residual"):
            invert(A, factor=1.001 * cholesky(A))

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_agrees_with_lu_inverse(self, n, seed):
        A = random_spd(n, np.random.default_rng(seed))
        np.testing.assert_allclose(
            invert(A, factor=cholesky(A)), invert(A), rtol=1e-9, atol=1e-12
        )



class TestCovariance:
    def test_reused_across_zero_bands(self):
        cov = linalg.covariance(MIN_KERNEL)
        np.testing.assert_allclose(cov.inverse, MIN_KERNEL_INV, atol=1e-12)
        np.testing.assert_array_equal(cov.inverse, cov.inverse.T)
        assert linalg.covariance(cov) is cov

class TestTrilInverse:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_matches_dense_inverse(self, n):
        L = cholesky(random_spd(n, np.random.default_rng(n)))
        X = linalg._tril_inverse(L)
        ref = np.linalg.inv(L)
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not np.triu(X, 1).any()


def _lu_pivots(A):
    """diag(U) of partially pivoted LU, one column at a time (reference)."""
    U = np.array(A, dtype=float)
    n = U.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        U[[k, p]] = U[[p, k]]
        U[k + 1 :, k:] -= np.outer(U[k + 1 :, k] / U[k, k], U[k, k:])
    return np.diag(U).copy()


def _planted_lu(rng, n, k, pivot):
    """``Lo @ U`` with ``|Lo_ij| < 1`` below a unit diagonal and ``U[k, k] =
    pivot``: partial pivoting keeps the row order (and undoes any row
    permutation), so the pivots are ``diag(U)`` up to roundoff."""
    Lo = np.tril(rng.uniform(-0.5, 0.5, size=(n, n)), -1) + np.eye(n)
    U = np.triu(rng.uniform(-0.5, 0.5, size=(n, n)), 1)
    np.fill_diagonal(U, rng.uniform(1.0, 2.0, size=n))
    U[k, k] = pivot
    return Lo @ U


class TestGaussJordan:
    """``invert`` without a factor: its elimination pivots, which are the
    diagonal of U in LU with partial pivoting, and the floor on them."""

    @pytest.mark.parametrize("n", [31, 32, 33, 70])
    def test_pivots_are_lu_diagonal(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, n))
        pivots = linalg._lu_pivots(A)
        np.testing.assert_allclose(pivots, _lu_pivots(A), rtol=1e-9)
        np.testing.assert_allclose(A @ invert(A), np.eye(n), atol=1e-10)

    @pytest.mark.parametrize("n, k", [(2, 1), (70, 40)])
    def test_tiny_pivot_raises(self, n, k):
        with pytest.raises(SingularMatrixError) as err:
            invert(_planted_lu(np.random.default_rng(n), n, k, 1e-13))
        assert err.value.index == k

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), e=st.integers(0, 15),
           seed=st.integers(0, 2**32 - 1))
    def test_floor_matches_reference_pivots(self, data, n, e, seed):
        k = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        A = _planted_lu(rng, n, k, 10.0**-e)[rng.permutation(n)]
        with np.errstate(divide="ignore", invalid="ignore"):
            at_floor = np.flatnonzero(np.abs(_lu_pivots(A)) <= linalg.EPS_PSD)
        if at_floor.size:
            with pytest.raises(SingularMatrixError, match="singular at pivot") as err:
                invert(A)
            assert err.value.index == at_floor[0]
        else:
            invert(A)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), e=st.integers(0, 15),
           seed=st.integers(0, 2**32 - 1), planted=st.booleans())
    def test_pivots_bounded_by_inverse(self, data, n, e, seed, planted):
        # PA = LU with |L| <= 1 gives U⁻¹ = A⁻¹ Pᵀ L, so no pivot is below
        # 1 / (n max|A⁻¹|): the bound behind invert's gate on the pivot loop.
        rng = np.random.default_rng(seed)
        if planted:
            k = data.draw(st.integers(0, n - 1))
            A = _planted_lu(rng, n, k, 10.0**-e)[rng.permutation(n)]
        else:
            A = rng.normal(size=(n, n))
        bound = np.abs(_lu_pivots(A)).min() * n * np.abs(np.linalg.inv(A)).max()
        assert bound >= 1.0 - 1e-9

    @pytest.mark.parametrize("n", [31, 33, 65, 200])
    def test_agrees_with_factor_path(self, n):
        A = random_spd(n, np.random.default_rng(n))
        np.testing.assert_allclose(
            invert(A), invert(A, factor=cholesky(A)), rtol=1e-9, atol=1e-12
        )


class TestTransienceBound:
    def test_single_state(self):
        assert transience_bound(np.array([[0.9]])) == pytest.approx(0.9)

    def test_zero_matrix(self):
        assert transience_bound(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize(
        "T", [[[1.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.6, 0.6], [0.6, 0.6]]]
    )
    def test_not_transient_is_infinite(self, T):
        assert transience_bound(np.array(T)) == np.inf

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 10_000))
    def test_bounds_spectral_radius(self, n, seed):
        rng = np.random.default_rng(seed)
        T = rng.uniform(0.0, 1.0, size=(n, n))
        T *= rng.uniform(0.1, 0.99) / T.sum(axis=1, keepdims=True)
        oracle = float(np.abs(np.linalg.eigvals(T)).max())
        assert oracle <= transience_bound(T) + 1e-12 < 1.0 + 1e-12


class TestSpectralRadius:
    """rho(B) of a nonnegative B, enclosed by the Collatz-Wielandt bounds of
    ``transience_bound`` and of the ``is_m_matrix`` certificate."""

    def test_zero_matrix(self):
        assert transience_bound(np.zeros((3, 3))) == 0.0
        cert = is_m_matrix(np.eye(3))  # c = 1, B = 0
        assert isinstance(cert, MMatrixCert)
        rho = float(np.abs(np.linalg.eigvals(cert.B)).max())
        assert cert.rho_lower == cert.rho_upper == rho == 0.0

    def test_cubic_root_case(self):
        # char poly x^3 - x^2 - 2x + 1; dense eigensolver is the oracle
        B = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        oracle = float(np.abs(np.linalg.eigvals(B)).max())
        assert oracle == pytest.approx(1.8019, abs=1e-4)
        cert = is_m_matrix(2.0 * np.eye(3) - B)
        assert isinstance(cert, MMatrixCert)
        np.testing.assert_allclose(cert.B, B)
        assert float(np.abs(np.linalg.eigvals(cert.B)).max()) == pytest.approx(oracle, rel=1e-9)
        assert cert.rho_lower - 1e-12 <= oracle <= cert.rho_upper + 1e-12
        assert oracle / 2.0 <= transience_bound(B / 2.0) + 1e-12 < 1.0


class TestIsNonneg:
    def test_identity(self):
        assert is_nonneg(np.eye(2), 1e-12).ok

    def test_reports_worst_entry(self):
        check = is_nonneg(np.array([[2.0, -1.0], [-1.0, 2.0]]), 1e-12)
        assert not check.ok
        assert check.min_value == -1.0
        assert check.index in {(0, 1), (1, 0)}

    def test_tolerance_semantics(self):
        A = np.array([[-1e-14, 1.0], [1.0, 1.0]])
        assert is_nonneg(A, 1e-12).ok
        assert not is_nonneg(A, 1e-16).ok


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cholesky_succeeds_iff_leading_minors_positive(seed):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(4, 4))
    A = 0.5 * (W + W.T) + rng.uniform(-1.0, 3.0) * np.eye(4)
    minors = [np.linalg.det(A[: k + 1, : k + 1]) for k in range(4)]
    if min(abs(m) for m in minors) < 1e-6:  # skip borderline draws
        return
    expect_pd = all(m > 0 for m in minors)
    if expect_pd:
        L = cholesky(A)
        np.testing.assert_allclose(L @ L.T, A, atol=1e-10)
        assert np.allclose(np.triu(L, 1), 0.0)
    else:
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(A)
