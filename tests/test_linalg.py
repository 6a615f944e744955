import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgreen import linalg
from gaussgreen.criteria import (
    MMatrixCert,
    classify_green,
    find_signature,
    is_id_square,
    is_m_matrix,
)
from gaussgreen.decomposition import decompose
from gaussgreen.kernels import scale_conjugate
from gaussgreen.simulate import ChainSpec, validate_chain
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


EMPTY_INPUT_CALLS = {
    "as_covariance": as_covariance,
    "cholesky": cholesky,
    "covariance": linalg.covariance,
    "invert": lambda E: invert(E, factor=E),
    "transience_bound": transience_bound,
    "is_m_matrix": is_m_matrix,
    "find_signature": find_signature,
    "is_id_square": is_id_square,
    "classify_green": classify_green,
    "decompose": decompose,
    "scale_conjugate": lambda E: scale_conjugate(E, np.ones(0)),
    "validate_chain": lambda E: validate_chain(ChainSpec(E, np.zeros(0))),
}


@pytest.mark.parametrize("name", EMPTY_INPUT_CALLS)
def test_empty_matrix_rejected(name):
    with pytest.raises(ValueError, match="is empty"):
        EMPTY_INPUT_CALLS[name](np.zeros((0, 0)))


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

    @pytest.mark.parametrize("scale", [2.0**-100, 1e-13, 1.0, 2.0**100])
    def test_asymmetric_rejected(self, scale):
        # The slack is SYM_TOL * sqrt(|G_ii G_jj|), so it scales with G.
        for M in ([[1.0, 0.3], [0.0, 1.0]], [[1.0, 0.5], [0.4, 1.0]],
                  [[1.0, 0.5], [0.5 + 2e-8, 1.0]]):
            with pytest.raises(ValueError, match="not symmetric"):
                cholesky(scale * np.array(M))
        near = scale * np.array([[1.0, 0.5], [0.5 + 5e-9, 1.0]])
        assert as_covariance(near) is near

    def test_symmetry_slack_reads_the_diagonal_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for M in ([[0.0, 0.0], [0.0, 1.0]], [[-1.0, 2.0], [2.0, 0.0]],
                      [[-4.0, 0.5], [0.5 + 1e-8, -1.0]]):
                M = np.array(M)
                assert as_covariance(M) is M
            for M in ([[0.0, 1e-300], [0.0, 1.0]], [[-1.0, 0.5], [0.4, -4.0]]):
                with pytest.raises(ValueError, match="not symmetric"):
                    as_covariance(np.array(M))

    def test_tiny_asymmetric_covariance_is_not_a_singular_matrix(self):
        # Below unit scale the old slack max(1, |G_ij|) let this through to
        # invert, which failed on its residual with a SingularMatrixError.
        G = 2.0**-40 * np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match=r"not symmetric: \|covariance\[0,1\]"):
            classify_green(G)

    @pytest.mark.parametrize("scale", [2.0**-100, 1e-13, 1.0, 2.0**100])
    def test_pivot_floor_is_relative_to_the_diagonal(self, scale):
        # Pivot 1 of [[1, 1], [1, 1 + h]] is h: above the floor at h = 1e-11,
        # at or below it at h = 1e-13, whatever the scale.
        L = cholesky(scale * np.eye(2))
        np.testing.assert_allclose(L, np.sqrt(scale) * np.eye(2))
        assert cholesky(scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]))[1, 1] > 0
        near = scale * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        for factor in (cholesky, linalg._cholesky_unblocked):
            with pytest.raises(NotPositiveDefiniteError) as err:
                factor(near)
            assert err.value.pivot_index == 1

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            as_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInvert:
    def test_identity(self):
        A = np.eye(4)
        np.testing.assert_allclose(invert(A, factor=cholesky(A)), np.eye(4))

    def test_min_kernel(self):
        np.testing.assert_allclose(
            invert(MIN_KERNEL, factor=cholesky(MIN_KERNEL)), MIN_KERNEL_INV, atol=1e-12
        )

    def test_scalar(self):
        A = np.array([[2.0]])
        np.testing.assert_allclose(invert(A, factor=cholesky(A)), [[0.5]])

    def test_singular_raises(self):
        # L @ L.T is the singular A exactly; the zero pivot of L is named.
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError) as err:
            invert(A, factor=np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert err.value.index == 1

    def test_product_is_identity(self):
        A = random_spd(5, np.random.default_rng(3))
        M = invert(A, factor=cholesky(A))
        np.testing.assert_allclose(A @ M, np.eye(5), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
    def test_double_inversion_round_trip(self, n, seed):
        # condition number stays modest by construction
        A = random_spd(n, np.random.default_rng(seed))
        if np.linalg.cond(A) > 1e6:
            return
        M = invert(A, factor=cholesky(A))
        np.testing.assert_allclose(invert(M, factor=cholesky(M)), A, rtol=1e-8, atol=1e-8)


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
            invert(A, factor=cholesky(A)), np.linalg.inv(A), rtol=1e-9, atol=1e-12
        )



class TestCovariance:
    def test_reused_across_zero_bands(self):
        cov = linalg.covariance(MIN_KERNEL)
        # C = D G D with D = diag(G)^{-1/2}, and C⁻¹ = D⁻¹ G⁻¹ D⁻¹.
        root = np.sqrt([1.0, 2.0, 3.0])
        np.testing.assert_allclose(cov.d, 1.0 / root, rtol=1e-15)
        np.testing.assert_allclose(cov.C, MIN_KERNEL / np.outer(root, root), atol=1e-15)
        np.testing.assert_allclose(cov.inverse, MIN_KERNEL_INV * np.outer(root, root),
                                   atol=1e-12)
        np.testing.assert_array_equal(cov.inverse, cov.inverse.T)
        assert linalg.covariance(cov) is cov

    def test_power_of_two_scaling_leaves_c_unchanged(self):
        rng = np.random.default_rng(16)
        G = random_spd(6, rng)
        base = linalg.covariance(G)
        for _ in range(5):
            f = np.exp2(rng.integers(-40, 41, size=6).astype(float))
            cov = linalg.covariance(f[:, None] * G * f[None, :])
            np.testing.assert_array_equal(cov.C, base.C)
            np.testing.assert_array_equal(cov.inverse, base.inverse)

class TestTrilInverse:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
    def test_matches_dense_inverse(self, n):
        A = random_spd(n, np.random.default_rng(n))
        L = cholesky(A)
        X = linalg._tril_inverse(L)
        ref = np.linalg.inv(L)
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()
        assert not np.triu(X, 1).any()
        np.testing.assert_allclose(
            invert(A, factor=L), np.linalg.inv(A), rtol=1e-9, atol=1e-12
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
