import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgreen import decomposition
from gaussgreen.criteria import (
    MMatrixCert,
    _bracket,
    classify_green,
    is_id_square,
    transience_bound,
)
from gaussgreen.decomposition import (
    GreenDecomposition,
    NotInfinitelyDivisibleError,
    NumericalFailureError,
    decompose,
)
from gaussgreen.kernels import (
    brownian_cov,
    fbm_cov,
    random_green,
    scale_conjugate,
    sheet_counterexample,
)
from gaussgreen.linalg import Tolerances, covariance, eye_minus
from gaussgreen.simulate import ChainSpec, simulate_green, validate_chain
from helpers import MIN_KERNEL, green_from_chain, min_kernel, visit_matrix

# expected visit-count matrix of the min-kernel chain: 2 * G_ij * u_j / u_i
MIN_KERNEL_G = np.array(
    [[2.0, 10.0 / 3.0, 4.0], [6.0 / 5.0, 4.0, 24.0 / 5.0], [1.0, 10.0 / 3.0, 6.0]]
)


def scaling_vectors(G):
    """``u`` of the decomposition, ``(S G S) 𝟙``, and of the certificate,
    ``(S C S) 𝟙`` on the correlation matrix ``C``, computed apart."""
    return decompose(G).u, is_id_square(G).cert.u


def rebuilt(dec):
    """The covariance ``dec``'s chain realizes, rebuilt from its ``T``."""
    return green_from_chain(dec.signature.signs, dec.u, dec.c, dec.T)


def assert_detailed_balance(dec):
    """``μ_i T_ij = μ_j T_ji`` with ``μ = u²``, within 1e-12 of the largest
    ``μ_i T_ij``."""
    flow = (dec.u**2)[:, None] * dec.T
    assert np.abs(flow - flow.T).max() <= 1e-12 * np.abs(flow).max()


def correlation(G):
    d = 1.0 / np.sqrt(np.diag(G))
    return d[:, None] * G * d[None, :]


class TestRowSumScaling:
    """The chain's ``u = (S G S) 𝟙`` is read on the scale of ``G``; the
    verdict's certificate reads ``C``."""

    def test_min_kernel(self):
        u, cert_u = scaling_vectors(MIN_KERNEL)
        np.testing.assert_allclose(u, [3.0, 5.0, 6.0])
        np.testing.assert_allclose(cert_u, correlation(MIN_KERNEL).sum(axis=1))

    def test_identity(self):
        for u in scaling_vectors(np.eye(3)):
            np.testing.assert_allclose(u, np.ones(3))

    def test_scalar(self):
        u, cert_u = scaling_vectors(np.array([[2.0]]))
        np.testing.assert_allclose(u, [2.0])
        np.testing.assert_allclose(cert_u, [1.0])

    def test_inverse_maps_scaling_to_ones(self):
        u, cert_u = scaling_vectors(MIN_KERNEL)
        np.testing.assert_allclose(np.linalg.inv(MIN_KERNEL) @ u, np.ones(3), atol=1e-12)
        C = correlation(MIN_KERNEL)
        np.testing.assert_allclose(np.linalg.inv(C) @ cert_u, np.ones(3), atol=1e-12)

    def test_decomposition_scaling_is_the_certificate_vector(self):
        # The decomposition's u certifies S G⁻¹ S as the verdict's u
        # certifies S C⁻¹ S.
        S0 = np.diag([1.0, -1.0, 1.0, 1.0])
        instances = [MIN_KERNEL, S0 @ min_kernel(4) @ S0,
                     scale_conjugate(random_green(5, seed=4)[1], [1, 3, 0.5, 2, 1])]
        for G in instances:
            verdict = is_id_square(G)
            cert, sig = verdict.cert, verdict.signature
            dec = decompose(G)
            np.testing.assert_array_equal(dec.signature.signs, sig.signs)
            np.testing.assert_array_equal(dec.u, sig.conjugate(G).sum(axis=1))
            np.testing.assert_array_equal(cert.u, sig.conjugate(correlation(G)).sum(axis=1))
            A = cert.c * np.eye(len(cert.u)) - cert.B
            np.testing.assert_allclose(A @ cert.u, np.ones(len(cert.u)), atol=1e-10)
            np.testing.assert_allclose(A, sig.conjugate(np.linalg.inv(correlation(G))),
                                       atol=1e-10)
            A_G = sig.conjugate(np.linalg.inv(G))
            assert isinstance(_bracket(A_G, dec.u), MMatrixCert)
            np.testing.assert_allclose(A_G @ dec.u, np.ones(len(dec.u)), atol=1e-10)


class TestDecompose:
    def test_min_kernel_numbers(self):
        dec = decompose(MIN_KERNEL)
        assert dec.c == pytest.approx(2.0)
        np.testing.assert_allclose(dec.u, [3.0, 5.0, 6.0])
        np.testing.assert_allclose(
            dec.T.sum(axis=1), [5.0 / 6.0, 9.0 / 10.0, 11.0 / 12.0], atol=1e-12
        )
        g = visit_matrix(MIN_KERNEL, dec)
        np.testing.assert_allclose(g, MIN_KERNEL_G, atol=1e-10)
        np.testing.assert_allclose((np.eye(3) - dec.T) @ g, np.eye(3), atol=1e-12)

    def test_identity(self):
        dec = decompose(np.eye(3))
        assert dec.c == pytest.approx(1.0)
        np.testing.assert_allclose(dec.T, 0.0)
        np.testing.assert_allclose(dec.kappa, 1.0)
        np.testing.assert_allclose(visit_matrix(np.eye(3), dec), np.eye(3))

    def test_scaled_min_kernel_round_trip(self):
        G = scale_conjugate(MIN_KERNEL, [2.0, 1.0, 1.0])
        dec = decompose(G)
        np.testing.assert_allclose(rebuilt(dec), G, atol=1e-10)

    def test_conjugated_input_round_trip(self):
        S0 = np.diag([1.0, -1.0, 1.0])
        G = S0 @ MIN_KERNEL @ S0
        dec = decompose(G)
        assert not dec.signature.is_trivial
        np.testing.assert_allclose(rebuilt(dec), G, atol=1e-10)

    def test_not_id_raises(self):
        _, G = sheet_counterexample()
        with pytest.raises(NotInfinitelyDivisibleError):
            decompose(G)

    def test_kappa_closes_rows(self):
        dec = decompose(fbm_cov([1.0, 2.0, 3.0], 0.5))
        np.testing.assert_allclose(dec.T.sum(axis=1) + dec.kappa, 1.0, atol=1e-12)
        assert dec.kappa.min() > 0

    def test_block_diagonal_components(self):
        G = np.zeros((4, 4))
        G[:3, :3] = MIN_KERNEL
        G[3, 3] = 2.0
        dec = decompose(G)
        assert len(dec.signature.components) == 2
        np.testing.assert_allclose(rebuilt(dec), G, atol=1e-10)

    @pytest.mark.parametrize("eps", [1e-6, 0.01])
    @pytest.mark.parametrize(
        "G, n_components",
        [(brownian_cov([1.0, 1.000000001, 2.0]), 2),
         (scale_conjugate(brownian_cov([1.0, 2.0, 3.0, 4.0, 5.0]), [1000.0] * 5), 1)],
        ids=["close_points", "scaled_1e6"],
    )
    def test_band_split_component_agrees_with_classify(self, G, n_components, eps):
        # Close points give C⁻¹ entries of 1e9 next to ones of -1.4, so the
        # band drops nonzero entries from the sign graph and one connected
        # component falls apart; the chain is still built and verified.  A
        # uniform scaling of G leaves C, and so the graph, unchanged.
        tol = Tolerances(eps_zero=eps)
        cls = classify_green(G, tol)
        assert cls.kind == "green"
        assert len(cls.verdict.signature.components) == n_components
        dec = decompose(G, tol)
        np.testing.assert_array_equal(dec.signature.signs, cls.verdict.signature.signs)
        # The scaling undone on g read from G.  A rebuild from T misses 1e-9
        # on the close points by 1.4e-16: T_22 = 1 - 1e-9 holds its distance
        # to 1 to 1e-7 relative, which a chain of uniform rate c cannot avoid.
        su = dec.signature.signs * dec.u
        back = su[:, None] * visit_matrix(G, dec) / su / dec.c
        assert np.abs(back - G).max() <= 1e-9 * np.abs(G).max()

    def test_chain_is_tied_to_g(self):
        # T shrunk by a relative 1e-6, or one entry of it grown by 1e-6, with
        # the difference moved into kappa, is still a valid chain; only
        # (I - T) g 𝟙 = 𝟙, with g 𝟙 read from G, sees it.
        G = fbm_cov(np.arange(1.0, 41.0), 0.5)
        dec = decompose(G)
        x = visit_matrix(G, dec).sum(axis=1)
        decomposition._validate(dec, x)
        grown = dec.T.copy()
        grown[3, 4] *= 1.0 + 1e-6
        for T in (dec.T * (1.0 - 1e-6), grown):
            bad = replace(dec, T=T, kappa=dec.kappa + (dec.T - T).sum(axis=1))
            validate_chain(ChainSpec(bad.T, bad.kappa, bad.c))
            with pytest.raises(NumericalFailureError, match=r"^\(I - T\) g 𝟙 deviates"):
                decomposition._validate(bad, x)

    def test_chain_from_the_certificate_is_the_conjugated_inverse(self):
        # T is built in the certificate's buffer c' I - S C⁻¹ S; it has the
        # bits of the chain built from c I - S D C⁻¹ D S, as sign flips,
        # negation and the order of the two scalings by D are exact.  The
        # min kernel split into two blocks gives exact zeros in C⁻¹.
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 30):
            x = np.cumsum(rng.uniform(0.1, 2.0, n))
            s = rng.choice([-1.0, 1.0], n)
            split = min_kernel(n)
            split[: n // 2, n // 2 :] = split[n // 2 :, : n // 2] = 0.0
            for G in (split, brownian_cov(x), fbm_cov(x, 0.5), random_green(n, n)[1]):
                G = scale_conjugate(G * s[:, None] * s, np.ldexp(1.0, rng.integers(-9, 10, n)))
                dec, cov = decompose(G), covariance(G)
                A = dec.signature.conjugate(cov.inverse * cov.d[:, None] * cov.d)
                c = A.diagonal().max()
                T = eye_minus(A, c)
                T *= dec.u
                T /= (c * dec.u)[:, None]
                assert dec.c == c
                np.testing.assert_array_equal(dec.T, T)
                assert np.array_equal(np.signbit(dec.T), np.signbit(T))


def test_peak_memory_is_three_matrices():
    # Past a built Covariance the peak is T and the two working arrays of
    # validate_chain: the buffer for S G S is freed once u and x = g 𝟙 are
    # read from it, and no n×n g is kept.
    n = 300
    cov = covariance(fbm_cov(np.arange(1.0, n + 1.0), 0.5))
    decompose(cov)
    tracemalloc.start()
    try:
        decompose(cov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * n * n, peak / (8 * n * n)


def scaled_draws():
    """300 draws of ``D G D``, ``D = diag(2^k)``, ``k`` uniform on [-40, 40],
    over Brownian, fBm β = 0.5 and fBm β = 1.5 (not ID) on 1..n, n = 3-8."""
    rng = np.random.default_rng(5)
    families = (brownian_cov, lambda x: fbm_cov(x, 0.5), lambda x: fbm_cov(x, 1.5))
    for t in range(300):
        n = int(rng.integers(3, 9))
        scale = np.ldexp(1.0, rng.integers(-40, 41, size=n))
        G = families[t % 3](np.arange(1.0, n + 1))
        yield G * scale[:, None] * scale


def signed_inputs():
    """Brownian, fBm and random-green covariances, n = 2-60, on random grids
    and conjugated by random signs."""
    rng = np.random.default_rng(7)
    for t in range(60):
        n = int(rng.integers(2, 61))
        x = np.cumsum(rng.uniform(0.1, 2.0, n))
        if t % 3 == 0:
            G = brownian_cov(x)
        elif t % 3 == 1:
            G = fbm_cov(x, float(rng.uniform(0.05, 1.0)))
        else:
            G = random_green(n, int(rng.integers(1 << 16)))[1]
        s = rng.choice([-1.0, 1.0], n)
        yield G * s[:, None] * s


def test_decompose_and_simulate_certify_the_same_chains():
    # decompose certifies its chain with x = g 𝟙; simulate, reading the same
    # chain from a file, solves (I - T) x = 𝟙.  Every chain decompose returns
    # must pass simulate's check, and the two bounds on rho(T) must agree.
    cases = [(G, 1e-10) for G in scaled_draws()]
    cases += [(G, eps) for G in signed_inputs() for eps in (1e-10, 0.01, 0.3)]
    chains = 0
    for G, eps in cases:
        try:
            dec = decompose(G, Tolerances(eps))
        except (NotInfinitelyDivisibleError, NumericalFailureError):
            continue
        chains += 1
        rho = validate_chain(ChainSpec(dec.T, dec.kappa, dec.c))
        closed_form = transience_bound(dec.T, visit_matrix(G, dec).sum(axis=1))
        assert abs(closed_form - rho) <= 1e-9 * (1.0 - rho)
    assert chains >= 100


def unit_scaled_chain(G):
    """``T = B / c`` from ``G⁻¹ = c I - B``, the chain with ``u = 𝟙``."""
    A = np.linalg.inv(G)
    c = A.diagonal().max()
    return (c * np.eye(len(A)) - A) / c, c


class TestUnitScaling:
    """A ``green`` ``G`` is the visit-count matrix of ``B / c`` itself."""

    def test_green_instance_allows_unit_scaling(self):
        assert classify_green(MIN_KERNEL).kind == "green"
        T, c = unit_scaled_chain(MIN_KERNEL)
        row_sums = T.sum(axis=1)
        assert T.min() >= 0.0
        assert (row_sums <= 1.0 + 1e-12).all()
        assert (row_sums < 1.0 - 1e-12).any()
        np.testing.assert_allclose(1.0 - row_sums, [0.5, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.linalg.inv(np.eye(3) - T) / c, MIN_KERNEL, atol=1e-10)

    def test_non_dominant_instance_rejected(self):
        G = scale_conjugate(MIN_KERNEL, [1.0, 10.0, 1.0])
        assert classify_green(G).kind == "id_not_green"
        T, _ = unit_scaled_chain(G)
        assert T.sum(axis=1).max() > 1.0

    def test_random_green_instances_allow_unit_scaling(self):
        for seed in (3, 5, 8):
            _, g = random_green(5, seed=seed, symmetric=True)
            assert classify_green(g).kind == "green"
            T, c = unit_scaled_chain(g)
            row_sums = T.sum(axis=1)
            assert T.min() >= 0.0
            assert (row_sums <= 1.0 + 1e-12).all()
            assert (row_sums < 1.0 - 1e-12).any()
            np.testing.assert_allclose(np.linalg.inv(np.eye(5) - T) / c, g, atol=1e-9)


class TestReconstruct:
    def test_scalar_case(self):
        G = np.array([[2.0]])
        dec = decompose(G)
        assert dec.c == pytest.approx(0.5)
        np.testing.assert_allclose(visit_matrix(G, dec), [[1.0]])
        np.testing.assert_allclose(rebuilt(dec), [[2.0]])

    def test_identity_exact(self):
        dec = decompose(np.eye(2))
        np.testing.assert_array_equal(rebuilt(dec), np.eye(2))


class TestSymmetricGreen:
    """The chain is in detailed balance with ``μ = u²``, so its Green matrix
    ``g_ij / μ_j`` is symmetric: ``μ_i T_ij = u_i B_ij u_j / c`` and ``B`` is
    symmetric."""

    def test_identity(self):
        dec = decompose(np.eye(3))
        np.testing.assert_allclose(dec.u**2, np.ones(3))
        assert_detailed_balance(dec)

    def test_min_kernel_detailed_balance(self):
        dec = decompose(MIN_KERNEL)
        mu = dec.u**2
        np.testing.assert_allclose(mu, [9.0, 25.0, 36.0])
        assert dec.T[0, 1] * mu[0] == pytest.approx(dec.T[1, 0] * mu[1])
        assert_detailed_balance(dec)
        g = visit_matrix(MIN_KERNEL, dec)
        np.testing.assert_allclose(g * mu[:, None], (g * mu[:, None]).T, atol=1e-10)

    def test_scalar(self):
        dec = decompose(np.array([[2.0]]))
        np.testing.assert_allclose(dec.u**2, [4.0])
        assert_detailed_balance(dec)

    def test_broken_balance_raises(self):
        # T_01 grown by 1 % breaks μ_0 T_01 = μ_1 T_10 by 1 % of it.
        dec = decompose(MIN_KERNEL)
        T = dec.T.copy()
        T[0, 1] *= 1.01
        with pytest.raises(AssertionError):
            assert_detailed_balance(replace(dec, T=T))


class TestOracles:
    def neumann_sum(self, T, tail=1e-8):
        norm = float(T.sum(axis=1).max())
        assert norm < 1.0
        K = int(np.ceil(np.log(tail * (1.0 - norm)) / np.log(norm))) if norm > 0 else 1
        total = np.zeros_like(T)
        power = np.eye(T.shape[0])
        for _ in range(K + 1):
            total += power
            power = power @ T
        return total

    def test_green_matches_neumann_sum(self):
        rng = np.random.default_rng(21)
        instances = [MIN_KERNEL, min_kernel(6), fbm_cov([1.0, 2.0, 4.0], 0.7)]
        for seed in rng.integers(0, 1 << 31, size=5):
            _, g = random_green(5, int(seed), symmetric=True)
            instances.append(g)
        for G in instances:
            dec = decompose(G)
            np.testing.assert_allclose(
                visit_matrix(G, dec), self.neumann_sum(dec.T), atol=5e-7, rtol=1e-7
            )

    def test_transience_quantified(self):
        for n in range(2, 10):
            dec = decompose(min_kernel(n))
            assert dec.kappa.min() > 1e-10
            assert float(dec.T.sum(axis=1).max()) < 1.0

    def test_visit_count_simulation_cross_check(self):
        dec = decompose(MIN_KERNEL)
        chain = ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c)
        report = simulate_green(chain, n_paths=200_000, seed=1234)
        sigma = np.abs(report.estimate - visit_matrix(MIN_KERNEL, dec)) / report.stderr
        assert float(sigma.max()) < 3.0


class TestValidationCorpus:
    def test_reconstruction_quality_over_corpus(self):
        rng = np.random.default_rng(22)
        corpus = [min_kernel(n) for n in range(1, 12)]
        for beta in (0.3, 0.6, 1.0):
            corpus.append(fbm_cov([0.5, 1.0, 2.0, 3.5, 5.0], beta))
        for n in (2, 5, 9):
            _, g = random_green(n, int(rng.integers(1 << 31)), symmetric=True)
            corpus.append(g)
            d = rng.uniform(0.5, 2.0, size=n)
            corpus.append(scale_conjugate(g, d))
        for G in corpus:
            dec = decompose(G)
            rel = float(np.abs(rebuilt(dec) - G).max() / np.abs(G).max())
            assert rel <= 1e-10
            assert isinstance(dec, GreenDecomposition)


@st.composite
def random_green_inputs(draw):
    return random_green(draw(st.integers(1, 8)), draw(st.integers(0, 10_000)))[1]


@st.composite
def fbm_inputs(draw):
    steps = draw(st.lists(st.floats(0.1, 3.0), min_size=1, max_size=7))
    return fbm_cov(np.cumsum(steps), draw(st.floats(0.2, 1.0)))


@st.composite
def flipped_block_inputs(draw):
    """Block-diagonal covariance of connected blocks; the first block is
    conjugated by a mixed sign vector, so its signature is not trivial."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    sizes.insert(0, draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    G = np.zeros((sum(sizes), sum(sizes)))
    start = 0
    for m in sizes:
        G[start:start + m, start:start + m] = random_green(m, int(rng.integers(1 << 31)))[1]
        start += m
    signs = np.ones(len(G))
    signs[rng.permutation(sizes[0])[: draw(st.integers(1, sizes[0] - 1))]] = -1.0
    return signs[:, None] * G * signs[None, :], len(sizes)


def assert_round_trip_in_detailed_balance(G):
    dec = decompose(G)
    rel = float(np.abs(rebuilt(dec) - G).max() / np.abs(G).max())
    assert rel <= 1e-9
    assert_detailed_balance(dec)
    return dec


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(G=random_green_inputs())
    def test_random_green(self, G):
        assert_round_trip_in_detailed_balance(G)

    @settings(max_examples=30, deadline=None)
    @given(G=fbm_inputs())
    def test_fbm_up_to_brownian(self, G):
        assert_round_trip_in_detailed_balance(G)

    @settings(max_examples=30, deadline=None)
    @given(case=flipped_block_inputs())
    def test_flipped_blocks(self, case):
        G, n_blocks = case
        dec = assert_round_trip_in_detailed_balance(G)
        assert len(dec.signature.components) == n_blocks
        assert not dec.signature.is_trivial
