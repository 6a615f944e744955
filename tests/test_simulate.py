import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgreen import simulate
from gaussgreen.linalg import NotPositiveDefiniteError
from gaussgreen.simulate import (
    ChainSpec,
    InvalidChainError,
    laplace_exact,
    laplace_mc,
    sample_gaussian,
    simulate_ct_green,
    simulate_green,
    validate_chain,
)
from helpers import MIN_KERNEL, random_spd

CHAIN_2x2 = ChainSpec(
    T=np.array([[0.5, 0.25], [0.25, 0.25]]),
    kappa=np.array([0.25, 0.5]),
)
# (I - T)^-1 with det(I - T) = 0.3125
G_2x2 = np.array([[2.4, 0.8], [0.8, 1.6]])


class TestValidateChain:
    def test_valid(self):
        validate_chain(CHAIN_2x2)

    def test_negative_transition(self):
        chain = ChainSpec(T=np.array([[-0.2, 0.4], [0.1, 0.1]]),
                          kappa=np.array([0.8, 0.8]))
        with pytest.raises(InvalidChainError, match="negative transition"):
            validate_chain(chain)

    def test_rows_must_close(self):
        chain = ChainSpec(T=np.array([[0.5, 0.2], [0.1, 0.1]]),
                          kappa=np.array([0.1, 0.8]))
        with pytest.raises(InvalidChainError, match="sum to 1"):
            validate_chain(chain)

    def test_requires_some_killing(self):
        chain = ChainSpec(T=np.array([[0.0, 1.0], [1.0, 0.0]]),
                          kappa=np.zeros(2))
        with pytest.raises(InvalidChainError, match="killing"):
            validate_chain(chain)

    def test_rate_positive(self):
        chain = ChainSpec(T=np.zeros((1, 1)), kappa=np.ones(1), c=0.0)
        with pytest.raises(InvalidChainError, match="rate"):
            validate_chain(chain)

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_rate_finite(self, c):
        chain = ChainSpec(T=np.zeros((1, 1)), kappa=np.ones(1), c=c)
        with pytest.raises(InvalidChainError, match="rate c must be finite"):
            validate_chain(chain)
        with pytest.raises(InvalidChainError):
            simulate_ct_green(chain, n_paths=10, seed=0)

    def test_kappa_shape(self):
        chain = ChainSpec(T=np.zeros((2, 2)), kappa=np.ones(3))
        with pytest.raises(InvalidChainError, match="shape"):
            validate_chain(chain)


class TestSimulateGreen:
    def test_instant_killing_gives_identity(self):
        chain = ChainSpec(T=np.zeros((3, 3)), kappa=np.ones(3))
        report = simulate_green(chain, n_paths=1000, seed=7)
        np.testing.assert_array_equal(report.estimate, np.eye(3))
        np.testing.assert_array_equal(report.stderr, 0.0)
        assert report.overflow == 0

    def test_two_state_chain_matches_inverse(self):
        report = simulate_green(CHAIN_2x2, n_paths=200_000, seed=42)
        sigma = np.abs(report.estimate - G_2x2) / report.stderr
        assert float(sigma.max()) < 3.0

    def test_min_kernel_chain(self):
        from gaussgreen.decomposition import decompose

        dec = decompose(MIN_KERNEL)
        chain = ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c)
        report = simulate_green(chain, n_paths=150_000, seed=99)
        sigma = np.abs(report.estimate - dec.g) / report.stderr
        assert float(sigma.max()) < 3.5

    def test_deterministic_given_seed(self):
        a = simulate_green(CHAIN_2x2, n_paths=5000, seed=3)
        b = simulate_green(CHAIN_2x2, n_paths=5000, seed=3)
        np.testing.assert_array_equal(a.estimate, b.estimate)
        np.testing.assert_array_equal(a.stderr, b.stderr)
        c = simulate_green(CHAIN_2x2, n_paths=5000, seed=4)
        assert not np.array_equal(a.estimate, c.estimate)

    def test_slow_chain_overflow_audited(self):
        chain = ChainSpec(T=np.array([[0.9]]), kappa=np.array([0.1]))
        report = simulate_green(chain, n_paths=20_000, seed=11)
        # cap is ~262 steps at rho = 0.9, truncation bias is ~1e-12 * g
        assert report.estimate[0, 0] == pytest.approx(10.0, rel=0.05)
        assert report.overflow >= 0

    def test_unbiased_over_random_chains(self):
        from helpers import random_substochastic

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(8):
            n = int(rng.integers(2, 5))
            T = random_substochastic(n, rng)
            chain = ChainSpec(T=T, kappa=1.0 - T.sum(axis=1))
            g = np.linalg.inv(np.eye(n) - T)
            report = simulate_green(chain, n_paths=50_000, seed=int(rng.integers(1 << 31)))
            sigma = np.abs(report.estimate - g) / report.stderr
            worst = max(worst, float(sigma.max()))
        assert worst < 4.0

    def test_invalid_chain_rejected(self):
        chain = ChainSpec(T=np.array([[1.0]]), kappa=np.array([0.0]))
        with pytest.raises(InvalidChainError):
            simulate_green(chain, n_paths=10, seed=0)


class TestSimulateCtGreen:
    def test_single_sojourn_rate_one(self):
        chain = ChainSpec(T=np.zeros((2, 2)), kappa=np.ones(2), c=1.0)
        report = simulate_ct_green(chain, n_paths=100_000, seed=5)
        sigma = np.abs(np.diag(report.estimate) - 1.0) / np.diag(report.stderr)
        assert float(sigma.max()) < 3.0
        assert report.estimate[0, 1] == 0.0

    def test_rate_ten_scales_occupation(self):
        chain = ChainSpec(T=np.zeros((2, 2)), kappa=np.ones(2), c=10.0)
        report = simulate_ct_green(chain, n_paths=100_000, seed=6)
        sigma = np.abs(np.diag(report.estimate) - 0.1) / np.diag(report.stderr)
        assert float(sigma.max()) < 3.0

    def test_two_state_matches_g_over_c(self):
        chain = ChainSpec(T=CHAIN_2x2.T, kappa=CHAIN_2x2.kappa, c=2.0)
        report = simulate_ct_green(chain, n_paths=200_000, seed=77)
        sigma = np.abs(report.estimate - G_2x2 / 2.0) / report.stderr
        assert float(sigma.max()) < 3.0


class TestSampleGaussian:
    def test_identity_empirical_covariance(self):
        x = sample_gaussian(np.eye(2), 100_000, seed=1)
        emp = x.T @ x / x.shape[0]
        assert np.abs(emp - np.eye(2)).max() < 0.02

    def test_scalar_variance(self):
        x = sample_gaussian(np.array([[4.0]]), 50_000, seed=2)
        assert float(x.var()) == pytest.approx(4.0, rel=0.05)

    def test_min_kernel_has_independent_increments(self):
        x = sample_gaussian(MIN_KERNEL, 100_000, seed=3)
        inc = np.column_stack([x[:, 0], x[:, 1] - x[:, 0], x[:, 2] - x[:, 1]])
        emp = inc.T @ inc / inc.shape[0]
        assert np.abs(emp - np.eye(3)).max() < 5.0 / np.sqrt(inc.shape[0]) * 3.0

    def test_empirical_covariance_bound(self):
        G = MIN_KERNEL
        x = sample_gaussian(G, 100_000, seed=4)
        emp = x.T @ x / x.shape[0]
        assert np.abs(emp - G).max() <= 5.0 * np.abs(G).max() / np.sqrt(x.shape[0])

    def test_not_pd_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            sample_gaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), 10, seed=0)


class TestLaplaceExact:
    def test_identity_two_dim(self):
        assert laplace_exact(np.eye(2), [1.0, 1.0]) == pytest.approx(0.5)

    def test_zero_rates_give_one(self):
        assert laplace_exact(MIN_KERNEL, np.zeros(3)) == pytest.approx(1.0)

    def test_scalar(self):
        assert laplace_exact(np.array([[2.0]]), [0.5]) == pytest.approx(2.0 ** -0.5)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            laplace_exact(np.eye(2), [-0.1, 1.0])

    def test_nonpositive_determinant_rejected(self):
        # det(I + G) = det([[2, 3], [3, 2]]) = -5: G is not a covariance
        with pytest.raises(ValueError, match=r"det\(I \+ G diag\(t\)\) = -5 "):
            laplace_exact(np.array([[1.0, 3.0], [3.0, 1.0]]), [1.0, 1.0])

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G = random_spd(n, rng)
            t = rng.uniform(0.0, 3.0, size=n)
            v = laplace_exact(G, t)
            assert 0.0 < v <= 1.0

    def test_determinant_self_check(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            G = random_spd(n, rng)
            t = rng.uniform(0.0, 2.0, size=n)
            psi = laplace_exact(G, t)
            det = np.linalg.det(np.eye(n) + G * t[None, :])
            assert abs(psi * psi * det - 1.0) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotone_in_rates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        G = random_spd(n, rng)
        t = rng.uniform(0.0, 2.0, size=n)
        bump = rng.uniform(0.0, 1.0, size=n)
        assert laplace_exact(G, t) >= laplace_exact(G, t + bump) - 1e-12


@pytest.mark.parametrize("t, match", [
    ([[1.0], [1.0]], r"shape \(2, 1\), expected \(2,\)"),
    ([1.0], r"shape \(1,\), expected \(2,\)"),
    ([np.nan, 1.0], "NaN or Inf"),
    ([np.inf, 1.0], "NaN or Inf"),
    ([-0.1, 1.0], "nonnegative"),
])
def test_laplace_rates_rejected_alike(t, match):
    with pytest.raises(ValueError, match=match):
        laplace_exact(np.eye(2), t)
    with pytest.raises(ValueError, match=match):
        laplace_mc(np.eye(2), t, n_samples=10, seed=0)


class TestLaplaceMc:
    def test_zero_rates_exact(self):
        report = laplace_mc(MIN_KERNEL, np.zeros(3), n_samples=1000, seed=1)
        assert report.estimate == 1.0
        assert report.stderr == 0.0

    def test_identity_matches_half(self):
        report = laplace_mc(np.eye(2), [1.0, 1.0], n_samples=200_000, seed=8)
        assert abs(report.estimate - 0.5) < 3.0 * report.stderr

    def test_min_kernel_matches_exact(self):
        t = np.array([1.0, 0.5, 0.25])
        exact = laplace_exact(MIN_KERNEL, t)
        report = laplace_mc(MIN_KERNEL, t, n_samples=200_000, seed=9)
        assert abs(report.estimate - exact) < 3.0 * report.stderr

    def test_deterministic(self):
        a = laplace_mc(np.eye(2), [1.0, 2.0], n_samples=1000, seed=5)
        b = laplace_mc(np.eye(2), [1.0, 2.0], n_samples=1000, seed=5)
        assert a.estimate == b.estimate and a.stderr == b.stderr


def _visit_moments(g, c, ct):
    """Exact raw moments 1-4 of the visits ``N_ij`` to j from a start at i
    or, when ``ct``, of the occupation time: ``N_ij`` exponential(c) sojourns.

    Kac: j is hit with probability ``h = g_ij / g_jj`` and then revisited
    a geometric number of times, ``P(N = m) = h p (1 - p)^(m - 1)`` with
    ``p = 1 / g_jj``; given ``N = m`` the occupation time is Gamma(m, c),
    whose r-th moment is ``m (m + 1) ... (m + r - 1) / c^r``.
    """
    m = np.arange(1.0, 4001.0)
    p = 1.0 / np.diag(g)[None, :, None]
    weights = (g[:, :, None] * p) * p * (1.0 - p) ** (m - 1.0)
    moments = []
    for r in range(1, 5):
        values = np.prod([m + q for q in range(r)], axis=0) / c**r if ct else m**r
        moments.append((weights * values).sum(axis=2))
    return moments


@pytest.mark.parametrize("ct", [False, True])
def test_stderr_matches_exact_second_moments(ct):
    from gaussgreen.decomposition import decompose

    dec = decompose(MIN_KERNEL)
    chain = ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c)
    n_paths = 100_000
    report = (simulate_ct_green if ct else simulate_green)(chain, n_paths=n_paths, seed=8)
    assert report.overflow == 0
    m1, m2, m3, m4 = _visit_moments(dec.g, dec.c, ct)
    var = m2 - m1**2
    g_jj = np.diag(dec.g)[None, :]
    if ct:
        np.testing.assert_allclose(m1, dec.g / dec.c, rtol=1e-12)
        np.testing.assert_allclose(var, (2.0 * dec.g * g_jj - dec.g**2) / dec.c**2, rtol=1e-12)
    else:
        np.testing.assert_allclose(m1, dec.g, rtol=1e-12)
        np.testing.assert_allclose(var, dec.g * (2.0 * g_jj - 1.0) - dec.g**2, rtol=1e-12)
    # Standard deviation of the sample variance at n_paths draws, from the
    # exact central fourth moment; five of them bound each of the 9 entries.
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    sd = np.sqrt(mu4 / n_paths - var**2 * (n_paths - 3) / (n_paths * (n_paths - 1)))
    sample_var = report.stderr**2 * n_paths
    assert np.all(np.abs(sample_var - var) <= 5.0 * sd), (sample_var / var, sd / var)


def test_report_to_dict_excludes_timing_by_default():
    report = laplace_mc(np.eye(2), [1.0, 1.0], n_samples=100, seed=0)
    doc = report.to_dict()
    assert "elapsed" not in doc
    assert doc["n_draws"] == 100 and doc["seed"] == 0


def _reference_run_paths(chain, n_paths, seed, weigh_sojourns):
    """The one-start-at-a-time loop that ``_run_paths`` replaced, verbatim."""
    rho = validate_chain(chain)
    T = np.clip(np.asarray(chain.T, dtype=float), 0.0, None)
    n = T.shape[0]
    cum = np.cumsum(T, axis=1)
    survive_p = cum[:, -1] if n else np.zeros(0)
    cap = simulate._max_steps(rho)

    estimate = np.empty((n, n))
    stderr = np.empty((n, n))
    overflow = 0
    streams = np.random.SeedSequence(seed).spawn(n)
    dtype = float if weigh_sojourns else np.int32
    for start in range(n):
        rng = np.random.default_rng(streams[start])
        tallies = np.zeros((n_paths, n), dtype=dtype)
        states = np.full(n_paths, start, dtype=np.intp)
        idx = np.arange(n_paths, dtype=np.intp)
        if weigh_sojourns:
            tallies[idx, states] = rng.exponential(1.0 / chain.c, size=n_paths)
        else:
            tallies[idx, states] = 1
        for _ in range(cap):
            if idx.size == 0:
                break
            r = rng.random(idx.size)
            alive = r < survive_p[states]
            idx, states, r = idx[alive], states[alive], r[alive]
            if idx.size == 0:
                break
            rows = cum[states]
            states = (r[:, None] < rows).argmax(axis=1).astype(np.intp)
            if weigh_sojourns:
                tallies[idx, states] += rng.exponential(1.0 / chain.c, size=idx.size)
            else:
                tallies[idx, states] += 1
        overflow += int(idx.size)
        estimate[start] = tallies.mean(axis=0)
        if n_paths > 1:
            stderr[start] = tallies.std(axis=0, ddof=1) / np.sqrt(n_paths)
        else:
            stderr[start] = 0.0
    return estimate, stderr, overflow


def _assert_matches_reference(chain, n_paths, seed):
    for weigh, run in ((False, simulate_green), (True, simulate_ct_green)):
        report = run(chain, n_paths=n_paths, seed=seed)
        estimate, stderr, overflow = _reference_run_paths(chain, n_paths, seed, weigh)
        assert np.array_equal(report.estimate, estimate)
        assert np.array_equal(report.stderr, stderr)
        assert report.overflow == overflow


class TestMatchesReferenceLoop:
    """Grouped start states and guide-table jumps leave every report as it was."""

    def test_random_chains_with_zero_transitions(self):
        from helpers import random_substochastic

        rng = np.random.default_rng(4)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            T = random_substochastic(n, rng)
            T[rng.random((n, n)) < 0.4] = 0.0
            chain = ChainSpec(T=T, kappa=1.0 - T.sum(axis=1),
                              c=float(rng.uniform(0.5, 3.0)))
            n_paths = int(rng.choice([1, 2, 37, 400]))
            _assert_matches_reference(chain, n_paths, int(rng.integers(1 << 31)))

    def test_single_state_and_single_path(self):
        chain = ChainSpec(T=np.array([[0.3]]), kappa=np.array([0.7]), c=2.0)
        _assert_matches_reference(chain, 1, 8)
        _assert_matches_reference(chain, 500, 8)
        _assert_matches_reference(CHAIN_2x2, 1, 9)

    def test_slow_chain_and_overflow(self, monkeypatch):
        chain = ChainSpec(T=np.array([[0.9]]), kappa=np.array([0.1]))
        _assert_matches_reference(chain, 3000, 11)
        # A short cap leaves paths alive, so the overflow counts are compared.
        monkeypatch.setattr(simulate, "_PATH_TAIL", 1e-2)
        assert simulate_green(chain, n_paths=3000, seed=11).overflow > 0
        _assert_matches_reference(chain, 3000, 11)
        _assert_matches_reference(CHAIN_2x2, 3000, 12)

    def test_brownian_decomposition(self):
        from gaussgreen.decomposition import decompose
        from gaussgreen.kernels import brownian_cov

        dec = decompose(brownian_cov(np.arange(1.0, 11.0)))
        _assert_matches_reference(ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c), 500, 13)

    def test_random_green_chain(self):
        from gaussgreen.kernels import random_green

        chain, _ = random_green(30, 14)
        _assert_matches_reference(chain, 300, 15)

    @pytest.mark.parametrize("cells", [1, 3 * 40 * 5])
    def test_group_budgets(self, monkeypatch, cells):
        # 3 * 40 * 5 cells hold three of the five 40-path starts: groups of 3 and 2.
        from helpers import random_substochastic

        monkeypatch.setattr(simulate, "_GROUP_CELLS", cells)
        rng = np.random.default_rng(16)
        T = random_substochastic(5, rng)
        T[0, 2] = T[3, 3] = 0.0
        chain = ChainSpec(T=T, kappa=1.0 - T.sum(axis=1), c=1.5)
        _assert_matches_reference(chain, 40, 17)

    @pytest.mark.parametrize("n_paths", [1, 37])
    @pytest.mark.parametrize("group", [7, 3, None])
    def test_group_boundaries(self, monkeypatch, group, n_paths):
        # Budgets of 7 and 3 starts run a 7-state chain as one group and as
        # groups of 3, 3 and 1; None keeps the default budget, which holds
        # all seven.
        from helpers import random_substochastic

        n = 7
        if group is None:
            assert simulate._GROUP_CELLS >= n * n_paths * n
        else:
            monkeypatch.setattr(simulate, "_GROUP_CELLS", group * n_paths * n)
        rng = np.random.default_rng(18)
        T = random_substochastic(n, rng)
        T[1, 4] = T[5, 5] = 0.0
        chain = ChainSpec(T=T, kappa=1.0 - T.sum(axis=1), c=0.7)
        _assert_matches_reference(chain, n_paths, 19)
