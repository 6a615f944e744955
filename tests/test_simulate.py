import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussgreen import simulate
from gaussgreen.linalg import NotPositiveDefiniteError
from gaussgreen.simulate import (
    ChainSpec,
    InvalidChainError,
    laplace,
    simulate_ct_green,
    simulate_green,
    validate_chain,
)
from helpers import MIN_KERNEL, random_spd, visit_matrix

CHAIN_2x2 = ChainSpec(
    T=np.array([[0.5, 0.25], [0.25, 0.25]]),
    kappa=np.array([0.25, 0.5]),
)
# (I - T)^-1 with det(I - T) = 0.3125
G_2x2 = np.array([[2.4, 0.8], [0.8, 1.6]])


class TestValidateChain:
    def test_valid(self):
        rho = validate_chain(CHAIN_2x2)
        # The expected visit counts (I - T)⁻¹ 𝟙 = G_2x2 𝟙, given, stand in for
        # the solve, and give the same bound.
        assert validate_chain(CHAIN_2x2, x=G_2x2.sum(axis=1)) == pytest.approx(rho, abs=1e-15)
        with pytest.raises(InvalidChainError, match="cannot certify"):
            validate_chain(CHAIN_2x2, x=np.array([1.0, 0.0]))

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

    # rho(T) = 1 exactly: states 0 and 1 form a closed class, and only state
    # 2, which no state enters, can die.  Rounding makes the solve of
    # (I - T) x = 1 come out positive, so x > 0 alone certifies nothing, and
    # simulating on such a bound does not end.
    CLOSED_3 = ChainSpec(
        T=np.array([[0.125, 0.875, 0.0], [0.8125, 0.1875, 0.0], [0.25, 0.25, 0.0]]),
        kappa=np.array([0.0, 0.0, 0.5]),
    )

    def test_closed_class_rejected(self):
        # A given x = 𝟙 in place of the solve gets the same message.
        for x in (None, np.ones(3)):
            with pytest.raises(InvalidChainError) as err:
                validate_chain(self.CLOSED_3, x=x)
            assert str(err.value) == "states (0, 1) form a closed class: rho(T) = 1"

    def test_long_closed_class_is_truncated(self):
        # A 12-cycle entered from a killing state: the message lists ten
        # states and the count.
        T = np.zeros((13, 13))
        T[np.arange(12), (np.arange(12) + 1) % 12] = 1.0
        T[12, 0] = 0.5
        kappa = np.zeros(13)
        kappa[12] = 0.5
        with pytest.raises(InvalidChainError) as err:
            validate_chain(ChainSpec(T, kappa))
        assert str(err.value) == (
            "states (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ... (12 states)) form a closed class: rho(T) = 1")

    def test_dyadic_closed_classes_rejected(self):
        # 2,000 chains with rho(T) = 1 exactly: a closed class of k states
        # whose rows are integer weights, one raised so the total is the
        # next power of two, divided by it (so every entry and every 1 - T_ii
        # is exact), plus a killing state that jumps 0.5 / k to each.  On 656
        # of them the solve of (I - T) x = 1 comes out positive anyway.  The
        # message names the class: the killing state enters it, never leaves.
        rng = np.random.default_rng(5)
        certified = 0
        for _ in range(2000):
            k = int(rng.integers(2, 9))
            T = np.zeros((k + 1, k + 1))
            for i in range(k):
                w = rng.integers(0, 8, size=k)
                total = int(w.sum())
                power = 1 << max(0, total - 1).bit_length()
                w[rng.integers(k)] += power - total
                T[i, :k] = w / power
            T[k, :k] = 0.5 / k
            kappa = np.zeros(k + 1)
            kappa[k] = 0.5
            try:
                validate_chain(ChainSpec(T, kappa))
                certified += 1
            except InvalidChainError as err:
                states = ", ".join(map(str, range(k)))
                assert str(err) == f"states ({states}) form a closed class: rho(T) = 1"
        assert certified == 0


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
        sigma = np.abs(report.estimate - visit_matrix(MIN_KERNEL, dec)) / report.stderr
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


def exact_only(G, t):
    """``laplace`` without samples: the exact value alone."""
    exact, mc = laplace(G, t)
    assert mc is None
    return exact


class TestLaplaceExact:
    def test_identity_two_dim(self):
        assert exact_only(np.eye(2), [1.0, 1.0]) == pytest.approx(0.5)

    def test_zero_rates_give_one(self):
        assert exact_only(MIN_KERNEL, np.zeros(3)) == pytest.approx(1.0)

    def test_scalar(self):
        assert exact_only(np.array([[2.0]]), [0.5]) == pytest.approx(2.0 ** -0.5)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            exact_only(np.eye(2), [-0.1, 1.0])

    def test_nonpositive_determinant_rejected(self):
        # det(I + G) = det([[2, 3], [3, 2]]) = -5: G is not a covariance
        with pytest.raises(NotPositiveDefiniteError, match="pivot 1"):
            exact_only(np.array([[1.0, 3.0], [3.0, 1.0]]), [1.0, 1.0])

    @pytest.mark.parametrize("n_samples", [0, 10])
    @pytest.mark.parametrize("G", [
        [[1.0, 2.0], [2.0, 1.0]],  # indefinite, though det(I + G diag(t)) = 1.17
        [[1.0, 1.0], [1.0, 1.0]],  # singular semidefinite: det(I + G diag(t)) = 1.2
    ], ids=["indefinite", "singular"])
    def test_not_positive_definite_rejected_with_or_without_samples(self, G, n_samples):
        with pytest.raises(NotPositiveDefiniteError):
            laplace(np.array(G), [0.1, 0.1], n_samples, seed=0)

    @pytest.mark.parametrize("n_samples", [0, 10])
    def test_tiny_scale_definite_accepted(self, n_samples):
        # The pivot floor is relative to the diagonal, so 1e-13 I is a
        # covariance; det(I + 1e-14 I) = 1 + 2e-14.
        exact, mc = laplace(1e-13 * np.eye(2), [0.1, 0.1], n_samples, seed=0)
        assert exact == pytest.approx(1.0 - 1e-14, rel=1e-15)
        if n_samples:
            assert mc.estimate == pytest.approx(1.0, rel=1e-12)

    def test_overflowing_rates_give_a_tiny_value(self):
        G = np.array([[1e10, 1e9], [1e9, 1e10]])
        # det(I + G diag(t)) = t0 t1 det(G) + t0 G00 + t1 G11 + 1 is past the
        # float range, yet its inverse square root (subnormal in the first
        # case) is returned, not 0 or NaN.
        for t, want in [([1e300, 1e300], 1e-300 / np.sqrt(99e18)),
                        ([1e300, 0.0], 1e-155), ([0.0, 1e300], 1e-155)]:
            assert exact_only(G, t) == pytest.approx(want, rel=1e-6, abs=0.0)
            # Each sample's exponent overflows to -inf: exp gives 0, not NaN.
            assert laplace(G, t, 100, seed=0)[1].estimate == 0.0
        # A square past the float range at a rate of 0 weighs nothing.
        exact, mc = laplace(np.diag([1e308, 1.0]), [0.0, 1.0], 1000, seed=1)
        assert exact == pytest.approx(0.5**0.5, rel=1e-15)
        assert abs(mc.estimate - exact) < 3.0 * mc.stderr

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G = random_spd(n, rng)
            t = rng.uniform(0.0, 3.0, size=n)
            v = exact_only(G, t)
            assert 0.0 < v <= 1.0

    def test_determinant_self_check(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            G = random_spd(n, rng)
            t = rng.uniform(0.0, 2.0, size=n)
            psi = exact_only(G, t)
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
        assert exact_only(G, t) >= exact_only(G, t + bump) - 1e-12


@pytest.mark.parametrize("t, match", [
    ([[1.0], [1.0]], r"shape \(2, 1\), expected \(2,\)"),
    ([1.0], r"shape \(1,\), expected \(2,\)"),
    ([np.nan, 1.0], "NaN or Inf"),
    ([np.inf, 1.0], "NaN or Inf"),
    ([-0.1, 1.0], "nonnegative"),
])
def test_laplace_rates_rejected_alike(t, match):
    for n_samples in (0, 10):
        with pytest.raises(ValueError, match=match):
            laplace(np.eye(2), t, n_samples=n_samples, seed=0)


class TestLaplaceMc:
    def test_zero_rates_exact(self):
        exact, report = laplace(MIN_KERNEL, np.zeros(3), n_samples=1000, seed=1)
        assert exact == report.estimate == 1.0
        assert report.stderr == 0.0

    def test_identity_matches_half(self):
        _, report = laplace(np.eye(2), [1.0, 1.0], n_samples=200_000, seed=8)
        assert abs(report.estimate - 0.5) < 3.0 * report.stderr

    def test_min_kernel_matches_exact(self):
        t = np.array([1.0, 0.5, 0.25])
        exact, report = laplace(MIN_KERNEL, t, n_samples=200_000, seed=9)
        assert abs(report.estimate - exact) < 3.0 * report.stderr

    def test_deterministic(self):
        a = laplace(np.eye(2), [1.0, 2.0], n_samples=1000, seed=5)[1]
        b = laplace(np.eye(2), [1.0, 2.0], n_samples=1000, seed=5)[1]
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_samples_come_from_the_cholesky_factor(self):
        G, t = MIN_KERNEL, np.array([1.0, 0.5, 0.25])
        x = np.random.default_rng(4).standard_normal((500, 3)) @ np.linalg.cholesky(G).T
        values = np.exp(-0.5 * (x**2) @ t)
        _, report = laplace(G, t, n_samples=500, seed=4)
        assert report.estimate == float(values.mean())
        assert report.stderr == float(values.std(ddof=1) / np.sqrt(500))


@pytest.mark.parametrize("n", [1, 3, 10, 30, 32, 50, 64])
def test_laplace_blocks_match_one_draw(n):
    # Three blocks, the last with 17 more rows, give the report of one
    # (n_samples, n) draw multiplied by the factor at once.
    G = random_spd(n, np.random.default_rng(n))
    t = np.random.default_rng(n + 1).uniform(0.05, 0.5, n)
    n_samples = 3 * simulate._laplace_rows(n) + 17
    x = np.random.default_rng(7).standard_normal((n_samples, n)) @ np.linalg.cholesky(G).T
    values = np.exp(-0.5 * np.square(x) @ t)
    _, report = laplace(G, t, n_samples=n_samples, seed=7)
    assert report.estimate == float(values.mean())
    assert report.stderr == float(values.std(ddof=1) / np.sqrt(n_samples))


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
    g = visit_matrix(MIN_KERNEL, dec)
    m1, m2, m3, m4 = _visit_moments(g, dec.c, ct)
    var = m2 - m1**2
    g_jj = np.diag(g)[None, :]
    if ct:
        np.testing.assert_allclose(m1, g / dec.c, rtol=1e-12)
        np.testing.assert_allclose(var, (2.0 * g * g_jj - g**2) / dec.c**2, rtol=1e-12)
    else:
        np.testing.assert_allclose(m1, g, rtol=1e-12)
        np.testing.assert_allclose(var, g * (2.0 * g_jj - 1.0) - g**2, rtol=1e-12)
    # Standard deviation of the sample variance at n_paths draws, from the
    # exact central fourth moment; five of them bound each of the 9 entries.
    mu4 = m4 - 4.0 * m1 * m3 + 6.0 * m1**2 * m2 - 3.0 * m1**4
    sd = np.sqrt(mu4 / n_paths - var**2 * (n_paths - 3) / (n_paths * (n_paths - 1)))
    sample_var = report.stderr**2 * n_paths
    assert np.all(np.abs(sample_var - var) <= 5.0 * sd), (sample_var / var, sd / var)


def _traced_peak(run, *args):
    """Peak bytes ``tracemalloc`` sees during ``run(*args)``."""
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_laplace_draws_samples_in_blocks():
    from gaussgreen.kernels import fbm_cov

    # 200 000 samples of 50 coordinates: z and x = z Lᵀ whole took 154 MB;
    # in blocks, the values vector (1.6 MB) and a block of each (1 MiB).
    G = fbm_cov(np.arange(1.0, 51.0), 0.5)
    t = np.random.default_rng(0).uniform(0.05, 0.5, 50)
    laplace(G, t, n_samples=10, seed=1)  # imports and caches are not counted
    assert _traced_peak(laplace, G, t, 200_000, 1) <= 8e6


def test_one_group_of_tallies_at_a_time(monkeypatch):
    from gaussgreen.decomposition import decompose
    from gaussgreen.kernels import fbm_cov

    # 2^16 cells hold 3 starts of 1000 paths on 20 states.  Allocating a
    # group's occupation times while the last group's were held peaked at
    # 2.52 groups; one group and the paths' index arrays take 1.52.
    monkeypatch.setattr(simulate, "_GROUP_CELLS", 1 << 16)
    dec = decompose(fbm_cov(np.arange(1.0, 21.0), 0.5))
    chain = ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c)
    simulate_ct_green(chain, 10, 1)
    group_bytes = 3 * 1000 * 20 * 8
    assert _traced_peak(simulate_ct_green, chain, 1000, 1) <= 1.8 * group_bytes


@pytest.mark.parametrize("run, cell_bytes", [(simulate_green, 4), (simulate_ct_green, 8)])
def test_one_step_of_path_arrays_at_a_time(run, cell_bytes):
    from gaussgreen.decomposition import decompose
    from gaussgreen.kernels import brownian_cov

    # 10 starts of 2000 paths run as one group.  Beside the tallies, a step
    # that held each path array until the next step rebound it peaked at 6.3
    # path arrays; one that frees each array once it is dead, at 4.3.
    dec = decompose(brownian_cov(np.arange(1.0, 11.0)))
    chain = ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c)
    run(chain, 10, 1)
    n, n_paths = 10, 2000
    path_bytes = 8 * n * n_paths
    tallies = cell_bytes * n * n_paths * n
    assert _traced_peak(run, chain, n_paths, 1) - tallies <= 5 * path_bytes


def test_report_to_dict_excludes_timing_by_default():
    _, report = laplace(np.eye(2), [1.0, 1.0], n_samples=100, seed=0)
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

    @pytest.mark.parametrize("n_paths", [1, 3])
    def test_many_starts_few_paths(self, n_paths):
        # Most starts' paths are dead while a few still step.
        from helpers import random_substochastic

        rng = np.random.default_rng(22)
        T = random_substochastic(40, rng)
        chain = ChainSpec(T=T, kappa=1.0 - T.sum(axis=1), c=1.1)
        _assert_matches_reference(chain, n_paths, 23)

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

    def test_narrowest_guide_rows(self, monkeypatch):
        # Rows of 2^bitlen(n) buckets, the width the entry budget leaves a
        # large chain, put more boundaries inside buckets, so more draws walk.
        from gaussgreen.decomposition import decompose
        from gaussgreen.kernels import brownian_cov
        from helpers import random_substochastic

        monkeypatch.setattr(simulate, "_GUIDE_FACTOR", 1)
        # Nearest-neighbour jumps: flat runs in cum and roundoff entries.
        dec = decompose(brownian_cov(np.arange(1.0, 11.0)))
        _assert_matches_reference(ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c), 500, 13)
        rng = np.random.default_rng(20)
        T = random_substochastic(8, rng)
        T[rng.random((8, 8)) < 0.4] = 0.0
        _assert_matches_reference(ChainSpec(T=T, kappa=1.0 - T.sum(axis=1), c=1.3), 300, 21)


@pytest.mark.parametrize("n, width", [(1, 16), (10, 128), (30, 256), (128, 2048),
                                      (129, 1024), (400, 512), (5000, 8192)])
def test_guide_width(n, width):
    # Eight times the smallest power of two above n, halved while the table
    # holds more than 2^18 entries, but never below that power.
    assert simulate._guide_width(n) == width


def test_guide_table_resolves_bucket_edges():
    # Uniforms on a bucket's lower edge and just below its upper edge, with
    # cumulative rows that hit edges exactly and hold flat runs: the entry
    # is never past the first j with r < cum[s, j], and every column from
    # the entry up to that j is at most r, so a forward walk reaches it.
    T = np.array([[0.25, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0],
                  [0.125, 0.125, 0.125, 0.3], [0.0, 0.0, 0.0, 0.0]])
    n = T.shape[0]
    M = simulate._guide_width(n)
    cum = np.full((n, M), np.inf)
    np.cumsum(T, axis=1, out=cum[:, :n])
    guide = simulate._guide_table(cum)
    for s in range(n):
        for b in range(M):
            g = guide[s * M + b] - s * M
            for r in (b / M, np.nextafter((b + 1) / M, 0.0)):
                j = int(np.argmax(r < cum[s]))
                assert g <= j and (cum[s, g:j] <= r).all()
