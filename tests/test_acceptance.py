"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
runtime budget, and prints one pass/fail line (visible with ``pytest -s``).
Monte-Carlo criteria run at pinned seeds so results are reproducible.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gaussgreen.cli import default_sweep_grids
from gaussgreen.criteria import (
    NoSignature,
    Signature,
    classify_green,
    find_signature,
    is_id_square,
    is_m_matrix,
    triple_sufficient,
)
from gaussgreen.decomposition import decompose, reconstruct
from gaussgreen.kernels import (
    brownian_cov,
    chi_deltas,
    fbm_cov,
    random_green,
    scale_conjugate,
    sheet_counterexample,
    sheet_cov,
)
from gaussgreen.linalg import Tolerances
from gaussgreen.simulate import ChainSpec, laplace, simulate_ct_green, simulate_green
from helpers import MIN_KERNEL, min_kernel, random_substochastic

GOLDEN = Path(__file__).parent / "golden" / "sheet_counterexample.json"


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        print(f"[FAIL] criterion {num}: {name} "
              f"(runtime {elapsed:.2f}s over budget {budget_seconds:.0f}s)")
        raise AssertionError(
            f"criterion {num} runtime {elapsed:.2f}s exceeds {budget_seconds}s"
        )
    print(f"[PASS] criterion {num}: {name} ({elapsed:.2f}s < {budget_seconds:.0f}s)")


def test_criterion_1_brownian_grids_are_green():
    with criterion(1, "running-minimum grids classify as green, "
                      "tridiagonal dominant inverse", 1.0):
        for k in range(1, 51):
            G = brownian_cov(np.arange(1, k + 1, dtype=float))
            assert classify_green(G).kind == "green", f"k={k}"
            A = np.linalg.inv(G)
            if k > 2:
                band = np.tri(k, k, -2, dtype=bool)
                assert float(np.abs(A[band | band.T]).max()) <= 1e-9, f"k={k}"
            off = A - np.diag(np.diag(A))
            assert float(off.max()) <= 1e-10 * max(1.0, float(np.abs(A).max()))
            assert float(A.sum(axis=1).min()) >= -1e-10, f"k={k}"


def test_criterion_2_fbm_dichotomy():
    with criterion(2, "rough-index grids all ID; for index > 1 the sweep "
                      "finds a refuting grid", 30.0):
        grids = default_sweep_grids()
        assert all(len(g) <= 6 for g in grids)
        assert all(0 < v <= 10 for g in grids for v in g)
        for beta in np.round(np.arange(0.1, 1.01, 0.1), 10):
            for grid in grids:
                assert is_id_square(fbm_cov(grid, float(beta))).is_id, (beta, grid)
        witnesses = {}
        for beta in (1.2, 1.5, 1.8):
            hits = [grid for grid in grids
                    if not is_id_square(fbm_cov(grid, beta)).is_id]
            assert hits, f"no refuting grid found for beta={beta}"
            witnesses[beta] = hits[0]
        assert set(witnesses) == {1.2, 1.5, 1.8}


def test_criterion_3_sheet_triples_and_counterexample():
    with criterion(3, "random sheet triples are ID via the sufficient "
                      "condition; canonical 4-point instance is not", 1.0):
        rng = np.random.default_rng(303)
        for _ in range(200):
            pts = rng.uniform(0.1, 10.0, size=(3, 2))
            G = sheet_cov(pts)
            assert triple_sufficient(G)
            assert is_id_square(G).is_id

        golden = json.loads(GOLDEN.read_text())
        _, G = sheet_counterexample()
        np.testing.assert_array_equal(G, golden["entries"])
        A = np.linalg.inv(G)
        assert A[0, 1] > 0
        assert abs(A[0, 1] - golden["inverse_entry_01"]) <= 1e-12
        assert not is_id_square(G).is_id


def _decomposition_corpus():
    rng = np.random.default_rng(404)
    corpus = [min_kernel(n) for n in range(1, 21)]
    fbm_grids = [
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        [1.0, 1.5, 2.0, 2.5, 3.0],
        [0.25, 0.75, 2.0, 5.0],
        [2.0, 4.0, 6.0, 8.0, 10.0, 12.0],
    ]
    for beta in (0.2, 0.4, 0.6, 0.8, 1.0):
        for grid in fbm_grids:
            corpus.append(fbm_cov(grid, beta))
    for n in range(2, 21):
        _, g = random_green(n, seed=int(rng.integers(1 << 31)), symmetric=True)
        corpus.append(g)
    scaled = []
    for G in corpus[:40]:
        d = rng.uniform(0.5, 2.0, size=G.shape[0])
        scaled.append(scale_conjugate(G, d))
    return corpus + scaled


def test_criterion_4_decomposition_round_trip():
    with criterion(4, "decomposition round-trip over the full corpus", 10.0):
        corpus = _decomposition_corpus()
        assert len(corpus) >= 100
        assert all(G.shape[0] <= 20 for G in corpus)
        for G in corpus:
            dec = decompose(G)
            rel = float(np.abs(reconstruct(dec) - G).max()) / max(
                1.0, float(np.abs(G).max())
            )
            assert rel <= 1e-10
            assert float(dec.T.sum(axis=1).max()) < 1.0 - 1e-12
            residual = np.abs((np.eye(dec.n) - dec.T) @ dec.g - np.eye(dec.n))
            assert float(residual.max()) <= 1e-10


def _chain_corpus(seed):
    rng = np.random.default_rng(seed)
    chains = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        T = random_substochastic(n, rng)
        chains.append(
            ChainSpec(T=T, kappa=1.0 - T.sum(axis=1), c=float(rng.uniform(0.5, 3.0)))
        )
    dec = decompose(MIN_KERNEL)
    chains.append(ChainSpec(T=dec.T, kappa=dec.kappa, c=dec.c))
    return chains


def test_criterion_5_monte_carlo_green_oracle():
    with criterion(5, "visit-count and occupation-time simulation match "
                      "(I-T)^-1 at one million paths", 120.0):
        master = 20240601
        chains = _chain_corpus(master)
        excursions_visits = 0
        excursions_occupation = 0
        for k, chain in enumerate(chains):
            g = np.linalg.inv(np.eye(chain.n) - chain.T)
            visits = simulate_green(chain, n_paths=1_000_000, seed=master + 7 * k)
            sigma = np.abs(visits.estimate - g) / visits.stderr
            assert float(sigma.max()) < 4.0, f"chain {k}"
            excursions_visits += int((sigma > 3.0).sum())

            occupation = simulate_ct_green(
                chain, n_paths=1_000_000, seed=master + 7 * k + 3
            )
            sigma = np.abs(occupation.estimate - g / chain.c) / occupation.stderr
            assert float(sigma.max()) < 4.0, f"chain {k} (ct)"
            excursions_occupation += int((sigma > 3.0).sum())
        assert excursions_visits <= 1
        assert excursions_occupation <= 1


def test_criterion_6_laplace_identity():
    with criterion(6, "Monte-Carlo Laplace values match the determinant "
                      "formula; exact self-check at 1e-12", 120.0):
        rng = np.random.default_rng(607)
        for k in range(50):
            n = int(rng.integers(1, 7))
            W = rng.normal(size=(n, n))
            G = W @ W.T + 0.5 * n * np.eye(n)
            t = rng.uniform(0.0, 2.0, size=n)
            exact, mc = laplace(G, t, 1_000_000, seed=607_000 + k)
            det = float(np.linalg.det(np.eye(n) + G * t[None, :]))
            assert abs(exact * exact * det - 1.0) < 1e-12, f"instance {k}"
            assert abs(mc.estimate - exact) < 3.0 * mc.stderr, f"instance {k}"


def test_criterion_7_invariance_suite():
    with criterion(7, "verdict stability under signature conjugation and "
                      "positive diagonal scaling", 5.0):
        rng = np.random.default_rng(700)
        bases = [
            MIN_KERNEL,
            fbm_cov([1.0, 2.0, 3.0, 4.0], 0.5),
            random_green(5, seed=12, symmetric=True)[1],
            sheet_counterexample()[1],
            fbm_cov([1.0, 2.0, 3.0, 4.0], 1.5),
            np.array([[1.0, 0.4, -0.4], [0.4, 1.0, 0.4], [-0.4, 0.4, 1.0]]),
        ]
        expected = [is_id_square(G).is_id for G in bases]
        for trial in range(100):
            G = bases[trial % len(bases)]
            want = expected[trial % len(bases)]
            n = G.shape[0]
            s = rng.choice([-1.0, 1.0], size=n)
            d = np.exp(rng.uniform(-1.5, 1.5, size=n))
            transformed = (s * d)[:, None] * G * (s * d)[None, :]
            assert is_id_square(transformed).is_id == want, f"trial {trial}"


def _brute_force_signature(G, A, tol=Tolerances()):
    n = G.shape[0]
    thr_a = tol.zero_threshold(A)
    thr_g = tol.zero_threshold(G)
    for bits in itertools.product([1.0, -1.0], repeat=n):
        s = np.asarray(bits)
        conj = s[:, None] * A * s[None, :]
        if (conj - np.diag(np.diag(conj))).max() > thr_a:
            continue
        if (s[:, None] * G * s[None, :]).min() < -thr_g:
            continue
        return s
    return None


def test_criterion_8_brute_force_signature_oracle():
    with criterion(8, "sign propagation agrees with exhaustive signature "
                      "enumeration", 30.0):
        rng = np.random.default_rng(808)
        found_some, found_none = 0, 0
        for k in range(50):
            n = int(rng.integers(2, 9))
            if k % 2 == 0:
                _, g = random_green(n, seed=int(rng.integers(1 << 31)),
                                    symmetric=True)
                s0 = rng.choice([-1.0, 1.0], size=n)
                G = s0[:, None] * g * s0[None, :]
            else:
                W = rng.normal(size=(n, n))
                G = W @ W.T + 0.5 * n * np.eye(n)
            A = np.linalg.inv(G)
            brute = _brute_force_signature(G, A)
            ours = find_signature(G)
            if brute is None:
                found_none += 1
                assert isinstance(ours, NoSignature), f"instance {k}"
            else:
                found_some += 1
                assert isinstance(ours, Signature), f"instance {k}"
                via_ours = is_m_matrix(ours.conjugate(A))
                via_brute = is_m_matrix(brute[:, None] * A * brute[None, :])
                assert type(via_ours) is type(via_brute), f"instance {k}"
        assert found_some > 0 and found_none > 0


def test_criterion_9_dyadic_convergence():
    with criterion(9, "weighted row sums of the dyadic discretization "
                      "converge for the running-minimum kernel", 10.0):
        deltas = chi_deltas(np.minimum, 1.0, 2.0, levels=range(4, 11))
        for n in range(4, 10):
            assert deltas[n] > deltas[n + 1], f"level {n}"
        assert deltas[10] < 1e-3
