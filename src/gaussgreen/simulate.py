"""Stochastic verification oracles.

Everything here re-derives quantities the deterministic modules compute by
linear algebra, through an independent route: killed-chain trajectories for
visit counts, Gaussian sampling for covariances, and plain Monte-Carlo
averaging for the determinant formula of the squared-vector Laplace
transform.  All estimators are deterministic functions of their seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_covariance,
    as_square_matrix,
    cholesky,
    transience_bound,
)

__all__ = [
    "ChainSpec",
    "SimReport",
    "InvalidChainError",
    "validate_chain",
    "simulate_green",
    "simulate_ct_green",
    "sample_gaussian",
    "laplace_exact",
    "laplace_mc",
]

# Visit tails decay geometrically; trajectories are cut once the surviving
# mass is below this and the cut is counted in SimReport.overflow.
_PATH_TAIL = 1e-12


class InvalidChainError(Exception):
    """Chain data violated substochasticity, killing, or transience."""


@dataclass(frozen=True)
class ChainSpec:
    """Killed Markov chain: transitions ``T``, killing ``kappa``, rate ``c``.

    Row ``i`` of ``T`` gives the jump probabilities from state ``i``;
    ``kappa[i] = 1 - sum_j T[i, j]`` is the probability of moving to the
    cemetery instead.  ``c`` is the event rate of the continuous-time
    version (exponential holding times with mean ``1/c``).
    """

    T: np.ndarray
    kappa: np.ndarray
    c: float = 1.0

    @property
    def n(self) -> int:
        return np.asarray(self.T).shape[0]


def validate_chain(chain: ChainSpec, tol: Tolerances = DEFAULT_TOL) -> float:
    """Raise :class:`InvalidChainError` unless all chain invariants hold.

    Returns the certified bound ``rho(T) <= 1 - 1/max(x) < 1`` with
    ``(I - T) x = 𝟙`` (see :func:`~gaussgreen.linalg.transience_bound`).
    """
    T = as_square_matrix(chain.T, name="transition matrix")
    kappa = np.asarray(chain.kappa, dtype=float)
    n = T.shape[0]
    if n == 0:
        raise InvalidChainError("chain needs at least one state")
    thr = tol.zero_threshold(T)
    if kappa.shape != (n,):
        raise InvalidChainError(f"kappa has shape {kappa.shape}, expected ({n},)")
    if not np.isfinite(kappa).all():
        raise InvalidChainError("kappa contains NaN or Inf")
    if T.size and T.min() < -thr:
        raise InvalidChainError(f"negative transition probability {T.min():.3e}")
    if kappa.min() < -thr:
        raise InvalidChainError(f"negative killing probability {kappa.min():.3e}")
    if kappa.max() <= thr:
        raise InvalidChainError("no state has positive killing probability")
    gap = np.abs(T.sum(axis=1) + kappa - 1.0)
    if gap.max() > max(thr, 1e-9):
        raise InvalidChainError("rows of T plus kappa do not sum to 1")
    if chain.c <= 0.0:
        raise InvalidChainError("rate c must be positive")
    rho = transience_bound(T)
    if rho >= 1.0:
        raise InvalidChainError("cannot certify spectral radius of T below 1")
    return rho


def _max_steps(rho: float) -> int:
    if rho <= 0.0:
        return 1
    return max(1, int(np.ceil(np.log(_PATH_TAIL) / np.log(rho))))


def _run_paths(chain: ChainSpec, n_paths: int, seed, weigh_sojourns: bool):
    """Visit counts (or occupation times) per start state, one RNG stream each.

    Returns ``(estimate, stderr, overflow)``; estimates are means over
    ``n_paths`` independent killed trajectories started from each state,
    counting the start itself.
    """
    rho = validate_chain(chain)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    T = np.clip(np.asarray(chain.T, dtype=float), 0.0, None)
    n = T.shape[0]
    cum = np.cumsum(T, axis=1)
    survive_p = cum[:, -1] if n else np.zeros(0)
    cap = _max_steps(rho)

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


@dataclass(frozen=True)
class SimReport:
    """Monte-Carlo estimate with per-entry standard errors.

    ``n_draws`` is the number of independent replicates (paths or samples);
    ``overflow`` counts trajectories cut at the length cap.  Identical
    seeds give bit-identical reports.
    """

    estimate: np.ndarray | float
    stderr: np.ndarray | float
    n_draws: int
    seed: int
    elapsed: float
    overflow: int = 0

    def to_dict(self, include_timing: bool = False) -> dict:
        est = self.estimate
        err = self.stderr
        out = {
            "estimate": est.tolist() if isinstance(est, np.ndarray) else est,
            "stderr": err.tolist() if isinstance(err, np.ndarray) else err,
            "n_draws": self.n_draws,
            "seed": self.seed,
            "overflow": self.overflow,
        }
        if include_timing:
            out["elapsed"] = self.elapsed
        return out


def simulate_green(chain: ChainSpec, n_paths: int, seed) -> SimReport:
    """Estimate expected visit counts ``g[i, j]`` by simulating the chain.

    Each of ``n_paths`` trajectories per start state ``i`` jumps with row
    ``i`` of ``T`` and dies with probability ``kappa[i]``; the tally for
    state ``j`` includes the visit at time 0.  The estimate is unbiased for
    ``(I - T)⁻¹`` up to the audited truncation cap.
    """
    t0 = time.perf_counter()
    estimate, stderr, overflow = _run_paths(chain, n_paths, seed, False)
    return SimReport(
        estimate=estimate,
        stderr=stderr,
        n_draws=int(n_paths),
        seed=int(seed),
        elapsed=time.perf_counter() - t0,
        overflow=overflow,
    )


def simulate_ct_green(chain: ChainSpec, n_paths: int, seed) -> SimReport:
    """Occupation times of the continuous-time chain (rate-``c`` holding).

    Every visit contributes an exponential sojourn with mean ``1/c``, so
    the expected occupation matrix is ``g / c``.
    """
    t0 = time.perf_counter()
    estimate, stderr, overflow = _run_paths(chain, n_paths, seed, True)
    return SimReport(
        estimate=estimate,
        stderr=stderr,
        n_draws=int(n_paths),
        seed=int(seed),
        elapsed=time.perf_counter() - t0,
        overflow=overflow,
    )


def sample_gaussian(G, n_samples: int, seed) -> np.ndarray:
    """Draw ``n_samples`` centered Gaussian vectors with covariance ``G``.

    Uses the Cholesky factor, so positive definiteness is certified as a
    side effect.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    L = cholesky(G)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((int(n_samples), L.shape[0]))
    return z @ L.T


def laplace_exact(G, t) -> float:
    """Laplace transform of the squared vector: ``det(I + G diag(t))^(-1/2)``.

    The normalization pairs each rate with half a squared coordinate, i.e.
    the value equals ``E exp(-sum_i t_i x_i^2 / 2)`` for ``x`` centered
    Gaussian with covariance ``G``.  Requires ``t >= 0`` entrywise; the
    value lies in ``(0, 1]``.
    """
    G = as_covariance(G)
    t = np.asarray(t, dtype=float)
    if t.shape != (G.shape[0],):
        raise ValueError(f"t has shape {t.shape}, expected ({G.shape[0]},)")
    if t.size and t.min() < 0.0:
        raise ValueError("t must be entrywise nonnegative")
    sign, logdet = np.linalg.slogdet(np.eye(G.shape[0]) + G * t[None, :])
    if sign <= 0.0:
        raise ValueError(
            f"det(I + G diag(t)) = {sign * np.exp(logdet):.6g} is not positive; "
            "G is not a covariance"
        )
    return float(np.exp(-0.5 * logdet))


def laplace_mc(G, t, n_samples: int, seed) -> SimReport:
    """Monte-Carlo version of :func:`laplace_exact` from Gaussian samples.

    Averages ``exp(-sum_i t_i x_i^2 / 2)``, matching the half-square
    normalization of the determinant formula.
    """
    t0 = time.perf_counter()
    t = np.asarray(t, dtype=float)
    if t.size and t.min() < 0.0:
        raise ValueError("t must be entrywise nonnegative")
    x = sample_gaussian(G, n_samples, seed)
    values = np.exp(-0.5 * (x**2) @ t)
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return SimReport(
        estimate=estimate,
        stderr=stderr,
        n_draws=int(n_samples),
        seed=int(seed),
        elapsed=time.perf_counter() - t0,
    )
