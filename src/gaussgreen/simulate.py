"""Stochastic verification oracles.

Killed-chain trajectories re-derive the visit counts that the deterministic
modules compute by linear algebra.  :func:`laplace` gives the Laplace
transform of the squared Gaussian vector two ways from one Cholesky factor
of the covariance: exactly, as a determinant, and by plain Monte-Carlo
averaging over Gaussian samples drawn with that factor.  All estimators are
deterministic functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import closed_states, transience_bound
from .linalg import DEFAULT_TOL, as_square_matrix, cholesky

__all__ = [
    "ChainSpec",
    "SimReport",
    "InvalidChainError",
    "validate_chain",
    "simulate_green",
    "simulate_ct_green",
    "laplace",
]

# A closed class named in an error message lists at most this many states.
_LISTED_STATES = 10

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


def validate_chain(chain: ChainSpec, *, x=None) -> float:
    """Raise :class:`InvalidChainError` unless all chain invariants hold.

    Entries of ``T`` and ``kappa`` inside the default zero band of ``T``
    count as zero, whatever band a verdict on the covariance used.

    Returns ``rho(T) <= max_i (T x)_i / x_i < 1`` for ``T`` clipped at 0 as
    it is simulated: the M-matrix bracket's third user,
    :func:`~gaussgreen.criteria.transience_bound`, certifies ``I - T`` with
    ``x``.  That is the given ``x``, such as the expected visit counts
    ``g 𝟙`` a decomposition knows in closed form, or else the solve of
    ``(I - T) x = 𝟙``.  When the bound is not certified, the message names
    the states that can reach no state whose row of ``T`` sums below 1, a
    closed class, if there are any.
    """
    T = as_square_matrix(chain.T, name="transition matrix")
    kappa = np.asarray(chain.kappa, dtype=float)
    n = T.shape[0]
    thr = DEFAULT_TOL.zero_threshold(T)
    if kappa.shape != (n,):
        raise InvalidChainError(f"kappa has shape {kappa.shape}, expected ({n},)")
    if not np.isfinite(kappa).all():
        raise InvalidChainError("kappa contains NaN or Inf")
    if T.min() < -thr:
        raise InvalidChainError(f"negative transition probability {T.min():.3e}")
    if kappa.min() < -thr:
        raise InvalidChainError(f"negative killing probability {kappa.min():.3e}")
    if kappa.max() <= thr:
        raise InvalidChainError("no state has positive killing probability")
    gap = np.abs(T.sum(axis=1) + kappa - 1.0)
    if gap.max() > max(thr, 1e-9):
        raise InvalidChainError("rows of T plus kappa do not sum to 1")
    if not (np.isfinite(chain.c) and chain.c > 0.0):
        raise InvalidChainError(f"rate c must be finite and positive, got {chain.c}")
    rho = transience_bound(T, x)
    if rho >= 1.0:
        closed = closed_states(T)
        if closed:
            listed = ", ".join(map(str, closed[:_LISTED_STATES]))
            if len(closed) > _LISTED_STATES:
                listed += f", ... ({len(closed)} states)"
            raise InvalidChainError(f"states ({listed}) form a closed class: rho(T) = 1")
        raise InvalidChainError("cannot certify spectral radius of T below 1")
    return rho


def _max_steps(rho: float) -> int:
    if rho <= 0.0:
        return 1
    return max(1, int(np.ceil(np.log(_PATH_TAIL) / np.log(rho))))


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """Guide table for inverse-CDF draws from the rows of ``cum``.

    ``cum`` is ``(n, M)`` with ``M`` a power of two and nondecreasing rows
    whose last entry exceeds every uniform.  ``guide[s * M + b]`` is the
    flat index into ``cum`` of the first column ``j`` with
    ``cum[s, j] > b / M`` (Chen & Asau 1974; Devroye 1986, §III.2).  With
    ``M`` a power of two, ``b = floor(r * M)`` gives ``b / M <= r`` exactly:
    no column before the entry is the first ``j`` with ``r < cum[s, j]``,
    and a forward walk from the entry finds it.  At most ``n`` of a row's
    ``M`` buckets hold a boundary of the row, so the expected walk is at
    most ``n / M`` columns long.
    """
    n, M = cum.shape
    edges = np.arange(M) / M
    guide = np.empty((n, M), dtype=np.intp)
    for s in range(n):
        guide[s] = np.searchsorted(cum[s], edges, side="right")
    guide += M * np.arange(n, dtype=np.intp)[:, None]
    return guide.ravel()


# Guide buckets per row: _GUIDE_FACTOR (a power of two) times 2^bitlen(n),
# the smallest power of two above n, halved while the table would hold more
# than _GUIDE_ENTRIES entries (2 MiB each for cum and guide), but never
# below 2^bitlen(n).  On the verify_mc benchmark chains (n = 3-30, seed 1,
# 10 000 paths), the share of draws that walk past their bucket's entry is
# 11-43 % at 1x, 3.7-12 % at 4x, 1.5-6 % at 8x and 0.8-3 % at 16x.  16x
# would double the table to halve a walk share that is already small, so
# 8x.  A 30-state chain gets 256-bucket rows; the budget binds from n = 129.
_GUIDE_FACTOR = 8
_GUIDE_ENTRIES = 1 << 18

# Tally cells (start states x paths x states) simulated together: 2^20
# cells, 4 MiB of int32 or 8 MiB of float64 tallies.  A chain whose tallies
# fit runs as one group; a larger one runs in the fewest groups that fit,
# each as many start states as fit, and always at least one.  On a 2-vCPU
# Xeon VM with one BLAS thread, the verify_mc benchmark (10 000 paths per
# start) peaks at 65.6-65.7 MB resident at this budget (seeds 1 and 7, ten
# runs each), against 68.4-68.9 MB at 2^16 cells; 2^21 and 2^22 cells ran
# it no faster and peaked at 84.9 and 115.4 MB, over the benchmark's 5 %
# memory bound.
_GROUP_CELLS = 1 << 20


def _guide_width(n: int) -> int:
    """Guide buckets per row for an ``n``-state chain, a power of two."""
    least = 1 << n.bit_length()
    M = least * _GUIDE_FACTOR
    while M > least and n * M > _GUIDE_ENTRIES:
        M >>= 1
    return M


def _per_start(rngs, rows, edges, draw) -> np.ndarray:
    """One draw per surviving path, from the stream of its start state.

    ``rows`` is sorted by (start, path) and ``edges`` holds the first tally
    offset of each start, so each stream fills its paths in path order.
    """
    bounds = np.searchsorted(rows, edges)
    out = np.empty(rows.size)
    for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
        if hi > lo:
            draw(rng, out[lo:hi])
    return out


def _run_paths(chain: ChainSpec, n_paths: int, seed, weigh_sojourns: bool) -> SimReport:
    """Visit counts (or occupation times) per start state, one RNG stream each.

    Estimates are means over ``n_paths`` independent killed trajectories
    started from each state, counting the start itself.  Start state ``s``
    draws only from child ``s`` of ``SeedSequence(seed)``: per step, one
    uniform per surviving path in path order, then (occupation times) one
    exponential sojourn per path that jumped.  Start states are simulated
    in groups, which leaves every stream, and so every report, as it would
    be one start at a time.
    """
    rho = validate_chain(chain)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    n = chain.n
    # Columns n and up are the cemetery: a uniform at or above the row's
    # survival probability cum[s, n - 1] lands there and kills the path.
    # Rows are M wide, so a state's row starts at the same flat offset
    # state * M in cum and in the guide table.  T, clipped at 0 as
    # validate_chain certified it, is summed in the rows it is clipped into.
    M = _guide_width(n)
    cum = np.full((n, M), np.inf)
    np.clip(chain.T, 0.0, None, out=cum[:, :n])
    np.cumsum(cum[:, :n], axis=1, out=cum[:, :n])
    guide = _guide_table(cum)
    # Uniforms are scaled by M in place and compared with cum * M: both
    # products are exact, since M is a power of two.
    cum *= M
    cum_flat = cum.ravel()
    cap = _max_steps(rho)
    scale = 1.0 / chain.c

    def uniforms(rng, out):
        rng.random(out=out)

    def sojourns(rng, out):
        # The same draws as rng.exponential(scale), without a temporary.
        rng.standard_exponential(out=out)
        out *= scale

    estimate = np.empty((n, n))
    stderr = np.empty((n, n))
    overflow = 0
    streams = np.random.SeedSequence(seed).spawn(n)
    dtype = float if weigh_sojourns else np.int32
    one = np.int32(1)  # same dtype as the tallies keeps np.add.at on its fast loop
    group = max(1, _GROUP_CELLS // (n_paths * n))
    for first in range(0, n, group):
        starts = np.arange(first, min(n, first + group), dtype=np.intp)
        rngs = [np.random.default_rng(streams[s]) for s in starts]
        tallies = np.zeros((starts.size, n_paths, n), dtype=dtype)
        flat = tallies.reshape(-1)
        edges = np.arange(starts.size + 1, dtype=np.intp) * (n_paths * n)
        # Flat offset of each surviving path's tally row, and its state.
        rows = np.arange(starts.size * n_paths, dtype=np.intp) * n
        states = np.repeat(starts, n_paths)
        if weigh_sojourns:
            flat[rows + states] = _per_start(rngs, rows, edges, sojourns)
        else:
            flat[rows + states] = 1
        for _ in range(cap):
            r = _per_start(rngs, rows, edges, uniforms)
            r *= M
            # First j with r < cum[state, j]: the guide entry, then a walk
            # that stops inside the row, at the latest on its inf column.
            pos = r.astype(np.intp)
            states *= M
            pos += states
            pos = guide[pos]
            ahead = (r >= cum_flat[pos]).nonzero()[0]
            while ahead.size:
                pos[ahead] += 1
                ahead = ahead[r[ahead] >= cum_flat[pos[ahead]]]
            pos &= M - 1
            alive = pos < n
            rows, states = rows[alive], pos[alive]
            if rows.size == 0:
                break
            if weigh_sojourns:
                np.add.at(flat, rows + states, _per_start(rngs, rows, edges, sojourns))
            else:
                np.add.at(flat, rows + states, one)
        overflow += int(rows.size)
        # np.mean and np.std(ddof=1), step for step and in their axis-0
        # summation order, from one float64 buffer per start: a copy of the
        # visit counts, or the occupation times themselves.  The counts'
        # float64 sums are exact, so the order np.mean's casting sum takes
        # does not matter.
        for k, start in enumerate(starts):
            f = tallies[k].astype(float, copy=False)
            m = np.add.reduce(f, axis=0) / n_paths
            estimate[start] = m
            if n_paths > 1:
                f -= m
                f *= f
                stderr[start] = np.sqrt(np.add.reduce(f, axis=0) / (n_paths - 1)) / np.sqrt(n_paths)
            else:
                stderr[start] = 0.0
    return SimReport(
        estimate=estimate,
        stderr=stderr,
        n_draws=int(n_paths),
        seed=int(seed),
        overflow=overflow,
    )


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
    overflow: int = 0

    def to_dict(self) -> dict:
        """Report fields; arrays stay arrays, which the CLI writer encodes."""
        return {
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n_draws": self.n_draws,
            "seed": self.seed,
            "overflow": self.overflow,
        }


def simulate_green(chain: ChainSpec, n_paths: int, seed) -> SimReport:
    """Estimate expected visit counts ``g[i, j]`` by simulating the chain.

    Each of ``n_paths`` trajectories per start state ``i`` jumps with row
    ``i`` of ``T`` and dies with probability ``kappa[i]``; the tally for
    state ``j`` includes the visit at time 0.  The estimate is unbiased for
    ``(I - T)⁻¹`` up to the audited truncation cap.
    """
    return _run_paths(chain, n_paths, seed, False)


def simulate_ct_green(chain: ChainSpec, n_paths: int, seed) -> SimReport:
    """Occupation times of the continuous-time chain (rate-``c`` holding).

    Every visit contributes an exponential sojourn with mean ``1/c``, so
    the expected occupation matrix is ``g / c``.
    """
    return _run_paths(chain, n_paths, seed, True)


def _rates(t, n: int) -> np.ndarray:
    """Validate ``t`` as ``n`` finite, entrywise nonnegative rates."""
    t = np.asarray(t, dtype=float)
    if t.shape != (n,):
        raise ValueError(f"t has shape {t.shape}, expected ({n},)")
    if not np.isfinite(t).all():
        raise ValueError("t contains NaN or Inf entries")
    if t.size and t.min() < 0.0:
        raise ValueError("t must be entrywise nonnegative")
    return t


def laplace(G, t, n_samples: int = 0, seed=0) -> tuple[float, SimReport | None]:
    """``(exact, mc)`` for the Laplace transform of the squared vector,
    ``det(I + G diag(t))^(-1/2) = E exp(-sum_i t_i x_i^2 / 2)``, from one
    Cholesky factor ``G = L Lᵀ``.

    By Sylvester's identity the determinant is ``det(I + Lᵀ diag(t) L)``,
    the squared diagonal product of that matrix's Cholesky factor, here the
    triangle of a QR factorization of ``[diag(√t) L; I]``: the product is
    never formed, so huge rates cannot overflow it.  ``mc`` is
    :func:`laplace_mc` on the same factor, or ``None`` when ``n_samples``
    is 0.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    L = cholesky(G)
    n = L.shape[0]
    t = _rates(t, n)
    R = np.linalg.qr(np.vstack([np.sqrt(t)[:, None] * L, np.eye(n)]), mode="r")
    exact = float(np.prod(1.0 / np.abs(np.diag(R))))
    return exact, (laplace_mc(L, t, n_samples, seed) if n_samples else None)


def laplace_mc(L: np.ndarray, t: np.ndarray, n_samples: int, seed) -> SimReport:
    """Monte-Carlo half of :func:`laplace` for a validated factor and rates.

    Averages ``exp(-sum_i t_i x_i^2 / 2)`` over ``n_samples >= 1`` draws
    ``x = L z``, ``z`` from ``default_rng(seed)``.  Not exported; it keeps a
    public name so that the benchmark times it as its own layer function.
    """
    x = np.random.default_rng(seed).standard_normal((int(n_samples), L.shape[0])) @ L.T
    # A column at a rate of 0 weighs nothing, even where its square would
    # overflow (inf * 0 is NaN).
    x[:, t == 0.0] = 0.0
    with np.errstate(over="ignore"):  # an infinite exponent gives exp(-inf) = 0
        values = np.exp(-0.5 * np.square(x, out=x) @ t)
    stderr = float(values.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return SimReport(float(values.mean()), stderr, int(n_samples), int(seed))
