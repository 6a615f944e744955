"""Covariance generators and discretization grids.

Families: fractional-noise covariances ``|x|^b + |y|^b - |x-y|^b`` on a
1-d grid, the running-minimum covariance ``min(x, y)``, the two-parameter
sheet covariance ``min(x, x') * min(s, s')`` with its canonical 4-point
instance whose inverse has a positive off-diagonal entry, random
visit-count matrices drawn from explicit substochastic chains, diagonal
rescalings, and the dyadic column-weighted discretization of a continuous
kernel against the reference measure with density
``min(1, cov(y, y)^(-1/2)) * exp(-|y|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_square_matrix
from .simulate import ChainSpec

__all__ = [
    "BetaOutOfRangeError",
    "NonPositivePointError",
    "NonPositiveScaleError",
    "QuadratureFailureError",
    "DyadicGrid",
    "fbm_cov",
    "brownian_cov",
    "sheet_cov",
    "sheet_counterexample",
    "random_green",
    "scale_conjugate",
    "measure_density",
    "adaptive_simpson",
    "dyadic_discretize",
    "chi_deltas",
]


class BetaOutOfRangeError(ValueError):
    """Roughness index outside (0, 2)."""


class NonPositivePointError(ValueError):
    """Grid point violated the positivity required by the family."""


class NonPositiveScaleError(ValueError):
    """Diagonal scaling vector had a nonpositive entry."""


class QuadratureFailureError(Exception):
    """Adaptive Simpson refinement exceeded its depth budget."""


def _require_finite(x: np.ndarray, what: str) -> None:
    bad = x[~np.isfinite(x)]
    if bad.size:
        raise ValueError(f"{what} must be finite, got {bad[0]}")


def _grid(points) -> np.ndarray:
    """``points`` as a finite, strictly positive, strictly increasing 1-d grid."""
    x = np.asarray(points, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("points must be a nonempty 1-d sequence")
    _require_finite(x, "grid points")
    if x.min() <= 0.0:
        raise NonPositivePointError("grid points must be strictly positive")
    if x.size > 1 and not (np.diff(x) > 0).all():
        raise ValueError("grid points must be strictly increasing")
    return x


def fbm_cov(points, beta: float) -> np.ndarray:
    """Fractional-noise covariance ``|x|^b + |y|^b - |x-y|^b`` on a grid.

    ``beta`` must lie in (0, 2) and ``points`` must be finite, strictly
    positive and strictly increasing (the point 0 would give a zero
    row/column).  ``beta = 1`` gives exactly twice the running-minimum
    covariance.
    """
    if not 0.0 < beta < 2.0:
        raise BetaOutOfRangeError(f"beta must lie in (0, 2), got {beta}")
    x = _grid(points)
    return x[:, None] ** beta + x[None, :] ** beta - np.abs(x[:, None] - x[None, :]) ** beta


def brownian_cov(points) -> np.ndarray:
    """Running-minimum covariance ``G[i, j] = min(x_i, x_j)``.

    Points must be finite, strictly positive and strictly increasing.
    """
    x = _grid(points)
    return np.minimum(x[:, None], x[None, :])


def sheet_cov(points) -> np.ndarray:
    """Two-parameter covariance ``min(x, x') * min(s, s')``.

    ``points`` is a sequence of ``(x, s)`` pairs with finite positive
    coordinates and no exact duplicates.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty sequence of (x, s) pairs")
    _require_finite(pts, "sheet coordinates")
    if pts.min() <= 0.0:
        raise NonPositivePointError("sheet coordinates must be strictly positive")
    if np.unique(pts, axis=0).shape[0] != pts.shape[0]:
        raise ValueError("sheet points must be distinct")
    x, s = pts[:, 0], pts[:, 1]
    return np.minimum(x[:, None], x[None, :]) * np.minimum(s[:, None], s[None, :])


def sheet_counterexample():
    """Canonical 4-point sheet instance whose squared vector is not ID.

    Points ``(1,2), (3,4), (2,3), (4,1)`` satisfy the interleaved orderings
    ``x1 < x3 < x2 < x4`` and ``s4 < s1 < s3 < s2``; the resulting
    covariance has ``(G^-1)[0, 1] = 1/74 > 0``, so no signature can make
    the inverse an M-matrix.
    """
    points = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0], [4.0, 1.0]])
    return points, sheet_cov(points)


def random_green(n: int, seed, symmetric: bool = True):
    """Random visit-count matrix of an explicit substochastic chain.

    Draws a strictly positive matrix ``B`` (symmetrized when asked), sets
    ``c = 1.1 * max row sum`` so that ``T = B / c`` is substochastic with a
    uniform killing margin, and returns the chain together with
    ``g = (I - T)^-1``.  For ``symmetric=True`` the matrix ``g`` is a
    positive definite covariance classified as an outright Green matrix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    B = rng.uniform(0.1, 1.0, size=(n, n))
    if symmetric:
        B = 0.5 * (B + B.T)
    c = 1.1 * float(B.sum(axis=1).max())
    T = B / c
    kappa = 1.0 - T.sum(axis=1)
    g = np.linalg.inv(np.eye(n) - T)
    return ChainSpec(T=T, kappa=kappa, c=c), g


def scale_conjugate(G, d) -> np.ndarray:
    """Diagonal conjugation ``diag(d) G diag(d)`` with finite ``d > 0``.

    Preserves the infinite-divisibility verdict of the squared vector but
    generally not the Green-matrix classification.
    """
    G = as_square_matrix(G)
    d = np.asarray(d, dtype=float)
    if d.shape != (G.shape[0],):
        raise ValueError(f"scaling has shape {d.shape}, expected ({G.shape[0]},)")
    _require_finite(d, "scaling entries")
    if d.min() <= 0.0:
        raise NonPositiveScaleError("scaling entries must be strictly positive")
    return d[:, None] * G * d[None, :]


def measure_density(cov):
    """Density ``y -> min(1, cov(y, y)^(-1/2)) * exp(-|y|)`` as a callable."""

    def density(y: float) -> float:
        v = float(cov(y, y))
        cap = 1.0 if v <= 1.0 else 1.0 / np.sqrt(v)
        return cap * float(np.exp(-abs(y)))

    return density


def adaptive_simpson(f, a: float, b: float, rel_tol: float = 1e-8,
                     max_depth: int = 50) -> float:
    """Adaptive Simpson quadrature with interval bisection.

    Refines until the Richardson error estimate falls below ``rel_tol``
    relative to the running value; raises
    :class:`QuadratureFailureError` past ``max_depth`` bisections.
    """

    def recurse(a, b, fa, fm, fb, whole, depth):
        if depth > max_depth:
            raise QuadratureFailureError(
                f"no convergence on [{a}, {b}] after {max_depth} bisections"
            )
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * rel_tol * (abs(left + right) + 1e-300):
            return left + right + (left + right - whole) / 15.0
        return recurse(a, m, fa, flm, fm, left, depth + 1) + recurse(
            m, b, fm, frm, fb, right, depth + 1
        )

    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    fa, fb, fm = f(a), f(b), f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return recurse(a, b, fa, fm, fb, whole, 0)


@dataclass(frozen=True)
class DyadicGrid:
    """Level-``level`` dyadic nodes of ``[a, b]`` with cell measure weights.

    ``nodes[k] = k0/2^level + k/2^level`` are the dyadic points inside the
    interval; ``weights[k]`` integrates the reference measure over the cell
    ``[nodes[k], nodes[k] + 2^-level]`` (the last cell pokes past ``b``).
    """

    a: float
    b: float
    level: int
    nodes: np.ndarray
    weights: np.ndarray


# G_n holds N x N float64 entries for N nodes: 2^13 nodes is 512 MiB.
_MAX_DYADIC_NODES = 1 << 13


def dyadic_discretize(cov, a: float, b: float, level: int):
    """Column-weighted discretization of a kernel on the dyadic grid.

    ``G_n[k, l] = cov(x_k, x_l) * weights[l]`` (not symmetric: weights act
    on columns only) and ``chi_n = G_n @ 1`` approximates the integral of
    the kernel against the reference measure.

    Returns ``(DyadicGrid, G_n, chi_n)``.
    """
    if not b > a:
        raise ValueError("need a < b")
    if level < 0:
        raise ValueError("level must be nonnegative")
    scale = 2.0**level
    k0 = int(np.ceil(a * scale))
    k1 = int(np.floor(b * scale))
    if k1 < k0:
        raise ValueError("no dyadic nodes of this level inside [a, b]")
    if k1 - k0 + 1 > _MAX_DYADIC_NODES:
        raise ValueError("dyadic level too fine for the memory guard")
    nodes = np.arange(k0, k1 + 1, dtype=float) / scale
    density = measure_density(cov)
    h = 1.0 / scale
    weights = np.array([adaptive_simpson(density, x, x + h) for x in nodes])
    grid = DyadicGrid(a=float(a), b=float(b), level=int(level), nodes=nodes,
                      weights=weights)
    G_n = cov(nodes[:, None], nodes[None, :]) * weights[None, :]
    chi_n = G_n.sum(axis=1)
    return grid, G_n, chi_n


def chi_deltas(cov, a: float, b: float, levels) -> dict[int, float]:
    """Sup-norm change of ``chi`` between consecutive dyadic levels.

    For each ``n`` in ``levels`` compares ``chi_n`` with ``chi_{n+1}`` at
    the level-``n`` nodes (always a subset of the finer nodes) and records
    the largest absolute difference.
    """
    levels = sorted(set(int(n) for n in levels))
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def level_chi(n):
        if n not in cache:
            grid, _, chi = dyadic_discretize(cov, a, b, n)
            cache[n] = (grid.nodes, chi)
        return cache[n]

    out: dict[int, float] = {}
    for n in levels:
        nodes, chi = level_chi(n)
        nodes2, chi2 = level_chi(n + 1)
        # level-n node k/2^n equals level-(n+1) node 2k/2^(n+1)
        offset = int(round(nodes[0] * 2.0 ** (n + 1) - nodes2[0] * 2.0 ** (n + 1)))
        coarse_in_fine = chi2[offset :: 2][: chi.size]
        out[n] = float(np.abs(chi - coarse_in_fine).max())
    return out
