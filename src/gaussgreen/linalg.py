"""Dense linear algebra kernel with explicit tolerance semantics.

Matrices are plain float64 ``numpy.ndarray`` squares.  Every sign decision
made downstream (nonnegativity, nonpositive off-diagonals, row-sum signs)
is three-valued: entries inside the zero band of a :class:`Tolerances`
instance count as zero, everything outside keeps its sign.  The band is
scaled by the magnitude of the matrix under test, so the default behaves
like ``1e-10 * max(1, |A|_max)``.

Positive definiteness is certified by a LAPACK Cholesky factorization
with a pivot floor, and the inverse of a covariance comes from that same
factor; general inversion goes through partially pivoted LU so that
ill-signed inverses of conjugated matrices do not sneak through a
symmetric-only path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgetri, dpotrf, dtrtri

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "NonnegCheck",
    "as_square_matrix",
    "as_covariance",
    "cholesky",
    "invert",
    "transience_bound",
    "is_nonneg",
]


class NotPositiveDefiniteError(Exception):
    """Cholesky pivot at ``pivot_index`` fell below the pivot floor."""

    def __init__(self, pivot_index, pivot_value):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} is "
            f"{pivot_value:.3e}"
        )


class SingularMatrixError(Exception):
    """LU elimination met a pivot below the floor at ``index``."""

    def __init__(self, index, message=None):
        self.index = int(index)
        super().__init__(message or f"matrix is singular at pivot {index}")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by all sign and definiteness decisions.

    Attributes
    ----------
    eps_zero : float
        Relative zero band; an entry of a matrix ``M`` counts as zero when
        its magnitude is at most ``eps_zero * max(1, |M|_max)``.
    eps_psd : float
        Pivot floor for Cholesky and LU elimination.
    sym_tol : float
        Slack allowed between ``M[i, j]`` and ``M[j, i]`` for matrices
        declared symmetric.
    """

    eps_zero: float = 1e-10
    eps_psd: float = 1e-12
    sym_tol: float = 1e-8

    def __post_init__(self):
        if not (0.0 < self.eps_zero < 1.0):
            raise ValueError("eps_zero must lie in (0, 1)")
        if self.eps_psd <= 0.0 or self.sym_tol <= 0.0:
            raise ValueError("eps_psd and sym_tol must be positive")

    def zero_threshold(self, M) -> float:
        """Absolute zero band for entries of ``M``."""
        M = np.asarray(M, dtype=float)
        scale = float(np.abs(M).max()) if M.size else 0.0
        return self.eps_zero * max(1.0, scale)

    def scaled(self, factor: float) -> "Tolerances":
        """Copy with the zero band widened (or narrowed) by ``factor``."""
        return Tolerances(
            eps_zero=min(self.eps_zero * factor, 0.5),
            eps_psd=self.eps_psd,
            sym_tol=self.sym_tol,
        )


DEFAULT_TOL = Tolerances()


class NonnegCheck(NamedTuple):
    """Outcome of an entrywise nonnegativity test."""

    ok: bool
    min_value: float
    index: tuple[int, int]


def as_square_matrix(M, name="matrix") -> np.ndarray:
    """Validate and return ``M`` as a finite square float64 array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def as_covariance(G, tol: Tolerances = DEFAULT_TOL, name="covariance") -> np.ndarray:
    """Validate ``G`` as a square matrix that is symmetric within ``sym_tol``."""
    A = as_square_matrix(G, name=name)
    if A.size:
        gap = np.abs(A - A.T)
        scale = np.maximum(1.0, np.abs(A))
        if (gap > tol.sym_tol * scale).any():
            i, j = np.unravel_index(np.argmax(gap / scale), A.shape)
            raise ValueError(
                f"{name} is not symmetric: |{name}[{i},{j}] - {name}[{j},{i}]|"
                f" = {gap[i, j]:.3e}"
            )
    return A


def cholesky(G, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == G``; certifies definiteness.

    Parameters
    ----------
    G : array_like
        Symmetric matrix (within ``tol.sym_tol``); only its lower triangle
        enters the factorization.
    tol : Tolerances
        ``eps_psd`` is the pivot floor.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot is at most ``eps_psd``; the failing column index is the
        first leading principal minor that is not positive.
    """
    A = as_covariance(G, tol)
    if A.shape[0] == 0:
        return A.copy()
    L, info = dpotrf(A, lower=1, clean=1)
    if info == 0 and np.diag(L).min() ** 2 > tol.eps_psd:
        return L
    # LAPACK stops at the first nonpositive pivot and does not apply the
    # floor; the unblocked loop names the first pivot at or below it.
    return _cholesky_unblocked(A, tol)


def _cholesky_unblocked(A, tol: Tolerances) -> np.ndarray:
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= tol.eps_psd:
            raise NotPositiveDefiniteError(j, pivot)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def invert(
    A, tol: Tolerances = DEFAULT_TOL, inv_tol: float | None = None, factor=None
) -> np.ndarray:
    """Inverse with a residual guarantee.

    Without ``factor`` the inverse goes through partially pivoted LU; with
    the Cholesky factor of a covariance it comes from that factor and is
    exactly symmetric.

    Parameters
    ----------
    A : array_like
        Square nonsingular matrix.
    inv_tol : float, optional
        Bound demanded on ``|A @ M - I|_max``.  Defaults to ``1e-10`` times
        a one-norm condition estimate.
    factor : ndarray, optional
        Lower-triangular ``L`` with ``L @ L.T == A``, as returned by
        :func:`cholesky`.

    Raises
    ------
    SingularMatrixError
        When a U pivot falls below ``eps_psd`` or the residual bound fails.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    if n == 0:
        return A.copy()
    # Not dpotri or dgetrs: OpenBLAS runs those threaded at every size, and
    # on a 2-vCPU host some processes then stall 15-30 ms per call.
    if factor is not None:
        Linv, info = dtrtri(factor, lower=1)
        if info != 0:
            raise SingularMatrixError(info - 1)
        lower = dsyrk(1.0, Linv, trans=1, lower=1)
        M = np.tril(lower) + np.tril(lower, -1).T
        k = int(np.argmin(np.diag(factor)))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(A)
        pivots = np.abs(np.diag(lu))
        k = int(np.argmin(pivots))
        if pivots[k] <= tol.eps_psd:
            raise SingularMatrixError(k)
        M, _ = dgetri(lu, piv)
    residual = float(np.abs(A @ M - np.eye(n)).max())
    if inv_tol is None:
        cond = np.linalg.norm(A, 1) * np.linalg.norm(M, 1)
        inv_tol = 1e-10 * max(1.0, cond)
    if residual > inv_tol:
        raise SingularMatrixError(
            k, f"inverse residual {residual:.3e} exceeds {inv_tol:.3e}"
        )
    return M


def transience_bound(T) -> float:
    """Certified upper bound on ``rho(T)`` for entrywise nonnegative ``T``.

    Solves ``(I - T) x = 𝟙``.  When ``x > 0``, ``T x = x - 𝟙`` gives
    ``(T x)_i / x_i = 1 - 1/x_i``, so the Collatz–Wielandt bound yields
    ``rho(T) <= 1 - 1/max(x) < 1``.  Conversely ``rho(T) < 1`` forces
    ``x = sum_k T^k 𝟙 >= 𝟙``, so a singular system or a nonpositive ``x``
    means ``T`` is not transient; the bound is then ``inf``.
    """
    T = as_square_matrix(T)
    n = T.shape[0]
    try:
        x = np.linalg.solve(np.eye(n) - T, np.ones(n))
    except np.linalg.LinAlgError:
        return np.inf
    if not (x > 0.0).all():
        return np.inf
    return 1.0 - 1.0 / float(x.max())


def is_nonneg(A, eps_zero: float) -> NonnegCheck:
    """Entrywise ``A >= -eps_zero`` with the worst offender reported."""
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return NonnegCheck(True, 0.0, (0, 0))
    flat = int(np.argmin(A))
    index = tuple(int(v) for v in np.unravel_index(flat, A.shape))
    worst = float(A[index])
    return NonnegCheck(worst >= -eps_zero, worst, index)
