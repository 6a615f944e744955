"""Dense linear algebra kernel with explicit tolerance semantics.

Matrices are plain float64 ``numpy.ndarray`` squares.  Every sign decision
made downstream (nonnegativity, nonpositive off-diagonals, row-sum signs)
is three-valued: entries inside the zero band of a :class:`Tolerances`
instance count as zero, everything outside keeps its sign.  The band is
scaled by the magnitude of the matrix under test, so the default behaves
like ``1e-10 * max(1, |A|_max)``.  The zero band is the only tolerance a
caller sets; the pivot floor :data:`EPS_PSD` and the symmetry slack
:data:`SYM_TOL` are fixed constants of this module.

A covariance is decided on its correlation matrix ``C = D G D`` with
``D = diag(G)^{-1/2}``, as ``C⁻¹ = D⁻¹ G⁻¹ D⁻¹`` has the signs of ``G⁻¹``.
:func:`covariance` alone validates a covariance, factors it by LAPACK
Cholesky with a pivot floor relative to the diagonal and inverts ``C`` from
that factor, once for every later test and zero band; it needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "EPS_PSD",
    "SYM_TOL",
    "NotPositiveDefiniteError",
    "SingularMatrixError",
    "Covariance",
    "as_square_matrix",
    "as_covariance",
    "covariance",
    "cholesky",
    "invert",
    "eye_minus",
    "abs_max",
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
    """An inverse failed at pivot ``index`` of its factor."""

    def __init__(self, index):
        self.index = int(index)
        super().__init__(f"matrix is singular at pivot {index}")


# Pivot floor for Cholesky: pivot j at or below EPS_PSD * G_jj is not positive.
EPS_PSD = 1e-12
# Slack allowed between M[i, j] and M[j, i] for matrices declared symmetric,
# relative to sqrt(|M[i, i] M[j, j]|) in as_covariance.
SYM_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The zero band shared by all sign decisions.

    Attributes
    ----------
    eps_zero : float
        Relative zero band; an entry of a matrix ``M`` counts as zero when
        its magnitude is at most ``eps_zero * max(1, |M|_max)``.
    """

    eps_zero: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.eps_zero < 1.0):
            raise ValueError("eps_zero must lie in (0, 1)")

    def zero_threshold(self, M) -> float:
        """Absolute zero band for entries of ``M``."""
        M = np.asarray(M, dtype=float)
        scale = abs_max(M) if M.size else 0.0
        return self.eps_zero * max(1.0, scale)


DEFAULT_TOL = Tolerances()


def as_square_matrix(M, name="matrix") -> np.ndarray:
    """Validate and return ``M`` as a nonempty finite square float64 array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    if A.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return A


def abs_max(M) -> float:
    """``max |M_ij|`` of a nonempty array, without an ``|M|`` temporary."""
    return abs(float(max(M.max(), -M.min())))


def as_covariance(G) -> np.ndarray:
    """Validate ``G`` as a square matrix that is symmetric within ``SYM_TOL``:
    ``|G_ij - G_ji| <= SYM_TOL * sqrt(|G_ii G_jj|)`` for every pair."""
    A = as_square_matrix(G, name="covariance")
    root = np.sqrt(np.abs(A.diagonal()))
    gap = np.subtract(A, A.T)
    np.abs(gap, out=gap)
    # A zero diagonal gives x/0 = inf (rejected) or 0/0 = nan (accepted).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap /= root[:, None]
        gap /= root
    if (gap > SYM_TOL).any():
        i, j = np.unravel_index(np.nanargmax(gap), A.shape)
        raise ValueError(
            f"covariance is not symmetric: |covariance[{i},{j}] - "
            f"covariance[{j},{i}]| = {abs(A[i, j] - A[j, i]):.3e}"
        )
    return A


@dataclass(frozen=True)
class Covariance:
    """A covariance checked by :func:`covariance`, which alone builds it, with
    ``d = diag(G)^{-1/2}``, ``C = diag(d) G diag(d)`` and ``C⁻¹``."""

    G: np.ndarray
    d: np.ndarray
    C: np.ndarray
    inverse: np.ndarray


def covariance(G) -> Covariance:
    """``G`` checked by :func:`as_covariance`, with ``C⁻¹`` from ``diag(d) L``,
    ``L`` the Cholesky factor that certifies ``G``; a :class:`Covariance` is
    returned unchanged, as no zero band enters here and it serves every band."""
    if isinstance(G, Covariance):
        return G
    G = as_covariance(G)
    L = _cholesky(G)
    d = 1.0 / np.sqrt(G.diagonal())
    C = G * d[:, None]
    C *= d
    L *= d[:, None]
    return Covariance(G, d, C, invert(L))


def cholesky(G) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == G``; certifies definiteness.

    Parameters
    ----------
    G : array_like
        Symmetric matrix (within ``SYM_TOL``); only its lower triangle
        enters the factorization.

    Raises
    ------
    NotPositiveDefiniteError
        If pivot ``j`` is at most ``EPS_PSD * G[j, j]``; the failing column
        index is the first leading principal minor that is not positive.
    """
    return _cholesky(as_covariance(G))


def _cholesky(A) -> np.ndarray:
    """:func:`cholesky` of a covariance that :func:`as_covariance` accepted."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        L = None
    if L is not None and (np.diag(L) ** 2 > EPS_PSD * A.diagonal()).all():
        return L
    # LAPACK stops at the first nonpositive pivot without naming it and
    # does not apply the floor; the unblocked loop names the first pivot at
    # or below it.
    return _cholesky_unblocked(A)


def _cholesky_unblocked(A) -> np.ndarray:
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        pivot = A[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= EPS_PSD * A[j, j]:
            raise NotPositiveDefiniteError(j, pivot)
        L[j, j] = np.sqrt(pivot)
        if j + 1 < n:
            L[j + 1 :, j] = (A[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def invert(factor) -> np.ndarray:
    """Inverse ``M = L⁻ᵀ L⁻¹`` of ``A = L Lᵀ`` from its Cholesky factor ``L``,
    exactly symmetric.  Its residual needs no check: an inverse taken from a
    Cholesky factor has ``|A M - I|_max`` of order ``n u |A|_1 |M|_1``, ``u``
    the unit roundoff (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §14.3).

    Parameters
    ----------
    factor : array_like
        Lower-triangular ``L``, as returned by :func:`cholesky`.

    Raises
    ------
    SingularMatrixError
        When ``factor`` has a zero diagonal entry; ``index`` names the first.
    """
    factor = as_square_matrix(factor, name="factor")
    diag = np.abs(np.diag(factor))
    k = int(np.argmin(diag))
    if diag[k] == 0.0:
        raise SingularMatrixError(k)
    Linv = _tril_inverse(factor)
    # A^-1 = L^-T L^-1; mirroring one triangle makes it exactly symmetric,
    # and adding 0.0 turns each -0.0 into 0.0, so a zero entry (and a zero
    # margin read from it) has one sign however it arose.
    M = Linv.T @ Linv
    del Linv
    for i in range(factor.shape[0] - 1):
        M[i, i + 1 :] = M[i + 1 :, i]
    M += 0.0
    return M


# Below this size one LAPACK inverse of the block beats further splitting.
_TRIL_LEAF = 64


def _tril_inverse(L) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular ``L``, by recursive halving.

    With ``L = [[P, 0], [C, D]]`` the inverse is
    ``[[P⁻¹, 0], [-D⁻¹ C P⁻¹, D⁻¹]]``, so all work outside the small
    diagonal blocks is matrix products.  A plain ``np.linalg.inv(L)``
    ignores the structure and is several times slower from n of a few
    hundred on.
    """
    n = L.shape[0]
    if n <= _TRIL_LEAF:
        return np.tril(np.linalg.inv(L))
    h = n // 2
    Pinv = _tril_inverse(L[:h, :h])
    Dinv = _tril_inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h] = Pinv
    out[h:, h:] = Dinv
    block = out[h:, :h]
    np.matmul(Dinv, L[h:, :h] @ Pinv, out=block)
    np.negative(block, out=block)
    return out


def eye_minus(T, c=1.0, out=None) -> np.ndarray:
    """``c * np.eye(n) - T`` entry for entry, without the identity: into a
    new array, or into ``out``, which may be ``T`` itself."""
    diagonal = c - T.diagonal()
    out = np.subtract(c * 0.0, T, out=out)
    out.flat[:: T.shape[0] + 1] = diagonal
    return out
