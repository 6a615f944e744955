"""Explicit Markov-chain construction behind an infinitely divisible square.

Once ``S G S`` has an M-matrix inverse ``A = c I - B``, the positive vector
``u = (S G S) 𝟙`` satisfies ``A u = 𝟙``, so ``D = diag(1/u)`` makes
``D A D⁻¹`` row-sum positive.  The matrix ``T = D (B / c) D⁻¹`` is then a
strictly substochastic transition matrix, the killed chain it defines is
transient, and its expected-visit-count matrix ``g = (I - T)⁻¹`` reproduces
the covariance through ``c · D (S G S) D⁻¹ = g``, so
``G = S D⁻¹ (I - T)⁻¹ D S / c``.  The decomposition is that chain: its
signature, ``u``, ``c``, ``T`` and the killing ``kappa``.  Since ``B`` is
symmetric, ``T`` is in detailed balance with the weights ``μ = u²``:
``μ_i T_ij = μ_j T_ji``.

This module builds the chain from the verdict on the correlation matrix
``C = E G E``, ``E = diag(G)^{-1/2}``: its signature, and its certificate's
``c' I - S C⁻¹ S``, whose off-diagonals scaled by ``E`` on both sides are
those of ``-A = -S E C⁻¹ E S``; ``c = max diag A``.  It verifies what it
builds: the chain (:func:`validate_chain`, certified by the expected visit
counts ``x = g 𝟙 = c D (S G S) u`` with no solve) and the link
``(I - T) x = 𝟙`` between ``T``, built from ``C⁻¹``, and ``x``, built from
``G``.  ``(I - T) g = I`` in full would only repeat the residual of
``C⁻¹``, which its Cholesky factor bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import Signature, is_id_square
from .linalg import DEFAULT_TOL, Tolerances, abs_max, covariance
from .simulate import ChainSpec, InvalidChainError, validate_chain

__all__ = [
    "GreenDecomposition",
    "NotInfinitelyDivisibleError",
    "NumericalFailureError",
    "decompose",
]


class NotInfinitelyDivisibleError(Exception):
    """Decomposition requested for a covariance whose square law is not ID."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"covariance is not infinitely divisible: {witness}")


class NumericalFailureError(Exception):
    """A constructed decomposition violated one of its own identities."""


@dataclass(frozen=True)
class GreenDecomposition:
    """Transient killed chain realizing a covariance as a scaled Green matrix.

    Its expected visit counts ``g = (I - T)⁻¹`` equal ``c D Gp D⁻¹`` with
    ``D = diag(1/u)``, so ``G = S D⁻¹ g D S / c``.

    Attributes
    ----------
    signature : Signature
        Sign flips applied first; ``Gp = S G S`` is entrywise nonnegative.
    u : ndarray
        Positive scaling ``Gp @ 𝟙``, so ``Gp⁻¹ u = 𝟙``; the conjugation
        below uses ``D = diag(1/u)``.
    c : float
        Jump rate; ``Gp⁻¹ = c I - B`` with ``B >= 0``.
    T : ndarray
        Substochastic transition matrix ``T_ij = B_ij u_j / (c u_i)``, in
        detailed balance with ``μ = u²``.
    kappa : ndarray
        Per-state killing probabilities ``1 - T @ 𝟙``.
    """

    signature: Signature
    u: np.ndarray
    c: float
    T: np.ndarray
    kappa: np.ndarray

    @property
    def n(self) -> int:
        return self.T.shape[0]


def decompose(G, tol: Tolerances = DEFAULT_TOL) -> GreenDecomposition:
    """Build the killed-chain decomposition of an ID covariance.

    Parameters
    ----------
    G : array_like or Covariance
        Symmetric positive definite covariance with infinitely divisible
        square.

    Raises
    ------
    NotInfinitelyDivisibleError
        When the verdict is negative.
    NumericalFailureError
        When the chain fails :func:`validate_chain` or ``(I - T) g 𝟙``
        misses ``𝟙``; nothing is clamped silently.
    """
    cov = covariance(G)
    verdict = is_id_square(cov, tol)
    if not verdict.is_id:
        raise NotInfinitelyDivisibleError(verdict.witness)

    sig, G, d = verdict.signature, cov.G, cov.d
    a = cov.inverse.diagonal() * d
    a *= d
    c = float(a.max())
    # The certificate's buffer B = c' I - S C⁻¹ S becomes c I - S D C⁻¹ D S
    # and then T: its off-diagonals are those of -S C⁻¹ S exactly, so scaled
    # by D on both sides they carry the same bits as a conjugation of D C⁻¹ D,
    # and its diagonal is c - a.  The correlation matrices are not needed
    # below.  A second buffer takes Gp = S G S for u and x = g 𝟙.
    T = verdict.cert.B
    del verdict, cov
    T *= d[:, None]
    T *= d
    T.flat[:: T.shape[0] + 1] = c - a
    Gp = sig.conjugate(G)
    u = Gp.sum(axis=1)
    x = Gp @ u
    del Gp
    x *= c
    x /= u
    T *= u
    T /= (c * u)[:, None]
    kappa = 1.0 - T.sum(axis=1)

    dec = GreenDecomposition(signature=sig, u=u, c=c, T=T, kappa=kappa)
    _validate(dec, x)
    return dec


def _validate(dec: GreenDecomposition, x: np.ndarray) -> None:
    """Check the chain of ``dec`` and its link to ``x = g 𝟙``, read from ``G``.

    The chain must pass :func:`validate_chain` at the default zero band, the
    one :func:`simulate` reads it with, so ``T`` and ``kappa`` are nonnegative
    up to roundoff however wide the band of the verdict was.  Its transience
    certificate reads ``x``, which any positive vector may be, so it needs no
    solve of ``(I - T) x = 𝟙``; the matvec below checks that ``x`` is that
    solve.
    """
    try:
        validate_chain(ChainSpec(dec.T, dec.kappa, dec.c), x=x)
    except InvalidChainError as exc:
        raise NumericalFailureError(str(exc)) from None

    # One matvec on x ties T to G.
    r = x - dec.T @ x
    r -= 1.0
    if abs_max(r) > 1e-10 * max(1.0, abs_max(x)):
        raise NumericalFailureError("(I - T) g 𝟙 deviates from 𝟙")
