"""Decision theory for squared centered Gaussian vectors.

A centered Gaussian vector with positive definite covariance ``G`` has an
infinitely divisible square exactly when some ±1 diagonal conjugation turns
``G⁻¹`` into an M-matrix (nonpositive off-diagonals, nonnegative inverse).
This module certifies or refutes that property with explicit witnesses:

* :func:`is_m_matrix` produces an ``(c, B, u)`` splitting certificate with
  a certified spectral-radius bracket, or a typed failure.  One solve gives
  ``u = A⁻¹ diag(A)``, which does not depend on how the rows of ``A`` are
  scaled: a Z-matrix with ``u > 0`` and ``A u > 0`` beyond rounding is a
  nonsingular M-matrix, and the Collatz–Wielandt ratios ``(B u)_i / u_i``
  enclose ``rho(B)``; a ``u_i <= 0`` is the witness against it.  The same
  bracket, fed ``u = S C S 𝟙`` for the correlation matrix ``C`` of ``G``,
  certifies :func:`is_id_square`.
* :func:`find_signature` propagates the forced sign pattern of ``G⁻¹``
  through the graph of its nonzero off-diagonals and either returns the
  (essentially unique) signature or a contradiction cycle / entry witness.
* :func:`is_id_square` composes the two into an infinite-divisibility
  verdict; :func:`classify_green` further separates covariances that are
  outright Green matrices of a killed Markov chain (row-sum dominance of
  the inverse, no sign flips needed) from those that are only diagonal
  rescalings of one.

Three-dimensional shortcut tests (:func:`triple_necessary`,
:func:`triple_sufficient`) are included for cross-checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_covariance,
    as_square_matrix,
    covariance,
    eye_minus,
    is_nonneg,
)

__all__ = [
    "Signature",
    "MMatrixCert",
    "MMatrixFailure",
    "NoSignature",
    "IdVerdict",
    "GreenClassification",
    "is_m_matrix",
    "find_signature",
    "is_id_square",
    "triple_necessary",
    "triple_sufficient",
    "classify_green",
]


@dataclass(frozen=True)
class Signature:
    """±1 sign vector together with the components that fixed it.

    Signs are determined up to one global flip per connected component of
    the off-diagonal graph of ``G⁻¹``; free components are normalized to +1.
    """

    signs: np.ndarray
    components: tuple[tuple[int, ...], ...]

    def conjugate(self, M, out=None) -> np.ndarray:
        """Return ``S M S`` for this signature, in ``out`` if given (``out``
        may be ``M`` itself)."""
        s = self.signs.astype(float)
        out = np.multiply(M, s[:, None], out=out, dtype=float)
        out *= s
        return out

    @property
    def is_trivial(self) -> bool:
        return bool((self.signs == 1).all())


@dataclass(frozen=True)
class MMatrixCert:
    """Certificate that ``A`` is a nonsingular M-matrix.

    ``A = c I - B`` with ``B >= 0`` (within the zero band), the positive
    vector ``u`` with ``A u > 0`` beyond rounding, and the bracket
    ``rho_lower <= rho(B) <= rho_upper < c`` that ``u`` certifies.
    :func:`is_m_matrix` gives ``u ≈ A⁻¹ diag(A)``; :func:`is_id_square`
    certifies ``A = S C⁻¹ S`` with ``u = S C S 𝟙``, so there ``A u = 𝟙``.
    """

    c: float
    B: np.ndarray
    u: np.ndarray
    rho_lower: float
    rho_upper: float


@dataclass(frozen=True)
class MMatrixFailure:
    """Why a matrix is not an M-matrix.

    ``reason`` is one of ``"offdiag_positive"`` (entry at ``index`` exceeds
    the zero band), ``"singular"``, ``"inverse_negative"`` (``index = (i,)``
    names the first ``u_i <= 0`` of ``u = A⁻¹ diag(A)``, ``value`` is
    ``u_i``) or ``"spectral_gap"`` (rounding leaves ``A u > 0`` uncertified;
    ``value`` is ``rho_upper - c``, which can be negative).
    """

    reason: str
    index: tuple[int, ...] | None = None
    value: float | None = None


@dataclass(frozen=True)
class NoSignature:
    """Witness that no ±1 conjugation can work.

    ``reason == "cycle"``: the sign constraints along ``cycle`` (a closed
    node path in the off-diagonal graph of ``G⁻¹``) are inconsistent;
    ``index`` points at the largest positive off-diagonal entry of ``C⁻¹``
    on that cycle, ``(G⁻¹)_ij sqrt(G_ii G_jj)``, which no signature removes.

    ``reason == "entry"``: the propagated signature left an entry of
    ``S C S`` at ``index`` below the zero band.
    """

    reason: str
    index: tuple[int, int]
    value: float
    cycle: tuple[int, ...] | None = None


@dataclass(frozen=True)
class IdVerdict:
    """Outcome of the infinite-divisibility test for a squared vector."""

    is_id: bool
    signature: Signature | None = None
    cert: MMatrixCert | None = None
    witness: NoSignature | MMatrixFailure | None = None
    margins: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GreenClassification:
    """Where a covariance sits relative to killed-Markov-chain potentials.

    ``kind`` is ``"green"`` (the inverse is a row-sum dominant M-matrix as
    is), ``"id_not_green"`` (infinitely divisible square, but only after a
    sign flip or with dominance broken by scaling), or ``"not_id"``.  A
    ``"green"`` verdict's ``cert`` certifies ``C⁻¹`` itself.
    """

    kind: str
    verdict: IdVerdict
    row_sums: np.ndarray | None = None


def is_m_matrix(A, tol: Tolerances = DEFAULT_TOL):
    """Certify ``A`` as a nonsingular M-matrix or explain the failure.

    Checks, in order: off-diagonals nonpositive within the zero band;
    nonsingularity, by one solve for ``u = A⁻¹ diag(A)``; ``u > 0``; and
    ``A u > 0`` beyond rounding, which certifies the bracket on ``rho(B)``
    in the splitting ``A = c I - B`` with ``c = max_i A_ii``.  Scaling a
    row of ``A`` scales the same entry of ``A u = diag(A)``, so ``u`` and
    the verdict do not depend on row scaling; a diagonal entry ``<= 0``
    cannot clear the bracket.  Returns :class:`MMatrixCert` or
    :class:`MMatrixFailure`.
    """
    A = as_square_matrix(A)
    off = A.copy()
    np.fill_diagonal(off, -np.inf)
    i, j = np.unravel_index(int(np.argmax(off)), off.shape)
    if off[i, j] > tol.zero_threshold(A):
        return MMatrixFailure(
            "offdiag_positive", (int(i), int(j)), float(A[i, j])
        )

    try:
        u = np.linalg.solve(A, A.diagonal())
    except np.linalg.LinAlgError:
        return MMatrixFailure("singular")
    i = int(np.argmax(u <= 0.0))
    if u[i] <= 0.0:
        return MMatrixFailure("inverse_negative", (i,), float(u[i]))
    return _bracket(A, u)


def _bracket(A, u):
    """Certificate of a Z-matrix ``A`` from a vector ``u``, or the
    ``"spectral_gap"`` failure: a positive ``u`` with ``A u > 0`` makes ``A``
    a nonsingular M-matrix, and with ``A = c I - B`` the ratios
    ``(B u)_i / u_i`` bracket ``rho(B)``.  ``A u > 0`` holds where the
    computed product exceeds the bound ``γ_n |A| |u|`` on its rounding
    error (Higham 2002, §3.5); taking ``ε`` in ``γ_n = n ε / (1 - n ε)`` as
    the machine epsilon, twice the unit roundoff, covers the rounding of
    the bound itself.
    """
    if u.min() <= 0.0:
        # No positive vector to bound rho(B) with; only zero-band noise in
        # the conjugated covariance can get here.
        return MMatrixFailure("spectral_gap", None, None)
    c = float(A.diagonal().max())
    # |A| u first, so that the buffer of |A| then holds B = c I - A.
    B = np.abs(A)
    abs_Au = B @ u
    eye_minus(A, c, out=B)
    ratios = (B @ u) / u
    rho_lower = max(0.0, float(ratios.min()))
    rho_upper = float(ratios.max())
    eps_n = A.shape[0] * np.finfo(float).eps
    if not (A @ u > eps_n / (1.0 - eps_n) * abs_Au).all():
        # Reaching this point means the instance is undecidable in double
        # precision, or at the current band.
        return MMatrixFailure("spectral_gap", None, rho_upper - c)
    return MMatrixCert(
        c=c,
        B=B,
        u=u,
        rho_lower=rho_lower,
        rho_upper=rho_upper,
    )


def _contradiction_cycle(parents, i, j):
    """Closed node path through BFS parents joining the clashing edge (i, j)."""
    path_i = [i]
    while parents[path_i[-1]] >= 0:
        path_i.append(int(parents[path_i[-1]]))
    path_j = [j]
    while parents[path_j[-1]] >= 0:
        path_j.append(int(parents[path_j[-1]]))
    pos_j = {v: k for k, v in enumerate(path_j)}
    lca_i = next(k for k, v in enumerate(path_i) if v in pos_j)
    lca_j = pos_j[path_i[lca_i]]
    return tuple(path_i[: lca_i + 1] + path_j[:lca_j][::-1])


def find_signature(G, tol: Tolerances = DEFAULT_TOL):
    """Search for a sign vector making ``S G⁻¹ S`` off-diagonally nonpositive
    and ``S G S`` entrywise nonnegative.

    The off-diagonal graph of ``A = C⁻¹``, which has the signs of ``G⁻¹``,
    forces ``s_i s_j = -sign(A_ij)`` along every edge; breadth-first
    propagation either assigns consistent signs per connected component
    (free components get +1) or exhibits a contradiction cycle.  A
    consistent assignment is then screened against ``S C S``.

    Parameters
    ----------
    G : array_like or Covariance
        Symmetric positive definite covariance; definiteness is certified by
        Cholesky and failures propagate as
        :class:`~gaussgreen.linalg.NotPositiveDefiniteError`.

    Returns
    -------
    Signature or NoSignature
    """
    cov = covariance(G)
    C, A = cov.C, cov.inverse
    n = A.shape[0]
    thr_a = tol.zero_threshold(A)

    adjacency = A > thr_a
    adjacency |= A < -thr_a
    np.fill_diagonal(adjacency, False)
    forced_sign = np.sign(A, out=np.empty(A.shape, np.int8), casting="unsafe")
    np.negative(forced_sign, out=forced_sign)

    signs = np.zeros(n, dtype=int)
    parents = np.full(n, -1)
    components = []
    for root in range(n):
        if signs[root] != 0:
            continue
        signs[root] = 1
        comp = [root]
        queue = deque([root])
        while queue:
            i = queue.popleft()
            nbrs = np.flatnonzero(adjacency[i])
            forced = forced_sign[i, nbrs] * signs[i]
            current = signs[nbrs]
            clash = (current != 0) & (current != forced)
            if clash.any():
                j = int(nbrs[np.argmax(clash)])
                cycle = _contradiction_cycle(parents, i, j)
                culprit = _worst_positive_edge(A, cycle)
                return NoSignature(
                    "cycle",
                    index=culprit,
                    value=float(A[culprit]),
                    cycle=cycle,
                )
            fresh = current == 0
            new = nbrs[fresh]
            signs[new] = forced[fresh]
            parents[new] = i
            comp.extend(new.tolist())
            queue.extend(new.tolist())
        components.append(tuple(comp))

    sig = Signature(signs=signs, components=tuple(components))
    conjugated = sig.conjugate(C)
    check = is_nonneg(conjugated, tol.zero_threshold(C))
    if not check.ok:
        return NoSignature("entry", index=check.index, value=check.min_value)
    return sig


def _worst_positive_edge(A, cycle):
    """Largest positive off-diagonal of ``A`` among the cycle's edges.

    Every contradiction cycle carries an odd number of positive edges, each
    above the zero band, so the maximum is the canonical unremovable entry.
    """
    best, best_val = None, -np.inf
    k = len(cycle)
    for t in range(k):
        i, j = cycle[t], cycle[(t + 1) % k]
        if A[i, j] > best_val:
            best, best_val = (min(int(i), int(j)), max(int(i), int(j))), float(A[i, j])
    return best


def is_id_square(G, tol: Tolerances = DEFAULT_TOL) -> IdVerdict:
    """Decide whether the squared Gaussian vector with covariance ``G`` is
    infinitely divisible.

    Composes :func:`find_signature` with the M-matrix certificate of
    ``S C⁻¹ S``, which has the signs of ``S G⁻¹ S`` and the inverse ``S C S``;
    the verdict carries the winning signature plus certificate, or the
    witness that defeated every signature, along with the unitless margins
    the decision rested on.  A signature already makes the off-diagonals of
    ``S C⁻¹ S`` nonpositive at the zero band :func:`is_m_matrix` uses, and
    ``S C S`` nonnegative within its band, so ``u = S C S 𝟙`` takes the place
    of that function's solve and only the Collatz–Wielandt bracket of ``u``
    is left to check.
    """
    cov = covariance(G)
    sig = find_signature(cov, tol)
    thr = tol.zero_threshold(cov.inverse)
    if isinstance(sig, NoSignature):
        margins = {
            "zero_threshold": thr,
            "witness_value": sig.value,
        }
        return IdVerdict(False, witness=sig, margins=margins)

    conj_cov = sig.conjugate(cov.C)
    u = conj_cov.sum(axis=1)
    min_conj_cov = float(conj_cov.min())
    del conj_cov
    conj_inv = sig.conjugate(cov.inverse)
    margins = {
        "zero_threshold": thr,
        "max_offdiagonal": _max_offdiagonal(conj_inv),
        "min_conjugated_covariance": min_conj_cov,
    }
    result = _bracket(conj_inv, u)
    if isinstance(result, MMatrixFailure):
        return IdVerdict(False, witness=result, margins=margins)
    margins["spectral_gap"] = result.c - result.rho_upper
    return IdVerdict(True, signature=sig, cert=result, margins=margins)


def _max_offdiagonal(A) -> float:
    """Largest off-diagonal entry of ``A`` (0.0 when ``A`` is 1x1); the
    diagonal of ``A`` is set aside and restored, so ``A`` is not copied."""
    if A.shape[0] == 1:
        return 0.0
    diagonal = A.diagonal().copy()
    np.fill_diagonal(A, -np.inf)
    value = float(A.max())
    np.fill_diagonal(A, diagonal)
    return value


def _correlation_3x3(G, name) -> np.ndarray:
    """``D G D`` with ``D = diag(G)^{-1/2}`` for a 3x3 covariance ``G``."""
    G = as_covariance(G)
    if G.shape != (3, 3) or G.diagonal().min() <= 0.0:
        raise ValueError(f"{name} expects a 3x3 covariance, positive diagonal")
    d = 1.0 / np.sqrt(G.diagonal())
    return d[:, None] * G * d[None, :]


def triple_necessary(G, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Necessary condition in dimension 3: the product of the three
    off-diagonal covariances must not be negative.

    A covariance with ``G12 * G23 * G31 < 0`` cannot have an infinitely
    divisible square, whatever the diagonal; it is tested on ``C = D G D``.
    """
    C = _correlation_3x3(G, "triple_necessary")
    product = float(C[0, 1] * C[1, 2] * C[2, 0])
    return product >= -tol.zero_threshold(C)


def triple_sufficient(G, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Sufficient condition in dimension 3 for nonnegative covariances:
    ``G[i,j] * G[k,k] >= G[i,k] * G[j,k]`` over all ordered distinct triples.

    When it holds (and ``G`` is positive definite), every off-diagonal of
    ``G⁻¹`` is nonpositive, so the square is infinitely divisible with the
    trivial signature.  It is tested on ``C = D G D``, as the signs agree.
    """
    C = _correlation_3x3(G, "triple_sufficient")
    thr = tol.zero_threshold(C)
    if C.min() < -thr:
        raise ValueError("triple_sufficient requires entrywise nonnegative G")
    return all(
        C[i, j] * C[k, k] - C[i, k] * C[j, k] >= -thr
        for i, j, k in permutations(range(3), 3)
    )


def classify_green(G, tol: Tolerances = DEFAULT_TOL) -> GreenClassification:
    """Sort a covariance into green / id_not_green / not_id.

    ``green`` demands that ``G⁻¹`` is an M-matrix with the trivial
    signature *and* has nonnegative row sums; then ``G`` itself is the
    visit-count matrix of a killed Markov chain.  Covariances with an
    infinitely divisible square that miss either extra condition are
    ``id_not_green``.  ``row_sums = C⁻¹ d / max(d)`` has the signs of ``G⁻¹ 𝟙``.
    """
    cov = covariance(G)
    verdict = is_id_square(cov, tol)
    if not verdict.is_id:
        return GreenClassification("not_id", verdict)

    row_sums = cov.inverse @ (cov.d / cov.d.max())
    # A nontrivial signature can only arise from a positive off-diagonal of
    # C^-1, which the direct M-matrix test would reject; with the trivial
    # one the verdict's certificate is that of C^-1 itself.
    if not verdict.signature.is_trivial:
        return GreenClassification("id_not_green", verdict, row_sums)
    dominant = row_sums.min() >= -verdict.margins["zero_threshold"]
    kind = "green" if dominant else "id_not_green"
    return GreenClassification(kind, verdict, row_sums)
