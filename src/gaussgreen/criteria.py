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
  certifies :func:`is_id_square`; fed ``x = (I - T)⁻¹ 𝟙`` for a killed
  chain's ``T``, the expected visit counts, known in closed form to a
  decomposition and solved for otherwise, it gives
  :func:`transience_bound` on ``rho(T)``;
  :func:`closed_states` names the states of such a chain that never die.
* :func:`find_signature` propagates the forced sign pattern of ``G⁻¹``
  through the graph of its nonzero off-diagonals and either returns the
  (essentially unique) signature or a contradiction cycle witness.
* :func:`is_id_square` composes the two into an infinite-divisibility
  verdict: it forms ``S C S`` once, and a negative entry of it is the
  entry witness; :func:`classify_green` further separates covariances
  that are outright Green matrices of a killed Markov chain (row-sum
  dominance of the inverse, no sign flips needed) from those that are only
  diagonal rescalings of one, and :func:`relaxed_kind` reads the
  classification at a wider zero band off one already made.

Three-dimensional shortcut tests (:func:`triple_necessary`,
:func:`triple_sufficient`) are included for cross-checks.
"""

from __future__ import annotations

import math
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
    "relaxed_kind",
    "transience_bound",
    "closed_states",
]


@dataclass(frozen=True)
class Signature:
    """±1 sign vector together with the components that fixed it.

    Signs are determined up to one global flip per connected component of
    the off-diagonal graph of ``G⁻¹``; free components are normalized to +1.
    ``components`` lists them in the order :func:`find_signature` found
    them, each by its lowest node, the root, which has sign +1.  Within a
    component the nodes are in breadth-first discovery order: the root,
    then the unsigned neighbours of each node taken from the queue, in
    increasing index.
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
    certifies ``A = S C⁻¹ S`` with ``u = S C S 𝟙``, so there ``A u = 𝟙``;
    :func:`transience_bound` certifies ``A = I - T`` with ``u ≈ A⁻¹ 𝟙``,
    the expected visit counts: ``g 𝟙`` from a decomposition, else a solve.
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

    ``reason == "entry"``: :func:`is_id_square` found the entry of
    ``S C S`` at ``index``, for the signature :func:`find_signature`
    returned, below the zero band.
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
        # No positive vector to bound rho(B) with: zero-band noise in S C S,
        # or a solve of (I - T) x = 1 for a T that is not transient.
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


def transience_bound(T, x=None) -> float:
    """Certified upper bound on ``rho(T)``, ``T`` clipped at 0 as a chain is
    simulated: the bracket of :func:`is_m_matrix` certifies ``I - T = c I - B``
    from ``x``, and ``rho_upper + 1 - c`` is then ``max_i (T x)_i / x_i < 1``;
    ``inf`` when the solve or bracket fails.  The bracket is sound for any
    ``x``, so a caller that knows ``(I - T)⁻¹ 𝟙`` passes it; without one,
    ``x`` is the solve of ``(I - T) x = 𝟙``."""
    A = np.clip(as_square_matrix(T), 0.0, None)
    eye_minus(A, out=A)
    if x is None:
        try:
            x = np.linalg.solve(A, np.ones(A.shape[0]))
        except np.linalg.LinAlgError:
            return np.inf
    cert = _bracket(A, np.asarray(x, dtype=float))
    if isinstance(cert, MMatrixFailure):
        return np.inf
    return cert.rho_upper + 1.0 - cert.c


def closed_states(T) -> list[int]:
    """States that can reach no dying state, in increasing order, for ``T``
    clipped at 0 as a chain is simulated.

    A state can die when its row of ``T`` sums below 1 exactly.  The search
    runs backwards from those states over the positive entries of ``T``,
    packed as row bitsets as in the signature search.  Any state it does not
    reach leads only to states that do not reach it either, whose rows sum
    to at least 1: together they hold a closed class, and ``rho(T) >= 1``.
    """
    P = np.clip(as_square_matrix(T), 0.0, None)
    dying = 0
    for i, row in enumerate(P.tolist()):
        if math.fsum(row + [-1.0]) < 0.0:
            dying |= 1 << i
    into, width = _packed_rows(P.T > 0.0)  # row j: the states i with T_ij > 0
    reached = frontier = dying
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            lo = (low.bit_length() - 1) * width
            step |= int.from_bytes(into[lo:lo + width], "little")
            frontier ^= low
        frontier = step & ~reached
        reached |= frontier
    return [i for i in range(P.shape[0]) if not reached >> i & 1]


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
    """Search for a sign vector making ``S G⁻¹ S`` off-diagonally nonpositive.

    The off-diagonal graph of ``A = C⁻¹``, which has the signs of ``G⁻¹``,
    forces ``s_i s_j = -sign(A_ij)`` along every edge outside the zero
    band; breadth-first propagation either assigns consistent signs per
    connected component (free components get +1) or exhibits a
    contradiction cycle.  Whether ``S G S`` is nonnegative is left to
    :func:`is_id_square`.

    The search starts a component at the lowest unsigned node and signs
    it +1.  Each node taken from the queue signs its unsigned neighbours
    and appends them in increasing index, which fixes the order of
    :attr:`Signature.components`.  The first node whose neighbours clash
    with its sign stops the search: its lowest-index clashing neighbour
    closes the cycle through both nodes' search-tree paths to their
    common ancestor.

    Parameters
    ----------
    G : array_like or Covariance
        Symmetric positive definite covariance; definiteness is certified by
        Cholesky and failures propagate as
        :class:`~gaussgreen.linalg.NotPositiveDefiniteError`.

    Returns
    -------
    Signature or NoSignature
        A :class:`NoSignature` here has ``reason == "cycle"``.
    """
    A = covariance(G).inverse
    return _find_signature(A, tol.zero_threshold(A))


def _find_signature(A, thr):
    """:func:`find_signature` on ``A = C⁻¹`` with its zero band ``thr``.

    The rows of the sign graph are packed once as bitsets: ``flip`` holds
    the edges ``A_ij > thr`` (``s_j = -s_i``) and ``keep`` the edges
    ``A_ij < -thr`` (``s_j = s_i``).  A node's two rows become Python ints
    only when it leaves the queue, and the signed nodes are the bitsets
    ``plus`` and ``minus``, so one node costs a few integer operations.
    """
    n = A.shape[0]
    flip, width = _packed_rows(A > thr)
    keep, _ = _packed_rows(A < -thr)
    plus = minus = 0
    parents = [-1] * n
    components = []
    everyone = (1 << n) - 1
    while free := everyone & ~(plus | minus):
        root = _lowest_bit(free)
        plus |= 1 << root
        comp = [root]
        for i in comp:  # comp is the queue too: it grows as nodes are found
            lo = i * width
            to_other = int.from_bytes(flip[lo:lo + width], "little")
            to_same = int.from_bytes(keep[lo:lo + width], "little")
            if plus >> i & 1:
                to_plus, to_minus = to_same, to_other
            else:
                to_plus, to_minus = to_other, to_same
            clash = (to_plus & minus) | (to_minus & plus)
            if clash:
                cycle = _contradiction_cycle(parents, i, _lowest_bit(clash))
                culprit = _worst_positive_edge(A, cycle)
                return NoSignature(
                    "cycle",
                    index=culprit,
                    value=float(A[culprit]),
                    cycle=cycle,
                )
            fresh = (to_plus | to_minus) & ~(plus | minus)
            plus |= to_plus
            minus |= to_minus
            while fresh:
                low = fresh & -fresh
                j = low.bit_length() - 1
                parents[j] = i
                comp.append(j)
                fresh ^= low
        components.append(tuple(comp))

    signs = _unpacked(plus, n).astype(int) - _unpacked(minus, n)
    return Signature(signs=signs, components=tuple(components))


def _packed_rows(mask):
    """The rows of the square boolean ``mask``, its diagonal cleared in
    place, as one ``bytes`` object of ``width`` bytes a row: bit ``j`` of
    ``int.from_bytes`` of row ``i``, read little-endian, is ``mask[i, j]``."""
    np.fill_diagonal(mask, False)
    packed = np.packbits(mask, axis=1, bitorder="little")
    return packed.tobytes(), packed.shape[1]


def _lowest_bit(x):
    return (x & -x).bit_length() - 1


def _unpacked(x, n):
    """Bits ``0..n-1`` of the int ``x >= 0`` as a uint8 array."""
    raw = np.frombuffer(x.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little")


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
    ``S C⁻¹ S`` nonpositive at the zero band :func:`is_m_matrix` uses.  The
    one ``S C S`` formed here gives the rest: its most negative entry, below
    its own zero band, is the ``"entry"`` witness, and otherwise
    ``u = S C S 𝟙`` takes the place of that function's solve, so only the
    Collatz–Wielandt bracket of ``u`` is left to check.
    """
    cov = covariance(G)
    thr = tol.zero_threshold(cov.inverse)
    sig = _find_signature(cov.inverse, thr)
    if isinstance(sig, Signature):
        conj_cov = sig.conjugate(cov.C)
        u = conj_cov.sum(axis=1)
        k = int(np.argmin(conj_cov))
        min_conj_cov = float(conj_cov.flat[k])
        del conj_cov
        if min_conj_cov < -tol.zero_threshold(cov.C):
            sig = NoSignature("entry", divmod(k, u.size), min_conj_cov)
    if isinstance(sig, NoSignature):
        margins = {
            "zero_threshold": thr,
            "witness_value": sig.value,
        }
        return IdVerdict(False, witness=sig, margins=margins)

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
    ``id_not_green``.  ``row_sums = C⁻¹ d / max(d)`` has the signs of ``G⁻¹ 𝟙``;
    an ID verdict's margins carry its least entry as ``min_row_sum``.
    """
    cov = covariance(G)
    verdict = is_id_square(cov, tol)
    if not verdict.is_id:
        return GreenClassification("not_id", verdict)

    row_sums = cov.inverse @ (cov.d / cov.d.max())
    verdict.margins["min_row_sum"] = float(row_sums.min())
    # A nontrivial signature can only arise from a positive off-diagonal of
    # C^-1, which the direct M-matrix test would reject; with the trivial
    # one the verdict's certificate is that of C^-1 itself.
    if not verdict.signature.is_trivial:
        return GreenClassification("id_not_green", verdict, row_sums)
    dominant = verdict.margins["min_row_sum"] >= -verdict.margins["zero_threshold"]
    kind = "green" if dominant else "id_not_green"
    return GreenClassification(kind, verdict, row_sums)


def relaxed_kind(G, cls: GreenClassification, wider: Tolerances) -> str | None:
    """``classify_green(G, wider).kind`` read off ``cls``, the classification
    of ``G`` at a narrower band, or ``None`` when ``cls`` cannot tell it.

    A wider band only widens what counts as zero, so every test ``cls``
    passed still passes.  A contradiction cycle whose edges all clear the
    wider band of ``C⁻¹`` stays in the wider sign graph.  Otherwise the
    verdict carries over unless an off-diagonal of ``C⁻¹`` lies between the
    bands (harmless to an ID verdict whose signature the sign search at the
    wider band returns unchanged), an ``"entry"`` witness lies within the
    wider band of ``C``, or an ``id_not_green`` verdict with the trivial
    signature has its ``min_row_sum`` within the wider band of ``C⁻¹``.

    Raises ``ValueError`` unless ``wider``'s band of ``C⁻¹`` is wider than
    ``cls``'s ``zero_threshold``.
    """
    cov = covariance(G)
    inv, verdict = cov.inverse, cls.verdict
    thr, wide = verdict.margins["zero_threshold"], wider.zero_threshold(inv)
    if wide <= thr:
        raise ValueError(f"relaxed band {wide!r} of C^-1 is not wider than {thr!r}")
    witness = verdict.witness
    if isinstance(witness, NoSignature) and witness.reason == "cycle":
        cycle = witness.cycle
        edges = zip(cycle, cycle[1:] + cycle[:1])
        return "not_id" if all(abs(inv[e]) > wide for e in edges) else None

    # Edges that drop out of the wider sign graph, with boolean temporaries
    # only.  The signature still satisfies the edges left, so the wider
    # search returns it unless a split-off component starts at a -1.
    gap = (inv > thr) & (inv <= wide)
    gap |= (inv < -thr) & (inv >= -wide)
    np.fill_diagonal(gap, False)
    if gap.any() and not (verdict.is_id and np.array_equal(
            _find_signature(inv, wide).signs, verdict.signature.signs)):
        return None
    if isinstance(witness, NoSignature) and witness.value >= -wider.zero_threshold(cov.C):
        return None
    if (cls.kind == "id_not_green" and verdict.signature.is_trivial
            and verdict.margins["min_row_sum"] >= -wide):
        return None
    return cls.kind
