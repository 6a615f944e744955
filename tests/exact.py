"""Exact-rational reference verdicts, with no zero band.

Every float is a dyadic rational, so ``fractions.Fraction`` holds a stored
covariance exactly and a Gauss–Jordan inverse over the rationals gives
every sign of ``G⁻¹`` exactly.  For a positive definite ``G`` the square is
infinitely divisible exactly when some signature ``S`` makes ``S G⁻¹ S``
off-diagonally nonpositive: a positive definite Z-matrix is a nonsingular
M-matrix (the M-matrix form, Bapat 1989, of Griffiths' 1984 cofactor
criterion).  The sign search below visits the graph of the exactly nonzero
off-diagonals in the order :func:`gaussgreen.criteria.find_signature` uses,
so on an input whose float band drops no nonzero entry both return the same
signature and the same contradiction cycle.  ``green`` adds the trivial
signature and exact row sums ``G⁻¹ 𝟙 >= 0``.
"""

import math
from collections import deque
from fractions import Fraction
from typing import NamedTuple


class ExactVerdict(NamedTuple):
    kind: str  # "green", "id_not_green" or "not_id"
    signs: tuple[int, ...] | None
    components: tuple[tuple[int, ...], ...] | None
    cycle: tuple[int, ...] | None


def exact_inverse(G):
    """``G⁻¹`` of a nonsingular float matrix, entry by entry as ``Fraction``."""
    n = len(G)
    M = [[Fraction(float(v)) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(G)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        p = M[col][col]
        M[col] = [v / p for v in M[col]]
        for r in range(n):
            f = M[r][col]
            if r != col and f != 0:
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _cycle(parents, i, j):
    """Closed path ``i -> ... -> lca <- ... <- j`` through the BFS tree."""
    path_i, path_j = [i], [j]
    while parents[path_i[-1]] >= 0:
        path_i.append(parents[path_i[-1]])
    while parents[path_j[-1]] >= 0:
        path_j.append(parents[path_j[-1]])
    lca = next(v for v in path_i if v in path_j)
    return tuple(path_i[: path_i.index(lca) + 1] + path_j[: path_j.index(lca)][::-1])


def exact_verdict(G, A=None) -> ExactVerdict:
    """The band-free verdict on the stored ``G``; ``A`` is its exact inverse."""
    A = exact_inverse(G) if A is None else A
    n = len(A)
    signs, parents, components = [0] * n, [-1] * n, []
    for root in range(n):
        if signs[root]:
            continue
        signs[root] = 1
        comp, queue = [root], deque([root])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if j == i or A[i][j] == 0:
                    continue
                forced = -signs[i] if A[i][j] > 0 else signs[i]
                if signs[j] == 0:
                    signs[j], parents[j] = forced, i
                    comp.append(j)
                    queue.append(j)
                elif signs[j] != forced:
                    return ExactVerdict("not_id", None, None, _cycle(parents, i, j))
        components.append(tuple(comp))
    green = all(s == 1 for s in signs) and all(sum(row) >= 0 for row in A)
    return ExactVerdict("green" if green else "id_not_green", tuple(signs),
                        tuple(components), None)


def band_dependent(G, A, eps_zero) -> bool:
    """Whether a nonzero exact quantity that the float decision reads lies
    within ten float zero bands, where rounding and the band can flip it.

    The float code reads ``C⁻¹ = D⁻¹ G⁻¹ D⁻¹`` (``D = diag(G)^{-1/2}``) for
    its sign graph, at the band ``eps_zero · |C⁻¹|_max``, and the negative
    row sums through ``C⁻¹ d / max(d)`` at the same band.
    """
    n = len(A)
    root = [math.sqrt(float(G[i][i])) for i in range(n)]
    C_inv = [[float(A[i][j]) * root[i] * root[j] for j in range(n)] for i in range(n)]
    band = 10.0 * eps_zero * max(abs(v) for row in C_inv for v in row)
    if any(0 < abs(C_inv[i][j]) <= band
           for i in range(n) for j in range(n) if i != j):
        return True
    weights = [r * min(root) for r in root]  # C⁻¹ d / max(d) from G⁻¹ 𝟙
    return any(s < 0 and abs(float(s)) * w <= band
               for s, w in zip((sum(row) for row in A), weights))
