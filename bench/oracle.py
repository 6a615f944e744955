"""Output oracles that use numpy only, never the code under test.

* ``check``: an input expected to be ID carries the signature it was built
  with, and :func:`id_certificate` confirms directly that the conjugated
  inverse is a Z-matrix with a nonnegative inverse.  An input expected to
  be not ID carries a principal submatrix of at most 8 rows on which every
  sign conjugation fails that same direct test (:func:`refutes_id`); a
  principal submatrix of an ID covariance is ID, so this refutes the whole
  input.  ``indeterminate`` is always a failure.
* ``decompose``: T >= 0 up to the package's documented zero band
  (``1e-10 * max(1, |T|_max)``), kappa > 0, rows of T plus kappa sum to 1,
  and ``S diag(u) inv(I - T) diag(1/u) S / c`` rebuilds G within 1e-9.
* ``simulate``: every entry lies within ``Z_BOUND`` standard errors of
  ``inv(I - T)`` (divided by c for ``--ct``), where the standard error comes
  from the exact visit-count variance, and no trajectory overflowed.
* ``laplace``: ``exact`` matches numpy ``slogdet`` and the Monte-Carlo value
  lies within ``Z_BOUND`` exact standard deviations of the mean.
"""

from __future__ import annotations

import json

import numpy as np

Z_BOUND = 6.0
ZERO_BAND = 1e-10
RECON_TOL = 1e-9
ROW_TOL = 1e-12
EXACT_TOL = 1e-9
# Slack for roundoff in the direct M-matrix test, relative to the largest
# entry; a witness must fail by more than this for every conjugation.
DIRECT_EPS = 1e-8
MAX_WITNESS = 8


def passes_direct_test(G, signs) -> bool:
    """``S G⁻¹ S`` has nonpositive off-diagonals and ``S G S >= 0``."""
    A = np.linalg.inv(G)
    s = np.asarray(signs, dtype=float)
    M = s[:, None] * A * s[None, :]
    np.fill_diagonal(M, -np.inf)
    off_ok = M.max() <= DIRECT_EPS * np.abs(A).max() if len(s) > 1 else True
    cov_ok = (s[:, None] * G * s[None, :]).min() >= -DIRECT_EPS * np.abs(G).max()
    return bool(off_ok and cov_ok)


def id_certificate(G, signs) -> bool:
    """Direct numpy confirmation that ``G`` is ID with signature ``signs``."""
    return passes_direct_test(np.asarray(G, dtype=float), signs)


def refutes_id(G, rows) -> bool:
    """Every one of the 2^(k-1) conjugations of ``G[rows, rows]`` fails."""
    rows = list(rows)
    k = len(rows)
    if not 2 <= k <= MAX_WITNESS:
        return False
    sub = np.asarray(G, dtype=float)[np.ix_(rows, rows)]
    for bits in range(2 ** (k - 1)):
        signs = [1.0] + [-1.0 if (bits >> b) & 1 else 1.0 for b in range(k - 1)]
        if passes_direct_test(sub, signs):
            return False
    return True


def find_witness(G, hint=None):
    """Rows of a refuting principal submatrix, or ``None``.

    Tries ``hint`` first, then windows of consecutive indices of size 3 to
    ``MAX_WITNESS``.
    """
    if hint is not None and refutes_id(G, hint):
        return tuple(hint)
    n = G.shape[0]
    for k in range(3, min(MAX_WITNESS, n) + 1):
        for start in range(n - k + 1):
            rows = tuple(range(start, start + k))
            if refutes_id(G, rows):
                return rows
    return None


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_report(expect, rc, path) -> str | None:
    """Failure reason for a ``check`` op, or ``None`` when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    verdict = _load(path)["verdict"]
    if expect == "id" and verdict in ("green", "id_not_green"):
        return None
    if expect == "not_id" and verdict == "not_id":
        return None
    return f"verdict {verdict}, expected {expect}"


def decompose_report(expect, G, rc, path) -> str | None:
    """Failure reason for a ``decompose`` op, or ``None`` when it is right."""
    doc = _load(path)
    if expect == "not_id":
        if rc == 3 and doc.get("verdict") == "not_id":
            return None
        return f"exit code {rc}, verdict {doc.get('verdict')}, expected not_id"
    if rc != 0 or doc.get("verdict") != "id":
        return f"exit code {rc}, verdict {doc.get('verdict')}, expected id"
    T = np.asarray(doc["T"], dtype=float)
    kappa = np.asarray(doc["kappa"], dtype=float)
    u = np.asarray(doc["u"], dtype=float)
    s = np.asarray(doc["signature"], dtype=float)
    c = float(doc["c"])
    if T.min() < -ZERO_BAND * max(1.0, float(np.abs(T).max())):
        return f"negative transition entry {T.min():.3e}"
    if kappa.min() <= 0.0:
        return f"nonpositive killing {kappa.min():.3e}"
    rows = float(np.abs(T.sum(axis=1) + kappa - 1.0).max())
    if rows > ROW_TOL:
        return f"rows of T plus kappa miss 1 by {rows:.3e}"
    g = np.linalg.inv(np.eye(T.shape[0]) - T)
    rec = s[:, None] * (u[:, None] * g / u[None, :]) * s[None, :] / c
    rel = float(np.abs(rec - G).max()) / float(np.abs(G).max())
    if rel > RECON_TOL:
        return f"reconstruction error {rel:.3e}"
    return None


def visit_moments(T, ct: bool, c: float):
    """Exact mean and variance of visit counts (or occupation times).

    For a chain started at ``i``, the visits ``N_j`` to ``j`` have
    ``E N_j = g_ij`` and ``E N_j^2 = g_ij (2 g_jj - 1)``; with independent
    exponential sojourns of mean ``1/c`` the occupation time has mean
    ``g_ij / c`` and second moment ``2 g_ij g_jj / c^2``.
    """
    g = np.linalg.inv(np.eye(T.shape[0]) - T)
    diag = np.diag(g)[None, :]
    if ct:
        return g / c, (2.0 * g * diag - g**2) / c**2
    return g, g * (2.0 * diag - 1.0) - g**2


def simulate_report(chain_path, ct, paths, rc, path) -> str | None:
    """Failure reason for a ``simulate`` op, or ``None`` when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    chain = _load(chain_path)
    doc = _load(path)
    if doc["overflow"] != 0:
        return f"overflow {doc['overflow']}"
    if doc["n_draws"] != paths:
        return f"n_draws {doc['n_draws']}, expected {paths}"
    T = np.asarray(chain["T"], dtype=float)
    mean, var = visit_moments(T, ct, float(chain["c"]))
    est = np.asarray(doc["estimate"], dtype=float)
    z = np.abs(est - mean) / np.sqrt(np.maximum(var, 0.0) / paths + 1e-300)
    if z.max() > Z_BOUND:
        i, j = np.unravel_index(int(np.argmax(z)), z.shape)
        return f"entry ({i},{j}) is {z[i, j]:.1f} standard errors from inv(I - T)"
    return None


def laplace_report(G, t, samples, rc, path) -> str | None:
    """Failure reason for a ``laplace`` op, or ``None`` when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    doc = _load(path)
    n = G.shape[0]
    _, logdet = np.linalg.slogdet(np.eye(n) + G * t[None, :])
    exact = float(np.exp(-0.5 * logdet))
    if abs(doc["exact"] - exact) > EXACT_TOL * exact:
        return f"exact {doc['exact']!r} differs from slogdet value {exact!r}"
    mc = doc["mc"]
    if mc["n_draws"] != samples:
        return f"n_draws {mc['n_draws']}, expected {samples}"
    # E[exp(-t.x^2)] = det(I + 2 G diag t)^(-1/2), so the variance is exact.
    _, logdet2 = np.linalg.slogdet(np.eye(n) + 2.0 * G * t[None, :])
    sd = np.sqrt(max(float(np.exp(-0.5 * logdet2)) - exact**2, 0.0) / samples)
    if abs(mc["estimate"] - exact) > Z_BOUND * sd:
        return f"Monte-Carlo value {mc['estimate']!r} is beyond {Z_BOUND} sd of {exact!r}"
    return None
