"""Shared builders for the test suite."""

import numpy as np

MIN_KERNEL = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]])
MIN_KERNEL_INV = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])


def min_kernel(n):
    """Running-minimum covariance on the grid 1..n."""
    x = np.arange(1, n + 1, dtype=float)
    return np.minimum(x[:, None], x[None, :])


def random_spd(n, rng, shift=0.5):
    """Well-conditioned random symmetric positive definite matrix."""
    W = rng.normal(size=(n, n))
    return W @ W.T + shift * n * np.eye(n)


def random_substochastic(n, rng, lo=0.3, hi=0.8):
    """Dense substochastic matrix with row sums in [lo, hi]."""
    T = rng.uniform(0.2, 1.0, size=(n, n))
    T /= T.sum(axis=1, keepdims=True)
    T *= rng.uniform(lo, hi, size=(n, 1))
    return T


def signature_product_around(A, cycle):
    """Product of the forced sign relations along a closed node path.

    Equals -1 exactly when the cycle witnesses an inconsistency.
    """
    prod = 1
    k = len(cycle)
    for t in range(k):
        i, j = cycle[t], cycle[(t + 1) % k]
        prod *= -int(np.sign(A[i, j]))
    return prod


def visit_matrix(G, dec):
    """Expected visit counts ``c D_u⁻¹ S G S D_u`` of ``dec``'s chain, read
    from ``G`` and not from ``T``."""
    g = dec.signature.conjugate(G)
    g *= dec.c * dec.u
    g /= dec.u[:, None]
    return g


def green_from_chain(signs, u, c, T):
    """``S D_u (I - T)⁻¹ D_u⁻¹ S / c``: the covariance a killed chain realizes,
    rebuilt from its transition matrix ``T``."""
    su = np.asarray(signs, dtype=float) * np.asarray(u)
    return su[:, None] * np.linalg.inv(np.eye(len(T)) - np.asarray(T)) / su / c
