"""Infinite divisibility of squared Gaussian vectors.

Decide whether the coordinatewise square of a centered Gaussian vector has
an infinitely divisible law, certify when its covariance is (up to diagonal
scaling) the expected-visit-count matrix of a transient killed Markov
chain, construct that chain explicitly, and verify every certificate with
independent Monte-Carlo and brute-force oracles.
"""

__version__ = "0.1.0"

from . import criteria, decomposition, kernels, linalg, simulate
from .criteria import *
from .decomposition import *
from .kernels import *
from .linalg import *
from .simulate import *

__all__ = ["__version__"] + [
    name
    for module in (linalg, criteria, decomposition, simulate, kernels)
    for name in module.__all__
]
