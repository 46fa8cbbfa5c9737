"""Quadrature with band-edge grading.

Band-edge integrands behave like dist^{-1/2} (equilibrium density) or worse
(L^t integrands, up to dist^{-t/2}).  Substituting theta = edge +/- s^m with a
large enough grading exponent m makes the transformed integrand bounded, after
which plain Gauss-Legendre converges quickly.  The node offsets s^m are
positive, but for large m the first one (about 1e-17 at m = 5, n = 48) lies
below one ulp of theta, so edge + s^m rounds onto the edge itself.  So
`graded_pairs` returns each node as (edge, offset), and the library's band
integrands take their nodes in that form (`floquet._equilibrium_at`).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def _gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def graded_pairs(lo: float, hi: float, n: int, m: int):
    """Nodes and weights for an integral over [lo, hi] with edge grading exponent m.

    The interval is split at its midpoint and each half is mapped by
    theta = edge +/- s^m, so integrable edge singularities up to order
    1 - 1/m are removed.  Each node is returned apart as (edge, signed
    offset): the first n step up from lo, the last n down from hi.
    """
    if hi <= lo:
        return np.empty(0), np.empty(0), np.empty(0)
    x, w = _gauss(n)
    smax = (0.5 * (lo + hi) - lo) ** (1.0 / m)
    # map [-1, 1] -> [0, smax]
    s = 0.5 * smax * (x + 1.0)
    offsets, weights = s**m, (0.5 * smax * w) * (m * s ** (m - 1))
    return (np.repeat([lo, hi], n), np.concatenate([offsets, -offsets]),
            np.concatenate([weights, weights]))


def grading_exponent(t: float) -> int:
    """Grading exponent taming a dist^{-t/2} edge singularity, t in (1, 2)."""
    return max(2, math.ceil(2.0 / (2.0 - t)) + 1)
