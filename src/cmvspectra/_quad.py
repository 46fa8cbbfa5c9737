"""Quadrature with band-edge grading, the one path of every band integral.

Band-edge integrands behave like dist^{-1/2} (equilibrium density) or worse
(L^t integrands, up to dist^{-t/2}).  Substituting theta = edge +/- s^m with a
large enough grading exponent m makes the transformed integrand bounded, after
which plain Gauss-Legendre converges quickly.  The node offsets s^m are
positive, but for large m the first one (about 1e-17 at m = 5, n = 48) lies
below one ulp of theta, so edge + s^m rounds onto the edge itself.  So
`graded_pairs` returns each node as (edge, offset), one row per interval, and
`field_rows` hands a band field whole rows, at most BATCH_SIZE node x width
terms per call unless one row holds more, where width is the field's traced
transient per node, counted in what one site of the period adds to a field
that builds Floquet solutions: q for those fields, 4 for the equilibrium
density alone, whose transient is a few sites' worth; every band integral
goes this way.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: node x width terms per call of a band field; bounds its transient, O(nodes x width),
#: while a call is large enough that its fixed cost is small against its per-node work
BATCH_SIZE = 1 << 13


# np.polynomial is imported on first use, so look it up at the first call, not at import
@functools.lru_cache(maxsize=32)
def _gauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def graded_pairs(lo, hi, n: int, m: int):
    """Nodes and weights over each interval [lo, hi], with edge grading exponent m.

    Each interval is split at its midpoint and each half is mapped by
    theta = edge +/- s^m, so integrable edge singularities up to order
    1 - 1/m are removed.  Returns (edges, offsets, weights), each (B, 2n):
    row i holds interval i's nodes as (edge, signed offset), the first n
    stepping up from lo[i], the last n down from hi[i].  The m-th roots are
    Python's float pow: numpy's vector pow may differ in the last bit.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x, w = _gauss(n)
    smax = np.array([h ** (1.0 / m) for h in (0.5 * (lo + hi) - lo).tolist()])[:, None]
    # map [-1, 1] -> [0, smax]
    s = 0.5 * smax * (x + 1.0)
    offsets, weights = s**m, (0.5 * smax * w) * (m * s ** (m - 1))
    return (np.repeat(np.stack([lo, hi], axis=1), n, axis=1),
            np.hstack([offsets, -offsets]), np.hstack([weights, weights]))


def field_rows(field, edges: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """field at each row of nodes (edges, offsets), both (B, N), by whole rows.

    width is the number of terms the field holds per node (see BATCH_SIZE).
    """
    values = np.empty(offsets.shape)
    rows = max(1, BATCH_SIZE // (width * values.shape[1]))
    for part in (slice(start, start + rows) for start in range(0, len(values), rows)):
        values[part] = field(edges[part].ravel(), offsets[part].ravel()).reshape(values[part].shape)
    return values


def row_dots(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """np.dot of each row of values with the same row of weights, with the same bits."""
    return (values[:, None, :] @ weights[:, :, None])[:, 0, 0]


def refined_integral(field, lo, hi, n: int, m: int, t: float, width: int):
    """Integral of |field|^t over the intervals with hi > lo, at n nodes per half-interval.

    Returns (integral, |integral - the same at n // 2 nodes|).  Each row
    handed to field holds an interval's fine and coarse nodes, under
    field_rows' rule for width; the intervals' integrals are summed in order.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    keep = hi > lo
    (ef, of, wf), (ec, oc, wc) = (graded_pairs(lo[keep], hi[keep], k, m) for k in (n, n // 2))
    values = field_rows(field, np.hstack([ef, ec]), np.hstack([of, oc]), width)
    total, total_coarse = (float(np.cumsum(row_dots(np.abs(v) ** t, w))[-1])
                           for v, w in ((values[:, :2 * n], wf), (values[:, 2 * n:], wc)))
    return total, abs(total - total_coarse)


def grading_exponent(t: float) -> int:
    """Grading exponent taming a dist^{-t/2} edge singularity, t in (1, 2)."""
    return max(2, math.ceil(2.0 / (2.0 - t)) + 1)
