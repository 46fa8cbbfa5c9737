"""Finite windows of the extended CMV matrix and operator-norm perturbation bounds.

The extended CMV matrix factors as E = L M into block-diagonal unitaries whose
2x2 blocks Theta(alpha_n) = [[conj(alpha_n), rho_n], [rho_n, -alpha_n]] sit at
(n, n+1), n even for L and odd for M (Cantero-Moral-Velazquez, Linear Algebra
Appl. 362 (2003); Simon, OPUC Part 1, Sect. 4.2).  Windows, the Floquet
restrictions in `floquet` and the closed-form movement bound all derive from
the vectorized blocks; `cmv_entry` is an independent oracle for the assembly.
The exact spectrum displacement that the bound controls is
`floquet.spectrum_displacement`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .coeffs import PeriodicSeq, rho, validate_alpha

AlphaFn = Callable[[int], complex]


def cmv_entry(alpha: AlphaFn, m: int, n: int) -> complex:
    """Entry (m, n) of the extended CMV matrix for coefficients alpha(j).

    Even rows carry (conj(a_m) rho_{m-1}, -conj(a_m) a_{m-1}, rho_m conj(a_{m+1}),
    rho_m rho_{m+1}) at columns m-1..m+2; odd rows carry (rho_{m-1} rho_{m-2},
    -rho_{m-1} a_{m-2}, -a_{m-1} conj(a_m), -a_{m-1} rho_m) at columns m-2..m+1.
    """
    if m % 2 == 0:
        if n == m - 1:
            return alpha(m).conjugate() * rho(alpha(m - 1))
        if n == m:
            return -alpha(m).conjugate() * alpha(m - 1)
        if n == m + 1:
            return rho(alpha(m)) * alpha(m + 1).conjugate()
        if n == m + 2:
            return rho(alpha(m)) * rho(alpha(m + 1))
    else:
        if n == m - 2:
            return rho(alpha(m - 1)) * rho(alpha(m - 2))
        if n == m - 1:
            return -rho(alpha(m - 1)) * alpha(m - 2)
        if n == m:
            return -alpha(m - 1) * alpha(m).conjugate()
        if n == m + 1:
            return -alpha(m - 1) * rho(alpha(m))
    return 0.0


def theta_blocks(values) -> np.ndarray:
    """Theta(a) = [[conj(a), rho], [rho, -a]] for each coefficient: (..., n) to (..., n, 2, 2)."""
    a = np.asarray(values, dtype=complex)
    ac = a.conj()
    r = np.sqrt(1.0 - (a * ac).real)
    T = np.empty(a.shape + (2, 2), dtype=complex)
    T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1] = ac, r, r, -a
    return T


def band_rows(values) -> np.ndarray:
    """Band storage of rows m0 .. m0+n-1 of E = L M from alpha(m0-1) .. alpha(m0+n); m0, n even.

    Entry c of row m is E[m, m - m % 2 - 1 + c] for c = 0..3, the four columns
    a CMV row can reach.  Rows (m, m+1), m even, are Theta(alpha_m) times rows
    m and m+1 of M, which are row 1 of Theta(alpha_{m-1}) and row 0 of
    Theta(alpha_{m+1}).  Leading axes of values are kept: (..., n + 2) gives
    (..., n, 4).
    """
    T = theta_blocks(values)
    lead = T[..., 1:-1:2, :, :]
    pairs = np.concatenate(
        (
            lead[..., :, 0, None] * T[..., :-2:2, None, 1, :],
            lead[..., :, 1, None] * T[..., 2::2, None, 0, :],
        ),
        axis=-1,
    )
    return pairs.reshape(pairs.shape[:-3] + (-1, 4))


def band_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the band storage of n rows, row-major; columns run from -1 to n."""
    m = np.arange(n)
    cols = (m - m % 2 - 1)[:, None] + np.arange(4)
    return np.repeat(m, 4), cols.ravel()


def assemble_window(alpha: AlphaFn, offset: int, dim: int) -> np.ndarray:
    """Rows and columns offset .. offset+dim-1 of the extended CMV matrix.

    The window is scattered from the band storage of its rows, assembled on a
    padded index range, so every entry equals that of the two-sided operator:
    only the truncation itself is lossy.
    """
    if dim < 4:
        raise ValueError("window dimension must be at least 4")
    if offset % 2 != 0:
        raise ValueError("offset must be even to align with the 2x4 block grid")
    n = dim + dim % 2
    source = [validate_alpha(alpha(k)) for k in range(offset - 2, offset + n + 2)]
    rows, cols = band_columns(n)
    E = np.zeros((n, n + 2), dtype=complex)
    E[rows, cols + 1] = band_rows(source[1:-1]).ravel()
    return E[:dim, 1 : dim + 1].copy()


def diff_norm_bound_seq(sf: PeriodicSeq, sg: PeriodicSeq | np.ndarray) -> float | np.ndarray:
    """Upper bound on the operator norm of E_f - E_g for periodic sequences.

    From E = L M with unitary factors, ||L_f M_f - L_g M_g|| <= ||L_f - L_g||
    + ||M_f - M_g||, and each block-diagonal difference has the norm of its
    largest block: the bound is the maximum over even n plus the maximum over
    odd n of ||Theta(f_n) - Theta(g_n)||.  That difference is
    [[conj(d), e], [e, -d]] with e = rho(f_n) - rho(g_n) real, a multiple of a
    unitary, so its norm is that of its first row, sqrt(|d|^2 + e^2).  Both
    sequences are lifted to their common (lcm) period first.  sg may also be
    an (N, q) stack of periods, as in floquet.floquet_matrix; the bound is
    then one per row, an (N,) array.
    """
    a, b = (
        np.asarray(s.values if isinstance(s, PeriodicSeq) else s, dtype=complex) for s in (sf, sg)
    )
    q = math.lcm(a.shape[-1], b.shape[-1])
    d = theta_blocks(np.tile(a, q // a.shape[-1])) - theta_blocks(np.tile(b, q // b.shape[-1]))
    norms = np.linalg.norm(d[..., 0, :], axis=-1)
    bound = norms[..., 0::2].max(axis=-1) + norms[..., 1::2].max(axis=-1)
    return float(bound) if bound.ndim == 0 else bound
