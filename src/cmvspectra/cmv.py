"""Finite windows of the extended CMV matrix and operator-norm perturbation bounds.

The extended CMV matrix factors as E = L M into block-diagonal unitaries whose
2x2 blocks Theta(alpha_n) = [[conj(alpha_n), rho_n], [rho_n, -alpha_n]] sit at
(n, n+1), n even for L and odd for M (Cantero-Moral-Velazquez, Linear Algebra
Appl. 362 (2003); Simon, OPUC Part 1, Sect. 4.2).  Windows, the Floquet
restrictions in `floquet` and the closed-form movement bound all derive from
the vectorized blocks; `cmv_entry` is an independent oracle for the assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coeffs import PeriodicSeq, common_period, rho, validate_alpha
from .odometer import SamplingFn, lift, to_periodic

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


@dataclass(frozen=True)
class CmvWindow:
    """Dense dim x dim truncation with rows/columns offset .. offset+dim-1.

    Every stored entry equals the corresponding entry of the two-sided
    operator (the assembly works on a padded index range), so only the
    truncation itself is lossy, not the entries.
    """

    offset: int
    matrix: np.ndarray
    source: tuple[complex, ...]  # alpha(offset-2 .. offset+dim+1)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def alpha(self, n: int) -> complex:
        return self.source[n - (self.offset - 2)]


def theta_blocks(values) -> np.ndarray:
    """Theta(a) = [[conj(a), rho], [rho, -a]] for each coefficient, stacked to shape (n, 2, 2)."""
    a = np.asarray(values, dtype=complex)
    ac = a.conj()
    r = np.sqrt(1.0 - (a * ac).real)
    return np.array([[ac, r], [r, -a]]).transpose(2, 0, 1)


def band_rows(values) -> np.ndarray:
    """Band storage of rows m0 .. m0+n-1 of E = L M from alpha(m0-1) .. alpha(m0+n); m0, n even.

    Entry c of row m is E[m, m - m % 2 - 1 + c] for c = 0..3, the four columns
    a CMV row can reach.  Rows (m, m+1), m even, are Theta(alpha_m) times rows
    m and m+1 of M, which are row 1 of Theta(alpha_{m-1}) and row 0 of
    Theta(alpha_{m+1}).
    """
    T = theta_blocks(values)
    lead = T[1:-1:2]
    pairs = np.concatenate(
        (lead[:, :, 0, None] * T[:-2:2, None, 1, :], lead[:, :, 1, None] * T[2::2, None, 0, :]),
        axis=2,
    )
    return pairs.reshape(-1, 4)


def band_columns(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the band storage of n rows, row-major; columns run from -1 to n."""
    m = np.arange(n)
    cols = (m - m % 2 - 1)[:, None] + np.arange(4)
    return np.repeat(m, 4), cols.ravel()


def assemble_window(alpha: AlphaFn, offset: int, dim: int) -> CmvWindow:
    """Window of the extended CMV matrix, scattered from the band storage of its rows."""
    if dim < 4:
        raise ValueError("window dimension must be at least 4")
    if offset % 2 != 0:
        raise ValueError("offset must be even to align with the 2x4 block grid")
    n = dim + dim % 2
    source = [validate_alpha(alpha(k)) for k in range(offset - 2, offset + n + 2)]
    rows, cols = band_columns(n)
    E = np.zeros((n, n + 2), dtype=complex)
    E[rows, cols + 1] = band_rows(source[1:-1]).ravel()
    return CmvWindow(offset, E[:dim, 1 : dim + 1].copy(), tuple(source[: dim + 4]))


def diff_norm_bound_seq(sf: PeriodicSeq, sg: PeriodicSeq) -> float:
    """Upper bound on the operator norm of E_f - E_g for periodic sequences.

    From E = L M with unitary factors, ||L_f M_f - L_g M_g|| <= ||L_f - L_g||
    + ||M_f - M_g||, and each block-diagonal difference has the norm of its
    largest block: the bound is the maximum over even n plus the maximum over
    odd n of ||Theta(f_n) - Theta(g_n)||.  That difference is
    [[conj(d), e], [e, -d]] with e = rho(f_n) - rho(g_n) real, a multiple of a
    unitary, so its norm is that of its first row, sqrt(|d|^2 + e^2).  Both
    sequences are lifted to their common period first.
    """
    sf, sg = common_period(sf, sg)
    d = theta_blocks(sf.values) - theta_blocks(sg.values)
    norms = np.linalg.norm(d[:, 0, :], axis=1)
    return float(norms[0::2].max() + norms[1::2].max())


def diff_norm_bound(f: SamplingFn, g: SamplingFn) -> float:
    """Upper bound on the operator norm of E_f - E_g for sampling functions."""
    k = max(max(f.level, g.level), 1)
    return diff_norm_bound_seq(to_periodic(lift(f, k)), to_periodic(lift(g, k)))


@dataclass(frozen=True)
class MovementReport:
    """Outcome of the one-sided spectrum-movement check."""

    bound: float
    max_displacement: float
    grid_size: int

    @property
    def passed(self) -> bool:
        return self.max_displacement <= self.bound + 1e-8

    def to_json(self) -> dict:
        return {
            "bound": self.bound,
            "max_displacement": self.max_displacement,
            "grid_size": self.grid_size,
            "passed": self.passed,
        }


def spectrum_movement_check(f: PeriodicSeq, g: PeriodicSeq, grid: int = 2000) -> MovementReport:
    """Verify every band point of the f-spectrum lies within the norm bound of the g-spectrum."""
    from .floquet import band_structure

    bound = diff_norm_bound_seq(f, g)
    bs_f = band_structure(f)
    bs_g = band_structure(g)

    def dist_to_bands(theta: float) -> float:
        if any(b.contains(theta) for b in bs_g.bands):
            return 0.0
        z = np.exp(1j * theta)
        return min(min(abs(z - np.exp(1j * b.theta_lo)), abs(z - np.exp(1j * b.theta_hi)))
                   for b in bs_g.bands)

    worst = 0.0
    for band in bs_f.bands:
        width = (band.theta_hi - band.theta_lo) % (2 * np.pi)
        for s in np.linspace(0.0, width, max(2, grid // max(1, len(bs_f.bands)))):
            worst = max(worst, dist_to_bands((band.theta_lo + s) % (2 * np.pi)))
    return MovementReport(bound=bound, max_displacement=worst, grid_size=grid)
