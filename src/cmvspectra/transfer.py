"""Two-step transfer matrices for the extended CMV recurrence.

For odd n the pair (u_n, u_{n+1}) propagates to (u_{n+2}, u_{n+3}) through a
2x2 matrix built from the coefficient triple (alpha_n, alpha_{n+1},
alpha_{n+2}) and the unimodular spectral parameter z.  The matrix has
determinant rho_n / rho_{n+2}; a rescaled variant with determinant 1 is also
provided.  `step_coeffs` gives the Laurent coefficients in z of all the
matrices of one period at once; the Floquet layer multiplies them into the
monodromy.  A computable Lipschitz modulus for the entries over a coefficient
polydisk supports the perturbation budgets used by the Gordon machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coeffs import rho, validate_alpha

_UNIMODULAR_TOL = 1e-12


def _check_z(z) -> complex:
    z = complex(z)
    if abs(abs(z) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError(f"spectral parameter must be unimodular, got |z| = {abs(z)}")
    return z


def _entries(a0: complex, a1: complex, a2: complex, z: complex) -> np.ndarray:
    r0, r1, r2 = rho(a0), rho(a1), rho(a2)
    a11 = r2 * (a1.conjugate() * a1 * r0 + r1 * r1 * r0)
    a12 = -r2 * ((a1.conjugate() * a0 + z) * a1 + r1 * r1 * a0)
    a21 = -((a2.conjugate() * a1 + z) * a1.conjugate() * r0 + r1 * r1 * r0 * a2.conjugate())
    a22 = (a2.conjugate() * a1 + z) * (a1.conjugate() * a0 + z) + a2.conjugate() * r1 * r1 * a0
    return np.array([[a11, a12], [a21, a22]], dtype=complex) / (z * r1 * r2)


def build_A(alpha_n, alpha_n1, alpha_n2, z) -> np.ndarray:
    """Two-step transfer matrix with det = rho_n / rho_{n+2}."""
    z = _check_z(z)
    a0 = validate_alpha(alpha_n)
    a1 = validate_alpha(alpha_n1)
    a2 = validate_alpha(alpha_n2)
    return _entries(a0, a1, a2, z)


def build_A_unimodular(alpha_n, alpha_n1, alpha_n2, z) -> np.ndarray:
    """Determinant-1 variant: top row scaled by rho_{n+2}, left column by 1/rho_n.

    Propagates (rho_n u_n, u_{n+1}) to (rho_{n+2} u_{n+2}, u_{n+3}).
    """
    z = _check_z(z)
    a0 = validate_alpha(alpha_n)
    a1 = validate_alpha(alpha_n1)
    a2 = validate_alpha(alpha_n2)
    m = _entries(a0, a1, a2, z)
    m[0, :] *= rho(a2)
    m[:, 0] /= rho(a0)
    return m


def step_coeffs(values) -> np.ndarray:
    """Laurent coefficients of A_1, A_3, ..., A_{q-1} over one period, shape (q/2, 3, 2, 2).

    Entry [k, s] is the z^(s-1) coefficient of A_{2k+1}.  Because
    |alpha|^2 + rho^2 = 1, the entries of `build_A` reduce to

        A = [[rho0 / (rho1 z), -(alpha0 / z + alpha1) / rho1],
             [-rho0 (conj(alpha2) / z + conj(alpha1)) / (rho1 rho2),
              (conj(alpha2) alpha0 / z + conj(alpha2) alpha1 + conj(alpha1) alpha0 + z)
               / (rho1 rho2)]]

    for the triple (alpha0, alpha1, alpha2) = (alpha_n, alpha_{n+1}, alpha_{n+2}).
    """
    a = np.asarray(values, dtype=complex)
    r = np.sqrt(1.0 - (a.real * a.real + a.imag * a.imag))
    a0, a1, a2 = a[1::2], np.roll(a, -1)[1::2], np.roll(a, -2)[1::2]
    r0, r1, r2 = r[1::2], np.roll(r, -1)[1::2], np.roll(r, -2)[1::2]
    c1, c2 = a1.conj(), a2.conj()
    r12 = r1 * r2
    out = np.zeros((len(a0), 3, 2, 2), dtype=complex)
    out[:, 0, 0, 0] = r0 / r1
    out[:, 0, 0, 1] = -a0 / r1
    out[:, 1, 0, 1] = -a1 / r1
    out[:, 0, 1, 0] = -r0 * c2 / r12
    out[:, 1, 1, 0] = -r0 * c1 / r12
    out[:, 0, 1, 1] = c2 * a0 / r12
    out[:, 1, 1, 1] = (c2 * a1 + c1 * a0) / r12
    out[:, 2, 1, 1] = 1.0 / r12
    return out


def four_block(A: np.ndarray, x: np.ndarray) -> float:
    """max(|Ax|, |A^2x|, |A^-1 x|, |A^-2 x|) for invertible A and unit x; always >= 1/2."""
    A = np.asarray(A, dtype=complex)
    x = np.asarray(x, dtype=complex)
    if abs(np.linalg.norm(x) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError("x must be a unit vector")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    if det == 0:
        raise ValueError("A must be invertible")
    Ainv = np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=complex) / det
    y1 = A @ x
    y3 = Ainv @ x
    return max(
        np.linalg.norm(y1),
        np.linalg.norm(A @ y1),
        np.linalg.norm(y3),
        np.linalg.norm(Ainv @ y3),
    )


@dataclass(frozen=True)
class LipschitzModulus:
    """Entry-sensitivity bound: perturbing the triple by delta (componentwise,
    within the r-polydisk) changes the transfer matrix by at most L * delta in
    spectral norm, uniformly over |z| = 1."""

    r: float
    L: float


def _spec_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


@lru_cache(maxsize=64)
def _estimate_lipschitz_cached(r_key: float) -> LipschitzModulus:
    r = r_key
    rng = np.random.default_rng(271828)
    worst = 0.0
    n_samples = 4000
    deltas = np.geomspace(1e-5, max(2e-5, 0.4 * r), 8)

    def disk_sample(radius: float, size: int) -> np.ndarray:
        mag = radius * np.sqrt(rng.uniform(0, 1, size))
        phase = rng.uniform(0, 2 * np.pi, size)
        return mag * np.exp(1j * phase)

    for i in range(n_samples):
        tri = disk_sample(r, 3)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = _entries(tri[0], tri[1], tri[2], z)
        d = deltas[i % len(deltas)]
        dirs = disk_sample(1.0, 3)
        dirs /= max(np.max(np.abs(dirs)), 1e-12)
        tri2 = tri + d * dirs
        # project back into the polydisk so both triples stay admissible
        over = np.abs(tri2) > r
        tri2[over] *= r / np.abs(tri2[over])
        dist = np.max(np.abs(tri2 - tri))
        if dist < 1e-9:
            continue
        a2 = _entries(tri2[0], tri2[1], tri2[2], z)
        worst = max(worst, _spec_norm(a - a2) / dist)
    # safety factor 2 over the sampled finite-difference quotients
    return LipschitzModulus(r, 2.0 * worst)


def estimate_lipschitz(r: float) -> LipschitzModulus:
    """Grid/sample estimate of the entry Lipschitz constant over the r-polydisk."""
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")
    return _estimate_lipschitz_cached(round(float(r), 6))


def gamma(k: int, q: int, r: float) -> float:
    """Coefficient-perturbation modulus: triples within gamma(k, q, r) of each
    other give transfer matrices within k^{-q} in spectral norm."""
    if k < 1 or q < 1:
        raise ValueError("k and q must be positive integers")
    L = estimate_lipschitz(r).L
    return float(k) ** (-q) / L
