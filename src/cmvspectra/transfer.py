"""Two-step transfer matrices for the extended CMV recurrence.

For odd n the pair (u_n, u_{n+1}) propagates to (u_{n+2}, u_{n+3}) through a
2x2 matrix A_n of the triple (alpha_n, alpha_{n+1}, alpha_{n+2}) and the
unimodular spectral parameter z, with determinant rho_n / rho_{n+2}.  Its
entries are written once, as Laurent coefficients in z (`step_laurent`,
elementwise); `step_coeffs` fills them for a period, which the discriminant
multiplies into the monodromy's Laurent form, and `transfer_at` evaluates them
at z for `build_A`, its determinant-1 variant and the Lipschitz sampler.
`transfer_products` multiplies a period's matrices out at points z, for the
discriminant's point evaluator and the Floquet solutions and densities: the
one 2x2 product loop.  `estimate_lipschitz`, a sampled estimate of the
entries' Lipschitz constant over a coefficient polydisk, supports the Gordon
perturbation budgets.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .coeffs import validate_alpha

_UNIMODULAR_TOL = 1e-12


def step_laurent(a0, a1, a2) -> np.ndarray:
    """Laurent coefficients in z of A_n for (a0, a1, a2) = (alpha_n, alpha_{n+1}, alpha_{n+2}).

    Elementwise: three complex scalars give shape (3, 2, 2), three arrays of
    one shape S give (3, 2, 2) + S; entry [s] is the z^(s-1) coefficient.
    Because |alpha|^2 + rho^2 = 1, the matrix reduces to

        A = [[rho0 / (rho1 z), -(alpha0 / z + alpha1) / rho1],
             [-rho0 (conj(alpha2) / z + conj(alpha1)) / (rho1 rho2),
              (conj(alpha2) alpha0 / z + conj(alpha2) alpha1 + conj(alpha1) alpha0 + z)
               / (rho1 rho2)]]

    with det A = rho0 / rho2.  Scalars stay Python numbers until the one
    array is built, which keeps a single triple cheap.
    """
    r0, r1, r2 = ((1.0 - (a.real * a.real + a.imag * a.imag)) ** 0.5 for a in (a0, a1, a2))
    c1, c2 = a1.conjugate(), a2.conjugate()
    r12 = r1 * r2
    o = 0.0 * r12  # a zero of the triple's shape
    return np.array([
        [[r0 / r1, -a0 / r1], [-r0 * c2 / r12, c2 * a0 / r12]],
        [[o, -a1 / r1], [-r0 * c1 / r12, (c2 * a1 + c1 * a0) / r12]],
        [[o, o], [o, 1.0 / r12]],
    ], dtype=complex)


def step_coeffs(values: np.ndarray) -> np.ndarray:
    """Laurent coefficients of A_1, A_3, ..., A_{q-1} over one period, shape (q/2, 3, 2, 2).

    values is a period's coefficient table (`PeriodicSeq.values`, a 1-D
    complex128 array).  Entry [k] is step_laurent of the triple
    (alpha_{2k+1}, alpha_{2k+2}, alpha_{2k+3}).
    """
    c = step_laurent(values[1::2], np.concatenate([values[2::2], values[:1]]),
                     np.concatenate([values[3::2], values[1:2]]))
    return np.ascontiguousarray(c.transpose(3, 0, 1, 2))


def transfer_at(coeffs: np.ndarray, z) -> np.ndarray:
    """The transfer matrices at z from their Laurent coefficients.

    coeffs is one triple's (3, 2, 2) from step_laurent or a period's
    (q/2, 3, 2, 2) from step_coeffs, giving (2, 2) or (q/2, 2, 2) at a scalar
    z; an array of N points adds a last axis of length N.
    """
    c = coeffs.swapaxes(0, -3)  # the Laurent axis first
    if isinstance(z, np.ndarray) and z.ndim:
        c = c[..., None]
    return c[0] * (1.0 / z) + c[1] + c[2] * z


def transfer_products(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The partial products A_{2j-1} ... A_3 A_1 of a period's transfer matrices at N points z.

    coeffs is a period's (q/2, 3, 2, 2) from step_coeffs and z a (N,) array;
    returns (q/2 + 1, 2, 2, N), entry j the product of the first j matrices:
    entry 0 is I and entry q/2 the monodromy.  The 2x2 products are spelled
    out, since stacked matmul is about ten times slower on 2x2 blocks.
    """
    A = transfer_at(coeffs, z)
    products = np.empty((len(A) + 1,) + A.shape[1:], dtype=complex)
    products[0] = np.eye(2, dtype=complex)[:, :, None]
    for j, a in enumerate(A):
        p = products[j]
        products[j + 1] = a[:, :1] * p[0] + a[:, 1:] * p[1]
    return products


def build_A(alpha_n, alpha_n1, alpha_n2, z) -> np.ndarray:
    """Two-step transfer matrix with det = rho_n / rho_{n+2}."""
    z = complex(z)
    if abs(abs(z) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError(f"spectral parameter must be unimodular, got |z| = {abs(z)}")
    triple = (validate_alpha(a) for a in (alpha_n, alpha_n1, alpha_n2))
    return transfer_at(step_laurent(*triple), z)


def build_A_unimodular(alpha_n, alpha_n1, alpha_n2, z) -> np.ndarray:
    """Determinant-1 variant: top row scaled by rho_{n+2}, left column by 1/rho_n.

    Propagates (rho_n u_n, u_{n+1}) to (rho_{n+2} u_{n+2}, u_{n+3}).
    """
    m = build_A(alpha_n, alpha_n1, alpha_n2, z)
    r0, r2 = (math.sqrt(1.0 - abs(complex(a)) ** 2) for a in (alpha_n, alpha_n2))
    m[0, :] *= r2
    m[:, 0] /= r0
    return m


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


@lru_cache(maxsize=64)
def _estimate_lipschitz_cached(r: float) -> float:
    rng = np.random.default_rng(271828)
    worst = 0.0
    n_samples = 4000
    deltas = np.geomspace(1e-5, max(2e-5, 0.4 * r), 8)

    def disk_sample(radius: float, size: int) -> np.ndarray:
        mag = radius * np.sqrt(rng.uniform(0, 1, size))
        phase = rng.uniform(0, 2 * np.pi, size)
        return mag * np.exp(1j * phase)

    def transfer(tri: np.ndarray, z: complex) -> np.ndarray:
        try:
            return transfer_at(step_laurent(*tri.tolist()), z)
        except ZeroDivisionError:
            raise ValueError(f"r = {r!r} is too close to 1: a sampled rho = sqrt(1 - |alpha|^2) "
                             f"rounds to 0, so the transfer matrix is not defined") from None

    for i in range(n_samples):
        tri = disk_sample(r, 3)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi))
        a = transfer(tri, z)
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
        a2 = transfer(tri2, z)
        worst = max(worst, float(np.linalg.norm(a - a2, 2)) / dist)
    # safety factor 2 over the sampled finite-difference quotients
    return 2.0 * worst


def estimate_lipschitz(r: float) -> float:
    """Sampled estimate of the L with which perturbing the triple by delta (componentwise,
    within the r-polydisk) moves the transfer matrix by at most L * delta in spectral
    norm, uniformly over |z| = 1: twice the largest of a seeded sample of finite-difference
    quotients, so an estimate, not a proven bound.  Pairs closer than 1e-9 are skipped, so
    below r of about 5e-10 the estimate is 0; ValueError if a sampled rho rounds to 0,
    as it does for r within a few ulps of 1."""
    if not (0.0 < r < 1.0):
        raise ValueError("r must lie in (0, 1)")
    return _estimate_lipschitz_cached(float(r))


def gamma(k: int, q: int, r: float) -> float:
    """Coefficient-perturbation modulus: triples within gamma(k, q, r) of each
    other give transfer matrices within k^{-q} in spectral norm."""
    if k < 1 or q < 1:
        raise ValueError("k and q must be positive integers")
    lipschitz = estimate_lipschitz(r)
    if lipschitz == 0:
        raise ValueError(f"r = {r!r} is too small: every sampled pair of triples lies closer "
                         f"than 1e-9, so the sampled Lipschitz estimate is 0")
    return float(k) ** (-q) / lipschitz
