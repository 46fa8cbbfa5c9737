"""Spectral measures of periodic CMV operators.

Builds the two Floquet solutions at a band-interior point, the equilibrium
density V = |dpsi/dtheta| / (q pi), and the absolutely continuous density of
the spectral measure of a finitely supported vector.  All band integrals use
edge-graded quadrature since V blows up like dist^{-1/2} at band edges.

Amplitude convention: the transform of a finite-support vector u is taken as
sqrt(q/2) * sum_n conj(phi_n) u_n.  With this normalization the total mass of
the density reproduces ||u||^2 (checked by the test suite); the declared
factor is recorded in the density report metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._quad import grading_exponent, graded_nodes, integrate_graded
from .coeffs import PeriodicSeq, common_period
from .floquet import (Band, BandStructure, Discriminant, band_mass, band_structure,
                      density_factor, floquet_matrix)

AMPLITUDE_FACTOR = "sqrt(q/2)"


class EdgeProximityError(RuntimeError):
    """z is too close to a band edge for a well-conditioned Floquet solve."""


def psi_of(z: complex, disc: Discriminant) -> float:
    """Floquet phase arccos(Delta(z)/2) in [0, pi] for z on the spectrum."""
    val = disc.eval(z).real
    if abs(val) > 2.0 + 1e-9:
        raise ValueError(f"|Delta(z)| = {abs(val)} > 2; z is off the spectrum")
    return math.acos(min(1.0, max(-1.0, 0.5 * val)))


def _null_vector(A: np.ndarray, residual_tol: float = 1e-9) -> np.ndarray:
    """Unit-norm null vector: right singular vector of the smallest singular value.

    Inside a band the shifted Floquet matrix has a one-dimensional null space;
    near a band edge (or a closed-gap tangency) a second singular value
    degenerates, which the gap check below reports as edge proximity.
    """
    _, s, vh = np.linalg.svd(np.asarray(A, dtype=complex))
    if s[-1] > residual_tol:
        raise EdgeProximityError(
            f"null-vector residual {s[-1]:.2e} exceeds {residual_tol:.0e}"
        )
    if A.shape[0] > 1 and s[-2] < 10.0 * max(s[-1], 1e-15):
        raise EdgeProximityError("near-degenerate null space; z too close to a band edge")
    return vh[-1].conjugate()


@dataclass(frozen=True)
class FloquetSolution:
    """Normalized fundamental pair at a band-interior spectrum point."""

    z: complex
    psi: float
    phi_plus: np.ndarray
    phi_minus: np.ndarray

    def extend(self, plus: bool, n: int) -> complex:
        """Two-sided solution value via phi_{j + l q} = e^{+/- i l psi} phi_j."""
        phi = self.phi_plus if plus else self.phi_minus
        q = len(phi)
        l, j = divmod(n, q)
        sign = 1.0 if plus else -1.0
        return np.exp(1j * sign * l * self.psi) * phi[j]


def floquet_solution(
    seq: PeriodicSeq,
    z: complex,
    disc: Discriminant | None = None,
    edge_margin: float = 1e-9,
    residual_tol: float = 1e-9,
) -> FloquetSolution:
    """Solve for the two quasiperiodic solutions at z inside a band."""
    if disc is None:
        from .floquet import discriminant

        disc = discriminant(seq)
    val = disc.eval(z).real
    if abs(val) > 2.0 - edge_margin:
        raise EdgeProximityError(
            "z is at or beyond a band edge; use the edge-aware quadrature path"
        )
    psi = psi_of(z, disc)
    q = seq.period
    phi_p = _null_vector(floquet_matrix(seq, psi).entries - z * np.eye(q), residual_tol)
    phi_m = _null_vector(floquet_matrix(seq, -psi).entries - z * np.eye(q), residual_tol)
    return FloquetSolution(complex(z), psi, phi_p, phi_m)


@dataclass(frozen=True)
class EquilibriumDensity:
    """Density of the band equilibrium measure, V = |dpsi/dtheta| / (q pi)."""

    seq: PeriodicSeq
    bands: tuple[Band, ...]
    disc: Discriminant = field(repr=False)

    def __call__(self, theta: float) -> float:
        return density_factor(self.disc, theta)

    def band_mass(self, i: int, n: int = 96) -> float:
        return band_mass(self.disc, self.bands[i], n)


def equilibrium_density(seq: PeriodicSeq, bs: BandStructure | None = None) -> EquilibriumDensity:
    if bs is None:
        bs = band_structure(seq, compute_masses=False)
    return EquilibriumDensity(seq, bs.bands, bs.disc)


def _transform_amplitudes(
    seq: PeriodicSeq, u: Mapping[int, complex], theta: float, disc: Discriminant
) -> tuple[float, float]:
    """|Uu+|^2 and |Uu-|^2 at the spectrum point e^{i theta}.

    Amplitudes are smooth up to the band edge, so if the node sits too close
    for a stable null solve we evaluate them a hair further inside the band.
    """
    sol = None
    for nudge in (0.0, 1e-7, -1e-7, 1e-5, -1e-5):
        try:
            sol = floquet_solution(
                seq,
                np.exp(1j * (theta + nudge)),
                disc,
                edge_margin=1e-13,
                residual_tol=1e-6,
            )
            break
        except EdgeProximityError:
            continue
    if sol is None:
        raise EdgeProximityError(f"no stable Floquet solve near theta = {theta}")
    q = seq.period
    scale = math.sqrt(q / 2.0)
    acc_p = 0.0 + 0.0j
    acc_m = 0.0 + 0.0j
    for n, un in u.items():
        acc_p += np.conj(sol.extend(True, n)) * un
        acc_m += np.conj(sol.extend(False, n)) * un
    return abs(scale * acc_p) ** 2, abs(scale * acc_m) ** 2


@dataclass(frozen=True)
class SpectralDensity:
    """Sampled density g of the spectral measure of a finite-support vector."""

    seq: PeriodicSeq
    u: dict[int, complex]
    bands: tuple[Band, ...]
    disc: Discriminant = field(repr=False)
    grid: tuple[tuple[float, float], ...] = ()
    total_mass: float = 0.0
    quad_tolerance: float = 0.0
    amplitude_factor: str = AMPLITUDE_FACTOR

    def __call__(self, theta: float) -> float:
        theta %= 2.0 * math.pi
        if any(b.contains(theta) for b in self.bands):
            return self._eval_inside(theta)
        return 0.0

    def _eval_inside(self, theta: float) -> float:
        v = density_factor(self.disc, theta)
        ap, am = _transform_amplitudes(self.seq, self.u, theta, self.disc)
        return (ap + am) * v

    def to_json(self) -> dict:
        return {
            "mass": self.total_mass,
            "tolerance": self.quad_tolerance,
            "amplitude_factor": self.amplitude_factor,
            "bands": [[b.theta_lo, b.theta_hi] for b in self.bands],
        }


def density(
    seq: PeriodicSeq,
    u: Mapping[int, complex],
    bs: BandStructure | None = None,
    n: int = 64,
) -> SpectralDensity:
    """Spectral density of u with per-band edge-graded sampling and its total mass."""
    if not u:
        raise ValueError("source vector must have nonempty support")
    u = {int(k): complex(v) for k, v in u.items()}
    if bs is None:
        bs = band_structure(seq, compute_masses=False)
    disc = bs.disc
    sd = SpectralDensity(seq, u, bs.bands, disc)
    samples = []
    mass = 0.0
    mass_coarse = 0.0
    for b in bs.bands:
        thetas, weights = graded_nodes(b.theta_lo, b.theta_hi, n=n, m=2)
        vals = np.array([sd._eval_inside(t) for t in thetas])
        mass += float(np.dot(vals, weights))
        samples.extend(zip(thetas.tolist(), vals.tolist()))
        t2, w2 = graded_nodes(b.theta_lo, b.theta_hi, n=max(8, n // 2), m=2)
        mass_coarse += float(
            np.dot(np.array([sd._eval_inside(t) for t in t2]), w2)
        )
    return SpectralDensity(
        seq,
        u,
        bs.bands,
        disc,
        grid=tuple(samples),
        total_mass=mass,
        quad_tolerance=abs(mass - mass_coarse),
    )


def lt_integral(
    field: Callable[[float], float],
    bands: tuple[Band, ...],
    t: float,
    n: int = 64,
) -> tuple[float, float]:
    """Integral of |field|^t over the bands, with an error estimate from refinement.

    t must lie strictly in (1, 2): the integrand grows like dist^{-t/2} at band
    edges, integrable only below t = 2.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    m = grading_exponent(t)

    def run(nodes: int) -> float:
        total = 0.0
        for b in bands:
            total += integrate_graded(
                lambda th: abs(field(th)) ** t, b.theta_lo, b.theta_hi, n=nodes, m=m
            )
        return total

    fine = run(n)
    coarse = run(max(8, n // 2))
    return fine, abs(fine - coarse)


def density_distance(
    seq_a: PeriodicSeq,
    seq_b: PeriodicSeq,
    u: Mapping[int, complex],
    t: float,
    n: int = 48,
) -> float:
    """Integral of |g_a - g_b|^t over the union of the two band sets.

    Both sequences are lifted to their common (lcm) period first; each density
    vanishes off its own bands.  Returns the raw integral; take the 1/t power
    for the metric form.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    sa, sb = common_period(seq_a, seq_b)
    bs_a = band_structure(sa, compute_masses=False)
    bs_b = band_structure(sb, compute_masses=False)
    g_a = SpectralDensity(sa, dict(u), bs_a.bands, bs_a.disc)
    g_b = SpectralDensity(sb, dict(u), bs_b.bands, bs_b.disc)

    two_pi = 2.0 * math.pi
    cuts = sorted(
        {(b.theta_lo % two_pi) for bs in (bs_a, bs_b) for b in bs.bands}
        | {(b.theta_hi % two_pi) for bs in (bs_a, bs_b) for b in bs.bands}
    )
    if not cuts:
        return 0.0

    m = grading_exponent(t)
    total = 0.0
    for i in range(len(cuts)):
        lo = cuts[i]
        hi = cuts[(i + 1) % len(cuts)]
        if i + 1 == len(cuts):
            hi += two_pi
        if hi - lo < 1e-13:
            continue
        mid = 0.5 * (lo + hi)
        in_a = any(b.contains(mid) for b in bs_a.bands)
        in_b = any(b.contains(mid) for b in bs_b.bands)
        if not (in_a or in_b):
            continue

        def diff(theta: float) -> float:
            va = g_a._eval_inside(theta) if in_a else 0.0
            vb = g_b._eval_inside(theta) if in_b else 0.0
            return abs(va - vb) ** t

        total += integrate_graded(diff, lo, hi, n=n, m=m)
    return total
