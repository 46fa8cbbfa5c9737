"""Spectral measures of periodic CMV operators.

Builds the two Floquet solutions at a spectrum point, the equilibrium density
V = |dpsi/dtheta| / (q pi), and the absolutely continuous density of the
spectral measure of a finitely supported vector.  The Floquet solutions are
the eigenvectors of the 2x2 monodromy for e^{+/- i psi}, propagated over one
period by the two-step transfer matrices (`transfer.step_coeffs`, evaluated by
`transfer_at`).  One batched kernel, `_floquet_solutions`, builds them for N
points at once, and `_amplitude_sum` forms the transform amplitudes from them;
`floquet_solution` runs both at N = 1, with psi from `psi_of`.

Every density takes its points as (band edge, offset into the band), with psi
and V from `floquet._equilibrium_at`.  Band integrals use edge-graded
quadrature, since V blows up like dist^{-1/2} at band edges, and pass all
nodes of a band at once; `SpectralDensity.__call__` anchors its one point at
the nearer edge of its band.

Amplitude convention: the transform of a finite-support vector u is taken as
sqrt(q/2) * sum_n conj(phi_n) u_n, with phi normalized over one period.  With
this normalization the total mass of the density reproduces ||u||^2 (checked
by the test suite); the declared factor is recorded in the density report
metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ._quad import graded_pairs, grading_exponent
from .coeffs import PeriodicSeq
from .floquet import (TWO_PI, Band, BandStructure, Discriminant, _equilibrium_at,
                      band_structure, discriminant)
# unused here; perfbench/tests asserts that the span tracer patches this binding
from .floquet import floquet_matrix  # noqa: F401
from .transfer import step_coeffs, transfer_at

AMPLITUDE_FACTOR = "sqrt(q/2)"


class EdgeProximityError(RuntimeError):
    """The monodromy at z equals +/-I, so the two Floquet solutions are not determined."""


def psi_of(z: complex, disc: Discriminant) -> float:
    """Floquet phase arccos(Delta(z)/2) in [0, pi] for z on the spectrum."""
    val = disc.eval(z).real
    if abs(val) > 2.0 + 1e-9:
        raise ValueError(f"|Delta(z)| = {abs(val)} > 2; z is off the spectrum")
    return math.acos(min(1.0, max(-1.0, 0.5 * val)))


@dataclass(frozen=True)
class FloquetSolution:
    """Normalized fundamental pair at a spectrum point, one period each.

    phi_{j + l q} = e^{+/- i l psi} phi_j extends them to all sites.
    """

    z: complex
    psi: float
    phi_plus: np.ndarray
    phi_minus: np.ndarray


def floquet_solution(
    seq: PeriodicSeq, z: complex, disc: Discriminant | None = None
) -> FloquetSolution:
    """The two quasiperiodic solutions at z on the spectrum, normalized over one period."""
    if disc is None:
        disc = discriminant(seq)
    psi = psi_of(z, disc)
    phi = _floquet_solutions(step_coeffs(seq.values), np.array([z]), np.array([psi]))
    return FloquetSolution(complex(z), psi, phi[:, 0, 0], phi[:, 1, 0])


#: a density on the bands, evaluated at theta = edge + offset for arrays of band edges and offsets
EdgeField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def equilibrium_density(seq: PeriodicSeq, bs: BandStructure | None = None) -> EdgeField:
    """The equilibrium density V = |dpsi/dtheta| / (q pi), as a function of (edges, offsets)."""
    if bs is None:
        bs = band_structure(seq, compute_masses=False)
    return lambda edges, offsets: _equilibrium_at(bs.disc, edges, offsets)[1]


def _nearest_edge(
    band: Band, anchors: np.ndarray, signed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each point anchors + signed on band, as the nearer edge of band and the offset from it.

    An anchor below theta_lo is taken a turn up: a band past 2 pi holds the points just above 0.
    """
    base = np.where(anchors < band.theta_lo, anchors + TWO_PI, anchors)
    from_lo = (base - band.theta_lo) + signed
    from_hi = (base - band.theta_hi) + signed
    near_lo = from_lo <= -from_hi
    return np.where(near_lo, band.theta_lo, band.theta_hi), np.where(near_lo, from_lo, from_hi)


@dataclass(frozen=True)
class SpectralDensity:
    """Sampled density g of the spectral measure of a finite-support vector."""

    seq: PeriodicSeq
    u: dict[int, complex]
    bands: tuple[Band, ...]
    disc: Discriminant = field(repr=False)
    #: sampled (theta, g) pairs, one row each
    grid: np.ndarray = field(default_factory=lambda: np.empty((0, 2)), compare=False)
    total_mass: float = 0.0
    #: |mass at n nodes - mass at n/2 nodes|: an estimate of the quadrature error, not a bound
    quad_error_estimate: float = 0.0

    def at(self, edges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """g at theta = edge + offset, for band edges and steps from them into their bands."""
        return _density_at(self.disc, step_coeffs(self.seq.values), self.u, edges, offsets)

    def __call__(self, theta: float) -> float:
        """g at one point, anchored at the nearer edge of its band; 0 off the bands."""
        theta %= TWO_PI
        band = next((b for b in self.bands if b.contains(theta)), None)
        if band is None:
            return 0.0
        return float(self.at(*_nearest_edge(band, np.array([theta]), np.zeros(1)))[0])

    def to_json(self) -> dict:
        return {
            "mass": self.total_mass,
            "error_estimate": self.quad_error_estimate,
            "amplitude_factor": AMPLITUDE_FACTOR,
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
    steps = step_coeffs(seq.values)
    samples = []
    mass = 0.0
    mass_coarse = 0.0
    for b in bs.bands:
        edges, offsets, weights = graded_pairs(b.theta_lo, b.theta_hi, n, 2)
        e2, o2, w2 = graded_pairs(b.theta_lo, b.theta_hi, max(8, n // 2), 2)
        # the band's n fine and n/2 coarse nodes in one pass
        vals = _density_at(bs.disc, steps, u, np.concatenate([edges, e2]),
                           np.concatenate([offsets, o2]))
        fine, coarse = vals[:len(weights)], vals[len(weights):]
        mass += float(np.dot(fine, weights))
        mass_coarse += float(np.dot(coarse, w2))
        samples.append(np.column_stack([edges + offsets, fine]))
    return SpectralDensity(
        seq,
        u,
        bs.bands,
        bs.disc,
        grid=np.concatenate(samples),
        total_mass=mass,
        quad_error_estimate=abs(mass - mass_coarse),
    )


def lt_integral(
    field: EdgeField,
    bands: tuple[Band, ...],
    t: float,
    n: int = 64,
) -> tuple[float, float]:
    """Integral of |field|^t over the bands, with an error estimate from refinement.

    t must lie strictly in (1, 2): the integrand grows like dist^{-t/2} at band
    edges, integrable only below t = 2.  field takes each band's graded nodes in
    one call, as (edges, offsets): near t = 2, edge + offset rounds onto the edge.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    m = grading_exponent(t)

    def run(nodes: int) -> float:
        total = 0.0
        for b in bands:
            edges, offsets, weights = graded_pairs(b.theta_lo, b.theta_hi, nodes, m)
            total += float(np.dot(np.abs(field(edges, offsets)) ** t, weights))
        return total

    fine = run(n)
    coarse = run(max(8, n // 2))
    return fine, abs(fine - coarse)


#: quadrature nodes per half-interval for density_distance
_DISTANCE_NODES = 48

#: nodes times period per batch of _density_at; bounds its O(N q) temporaries,
#: to about 0.7 MiB at q = 8
_BATCH_SIZE = 1 << 11


def _density_at(
    disc: Discriminant,
    steps: np.ndarray,
    u: Mapping[int, complex],
    edges: np.ndarray,
    offsets: np.ndarray,
) -> np.ndarray:
    """The density of u at theta = edge + offset, for all nodes in one numpy pass.

    disc and steps are the discriminant and step_coeffs of one sequence, each
    edge a band edge of it and each offset the signed step from that edge into
    the band.  psi and V come from floquet._equilibrium_at, and the amplitudes
    from the Floquet solutions at psi.
    """
    psi, v = _equilibrium_at(disc, edges, offsets)
    phi = _floquet_solutions(steps, np.exp(1j * (edges + offsets)), psi)
    return _amplitude_sum(phi, psi, u) * v


def _floquet_solutions(steps: np.ndarray, z: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The two Floquet solutions at each of N points z, shape (q, 2, N).

    steps are the step_coeffs of one sequence and psi the Floquet phase at
    each z.  (u_1, u_2) is the eigenvector of the monodromy A_{q-1} ... A_1
    for lam = e^{+/- i psi} (axis 1); the partial products give u_1 .. u_q,
    and u_0 = u_q / lam.  Each solution is normalized over one period.  Of
    the eigenvector candidates (b, lam - a) and (lam - d, c), which both solve
    (T - lam) v = 0, the longer one is kept; both vanish only when the
    monodromy equals lam I, where the Floquet solutions are not determined.
    """
    # the transfer matrices, shape (q/2, 2, 2, N), and the partial products before
    # each step; 2x2 products are spelled out, since stacked matmul is about ten
    # times slower on 2x2 blocks
    A = transfer_at(steps, z)
    partial = np.empty_like(A)
    mono = np.eye(2, dtype=complex)[:, :, None] * np.ones(len(z))
    for j in range(len(steps)):
        partial[j] = mono
        mono = A[j, :, :1] * mono[0] + A[j, :, 1:] * mono[1]

    # monodromy eigenvectors (x, y) for lam = e^{+/- i psi}, shape (2, N)
    lam = np.exp(1j * np.multiply.outer([1.0, -1.0], psi))
    (a, b), (c, d) = mono
    first = np.abs(b) ** 2 + np.abs(lam - a) ** 2
    second = np.abs(lam - d) ** 2 + np.abs(c) ** 2
    if not np.all(np.maximum(first, second) > 0):
        raise EdgeProximityError(
            "the monodromy equals +/-I at a node; the Floquet solutions are not determined"
        )
    use_second = second > first
    x = np.where(use_second, lam - d, b)
    y = np.where(use_second, c, lam - a)

    rows = (partial[:, :, :1] * x + partial[:, :, 1:] * y).reshape(2 * len(steps), 2, -1)
    phi = np.empty_like(rows)
    phi[1:] = rows[:-1]
    phi[0] = rows[-1] / lam
    phi /= np.sqrt((phi.real**2 + phi.imag**2).sum(axis=0))
    return phi


def _amplitude_sum(phi: np.ndarray, psi: np.ndarray, u: Mapping[int, complex]) -> np.ndarray:
    """|U u|^2 summed over the two solutions phi of _floquet_solutions, per point.

    The transform is sqrt(q/2) sum_n conj(phi_n) u_n, with
    phi_{j + l q} = e^{+/- i l psi} phi_j.
    """
    q = len(phi)
    sites = np.array(list(u), dtype=int)
    l, j = np.divmod(sites, q)
    values = np.array(list(u.values()), dtype=complex)
    ext = phi[j] * np.exp(1j * np.multiply.outer(l, [1.0, -1.0])[:, :, None] * psi)
    amp = np.einsum("skn,s->kn", ext.conj(), values)
    return 0.5 * q * (np.abs(amp) ** 2).sum(axis=0)


def density_distance(
    seq_a: PeriodicSeq,
    seq_b: PeriodicSeq,
    u: Mapping[int, complex],
    t: float,
) -> float:
    """Integral of |g_a - g_b|^t over the union of the two band sets.

    Each density is evaluated at its own period and vanishes off its own
    bands.  The union is cut at every band edge of either; each piece gets
    edge-graded nodes, and every node is handed to each density as an offset
    from that density's nearest band edge, so no node rounds onto an edge.
    Returns the raw integral; take the 1/t power for the metric form.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    structures = [band_structure(s, compute_masses=False) for s in (seq_a, seq_b)]
    cuts = sorted({e % TWO_PI for bs in structures for b in bs.bands
                   for e in (b.theta_lo, b.theta_hi)})
    m = grading_exponent(t)
    weights = []
    # per density: the pieces on its bands, and each node's nearest edge and offset from it
    on_bands = [([], [], []) for _ in structures]
    for i, lo in enumerate(cuts):
        hi = cuts[i + 1] if i + 1 < len(cuts) else cuts[0] + TWO_PI
        if hi - lo < 1e-13:
            continue
        mid = 0.5 * (lo + hi)
        anchors, signed, w = graded_pairs(lo, hi, _DISTANCE_NODES, m)
        for bs, (pieces, edges, offs) in zip(structures, on_bands):
            band = next((b for b in bs.bands if b.contains(mid)), None)
            if band is None:
                continue
            pieces.append(len(weights))
            edge, offset = _nearest_edge(band, anchors, signed)
            edges.append(edge)
            offs.append(offset)
        weights.append(w)
    g = np.zeros((len(structures), len(weights), 2 * _DISTANCE_NODES))
    for gx, seq, bs, (pieces, edges, offs) in zip(g, (seq_a, seq_b), structures, on_bands):
        steps = step_coeffs(seq.values)
        chunk = max(1, _BATCH_SIZE // (bs.q * g.shape[2]))
        for start in range(0, len(pieces), chunk):
            part = slice(start, start + chunk)
            vals = _density_at(bs.disc, steps, u, np.ravel(edges[part]), np.ravel(offs[part]))
            gx[pieces[part]] = vals.reshape(-1, g.shape[2])
    return float(np.sum(np.array(weights) * np.abs(g[0] - g[1]) ** t))
