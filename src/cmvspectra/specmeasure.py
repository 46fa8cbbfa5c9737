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
nodes of a band at once.  `SpectralDensity.__call__` and `density_distance`
take each point's band and nearer edge from `BandStructure._locate`, the
call for its one point, the distance for the midpoint of each piece between
band edges.  `SpectralDensity.at` is the one density
evaluator: `density`, `density_distance` and the pointwise call all go
through it.

Amplitude convention: the transform of a finite-support vector u is taken as
sqrt(q/2) * sum_n conj(phi_n) u_n, with phi normalized over one period.  With
this normalization the total mass of the density reproduces ||u||^2 (checked
by the test suite); the declared factor is recorded in the density report
metadata.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
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
    val = disc.eval_real(cmath.phase(z))
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


def floquet_solution(seq: PeriodicSeq, z: complex) -> FloquetSolution:
    """The two quasiperiodic solutions at z on the spectrum, normalized over one period."""
    psi = psi_of(z, discriminant(seq))
    phi = _floquet_solutions(step_coeffs(seq.values), np.array([z]), np.array([psi]))
    return FloquetSolution(complex(z), psi, phi[:, 0, 0], phi[:, 1, 0])


#: a density on the bands, evaluated at theta = edge + offset for arrays of band edges and offsets
EdgeField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def equilibrium_density(bs: BandStructure) -> EdgeField:
    """The equilibrium density V = |dpsi/dtheta| / (q pi), as a function of (edges, offsets)."""
    return lambda edges, offsets: _equilibrium_at(bs.disc, edges, offsets)[1]


def _source_vector(u: Mapping[int, complex]) -> dict[int, complex]:
    """u as {site: value}; raises ValueError if it is empty or a value is not finite."""
    u = {int(n): complex(v) for n, v in u.items()}
    if not u:
        raise ValueError("source vector must have nonempty support")
    if not all(cmath.isfinite(v) for v in u.values()):
        raise ValueError("source vector values must be finite")
    return u


@dataclass(frozen=True)
class SpectralDensity:
    """Density g of the spectral measure of a finite-support vector u.

    structure is seq's band structure, whose bands and disc the density reads;
    density() also samples g at its fine nodes and integrates its mass.
    """

    seq: PeriodicSeq
    u: dict[int, complex]
    structure: BandStructure = field(repr=False)
    #: g at density()'s fine nodes, band by band in angular order; grid pairs each with its theta
    samples: np.ndarray = field(default_factory=lambda: np.empty(0), compare=False)
    total_mass: float = 0.0
    #: |mass at n nodes - mass at n/2 nodes|: an estimate of the quadrature error, not a bound
    quad_error_estimate: float = 0.0

    @functools.cached_property
    def _steps(self) -> np.ndarray:
        return step_coeffs(self.seq.values)

    @property
    def bands(self) -> tuple[Band, ...]:
        return self.structure.bands

    @property
    def disc(self) -> Discriminant:
        return self.structure.disc

    @property
    def grid(self) -> np.ndarray:
        """The sampled (theta, g) pairs, one row each: theta is rebuilt from the bands.

        density() gives each band of positive width 2n graded nodes, which
        fixes n, and the same graded_pairs call gives the same theta.
        """
        if not len(self.samples):
            return np.empty((0, 2))
        ends = list(zip(*self.structure._band_ends()))
        n = len(self.samples) // (2 * sum(hi > lo for lo, hi in ends))
        nodes = [graded_pairs(lo, hi, n, 2) for lo, hi in ends]
        return np.column_stack([np.concatenate([e + o for e, o, _ in nodes]), self.samples])

    def at(self, edges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """g at theta = edge + offset, for band edges and steps from them into their bands.

        All nodes go in one numpy pass: psi and V come from
        floquet._equilibrium_at, and the amplitudes from the Floquet solutions
        at psi.
        """
        psi, v = _equilibrium_at(self.disc, edges, offsets)
        phi = _floquet_solutions(self._steps, np.exp(1j * (edges + offsets)), psi)
        return _amplitude_sum(phi, psi, self.u) * v

    def __call__(self, theta: float) -> float:
        """g at one point, anchored at the nearer edge of its band; 0 off the bands."""
        if not math.isfinite(theta):
            raise ValueError(f"theta must be finite, got {theta}")
        on_band, edge, offset = self.structure._locate(np.array([theta]))
        return float(self.at(edge, offset)[0]) if on_band[0] else 0.0

    def to_json(self) -> dict:
        return {
            "mass": self.total_mass,
            "error_estimate": self.quad_error_estimate,
            "amplitude_factor": AMPLITUDE_FACTOR,
            "bands": [[b.theta_lo, b.theta_hi] for b in self.bands],
        }


def density(seq: PeriodicSeq, u: Mapping[int, complex], n: int = 64) -> SpectralDensity:
    """Spectral density of u with per-band edge-graded sampling and its total mass."""
    u = _source_vector(u)
    bs = band_structure(seq, compute_masses=False)
    d = SpectralDensity(seq, u, bs)
    samples = []
    mass = 0.0
    mass_coarse = 0.0
    # the band ends as floats, so the density keeps no Band objects
    for lo, hi in zip(*bs._band_ends()):
        edges, offsets, weights = graded_pairs(lo, hi, n, 2)
        e2, o2, w2 = graded_pairs(lo, hi, max(8, n // 2), 2)
        # the band's n fine and n/2 coarse nodes in one pass
        vals = d.at(np.concatenate([edges, e2]), np.concatenate([offsets, o2]))
        fine, coarse = vals[:len(weights)], vals[len(weights):]
        mass += float(np.dot(fine, weights))
        mass_coarse += float(np.dot(coarse, w2))
        samples.append(fine)
    return replace(d, samples=np.concatenate(samples), total_mass=mass,
                   quad_error_estimate=abs(mass - mass_coarse))


#: quadrature nodes per half-band for lt_integral; its error estimate halves them
_LT_NODES = 64


def lt_integral(field: EdgeField, bands: tuple[Band, ...], t: float) -> tuple[float, float]:
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

    fine = run(_LT_NODES)
    coarse = run(_LT_NODES // 2)
    return fine, abs(fine - coarse)


#: quadrature nodes per half-interval for density_distance
_DISTANCE_NODES = 48

#: nodes times period per batch of SpectralDensity.at; bounds its O(N q) temporaries,
#: to about 0.7 MiB at q = 8
_BATCH_SIZE = 1 << 11


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


def density_distance(a: SpectralDensity, b: SpectralDensity, t: float) -> float:
    """Integral of |g_a - g_b|^t over the union of the two band sets.

    Each density is evaluated at its own period, from the bands and
    discriminant it holds, and vanishes off its own bands.  The union is cut
    at every band edge of either; each piece gets edge-graded nodes, and every
    node is handed to each density as an offset from that density's nearest
    band edge, so no node rounds onto an edge.  Returns the raw integral; take
    the 1/t power for the metric form.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    densities = (a, b)
    cuts = np.array(sorted({e % TWO_PI for d in densities
                            for ends in d.structure._band_ends() for e in ends}))
    lo, hi = cuts, np.append(cuts[1:], cuts[0] + TWO_PI)
    keep = hi - lo >= 1e-13
    lo, hi = lo[keep], hi[keep]
    m = grading_exponent(t)
    anchors, signed, weights = map(np.array, zip(*(
        graded_pairs(*piece, _DISTANCE_NODES, m) for piece in zip(lo.tolist(), hi.tolist()))))
    # per density: the pieces on its bands, found at their midpoints, and each
    # node's nearest edge and offset from it
    mids = 0.5 * (lo + hi)
    g = np.zeros((len(densities),) + weights.shape)
    for gx, d in zip(g, densities):
        on_band, edges, offsets = d.structure._locate(mids[:, None], anchors, signed)
        pieces = np.flatnonzero(on_band)
        chunk = max(1, _BATCH_SIZE // (d.disc.q * g.shape[2]))
        for start in range(0, len(pieces), chunk):
            part = pieces[start:start + chunk]
            gx[part] = d.at(edges[part].ravel(), offsets[part].ravel()).reshape(len(part), -1)
    return float(np.sum(weights * np.abs(g[0] - g[1]) ** t))
