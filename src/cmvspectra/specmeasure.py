"""Spectral measures of periodic CMV operators.

Builds the two Floquet solutions at a spectrum point, the equilibrium density
V = |dpsi/dtheta| / (q pi), and the absolutely continuous density of the
spectral measure of a finitely supported vector.  The Floquet solutions are
the eigenvectors of the 2x2 monodromy for e^{+/- i psi}, propagated over one
period by the two-step transfer matrices (`transfer.transfer_products`).  One
batched kernel, `_floquet_solutions`, builds them unnormalized for N points
at once, with each one's norm over the period; `_sites` normalizes the sites
a caller reads, so `_amplitude_sum` divides only the sites of u, and
`floquet_solution` all q of them at N = 1, with psi from `psi_of`, which
reads Delta from the transfer product.

Every density takes its points as (band edge, offset into the band), with psi
and V from `floquet._equilibrium_at`, and `SpectralDensity.at` is the one
density evaluator.  Its band integrals, `density`, `lt_integral` and
`density_distance`, take edge-graded nodes, since V blows up like
dist^{-1/2} at band edges, by `_quad`'s one path and batching rule, which
bounds a call by the field's traced transient per node, its width: q for a
field that builds Floquet solutions, 4 for V alone.  The pointwise call and
`density_distance` place points with `BandStructure._locate`.

A density reads the sequence's coefficient table (`PeriodicSeq.values`, a
read-only 1-D complex128 array) only through step coefficients: its own,
for the Floquet solutions, and its discriminant's Laurent form.  What it
keeps is O(q): the sequence, the band structure, those two, and, from
`density`, the node count n and the mass, not g at the nodes;
`SpectralDensity.grid` evaluates g at those nodes again on read.

Amplitude convention: the transform of a finite-support vector u is taken as
sqrt(q/2) * sum_n conj(phi_n) u_n, with phi normalized over one period.  With
this normalization the total mass of the density reproduces ||u||^2 (checked
by the test suite); the declared factor is recorded in the density report
metadata.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from ._quad import field_rows, graded_pairs, grading_exponent, refined_integral
from .coeffs import PeriodicSeq
from .floquet import (TWO_PI, Band, BandStructure, Discriminant, _equilibrium_at,
                      band_structure, discriminant)
# unused here; perfbench/tests asserts that the span tracer patches this binding
from .floquet import floquet_matrix  # noqa: F401
from .transfer import step_coeffs, transfer_products

AMPLITUDE_FACTOR = "sqrt(q/2)"


class EdgeProximityError(RuntimeError):
    """The monodromy at z equals +/-I, so the two Floquet solutions are not determined."""


def psi_of(z: complex, disc: Discriminant) -> float:
    """Floquet phase arccos(Delta(z)/2) in [0, pi] for z on the spectrum."""
    val = float(disc.eval_monodromy(cmath.phase(z)))
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
    psi = np.array([psi_of(z, discriminant(seq))])
    rows, norm = _floquet_solutions(step_coeffs(seq.values), np.array([z]), psi)
    phi = _sites(rows, norm, psi, np.arange(seq.period))
    return FloquetSolution(complex(z), float(psi[0]), phi[:, 0, 0], phi[:, 1, 0])


#: a density on the bands, evaluated at theta = edge + offset for arrays of band edges and
#: offsets; it may declare its width, its transient per node (see _quad), as a width attribute
EdgeField = Callable[[np.ndarray, np.ndarray], np.ndarray]


def equilibrium_density(bs: BandStructure) -> EdgeField:
    """The equilibrium density V = |dpsi/dtheta| / (q pi), as a function of (edges, offsets).

    It declares width 4: V alone holds O(1) terms per node, a few sites' worth of the
    transient of a field that builds Floquet solutions.
    """
    def v(edges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        return _equilibrium_at(bs.disc, edges, offsets)[1]

    v.width = 4
    return v


def _check_exponent(t: float) -> None:
    """Raise ValueError unless the L^t exponent t lies strictly in (1, 2)."""
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")


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
    density() also integrates its mass at n graded nodes per half-band, and
    keeps n but not g at those nodes.
    """

    seq: PeriodicSeq
    u: dict[int, complex]
    structure: BandStructure = field(repr=False)
    #: graded nodes per half-band of density()'s mass, which grid evaluates; 0 if not integrated
    n: int = 0
    total_mass: float = 0.0
    #: |mass at n nodes - mass at n/2 nodes|: an estimate of the quadrature error, not a bound
    quad_error_estimate: float = 0.0

    @property
    def bands(self) -> tuple[Band, ...]:
        return self.structure.bands

    @property
    def disc(self) -> Discriminant:
        return self.structure.disc

    @cached_property
    def _floquet_steps(self) -> np.ndarray:
        """The step coefficients of seq, which at reads for the Floquet solutions."""
        return step_coeffs(self.seq.values)

    @property
    def grid(self) -> np.ndarray:
        """(theta, g) at density()'s fine nodes, one row each, band by band in angular order.

        Evaluated on every read and not kept: each band of positive width gets
        the 2n graded nodes of the same graded_pairs call that density() made,
        and g comes from at under the same batching rule, so the values are
        those its mass summed.  Empty for a density that density() did not
        integrate.
        """
        if not self.n:
            return np.empty((0, 2))
        lo, hi = self.structure._band_ends()
        edges, offsets, _ = graded_pairs(lo[hi > lo], hi[hi > lo], self.n, 2)
        g = field_rows(self.at, edges, offsets, self.disc.q)
        return np.column_stack([(edges + offsets).ravel(), g.ravel()])

    def at(self, edges: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """g at theta = edge + offset, for band edges and steps from them into their bands.

        All nodes go in one numpy pass: psi and V come from
        floquet._equilibrium_at, and the amplitudes from the Floquet solutions
        at psi.
        """
        psi, v = _equilibrium_at(self.disc, edges, offsets)
        rows, norm = _floquet_solutions(self._floquet_steps, np.exp(1j * (edges + offsets)), psi)
        return _amplitude_sum(rows, norm, psi, self.u) * v

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
    """Spectral density of u and its total mass at n >= 2 graded nodes per half-band."""
    if n < 2:
        raise ValueError(f"density needs n >= 2 nodes per half-band, its estimate n // 2; got {n}")
    u = _source_vector(u)
    bs = band_structure(seq, compute_masses=False)
    d = SpectralDensity(seq, u, bs)
    mass, error = refined_integral(d.at, *bs._band_ends(), n, 2, 1.0, bs.q)
    return replace(d, n=n, total_mass=mass, quad_error_estimate=error)


#: quadrature nodes per half-band for lt_integral; its error estimate halves them
_LT_NODES = 64


def lt_integral(field: EdgeField, bs: BandStructure, t: float) -> tuple[float, float]:
    """Integral of |field|^t over the bands of bs, t in (1, 2), and a refinement error estimate.

    The integrand grows like dist^{-t/2} at band edges, integrable only below
    t = 2; near it, edge + offset rounds onto the edge, so field takes both.
    field's calls are batched by the width it declares, as equilibrium_density
    declares 4; a field that declares none, such as SpectralDensity.at, is
    taken at q, the width of a field that builds Floquet solutions.
    """
    _check_exponent(t)
    m = grading_exponent(t)
    width = getattr(field, "width", bs.q)
    return refined_integral(field, *bs._band_ends(), _LT_NODES, m, t, width)


#: quadrature nodes per half-interval for density_distance
_DISTANCE_NODES = 48


def _eigenvalues(psi: np.ndarray) -> np.ndarray:
    """The monodromy eigenvalues lam = e^{+/- i psi} of each point, shape (2, N)."""
    return np.exp(1j * np.multiply.outer([1.0, -1.0], psi))


def _floquet_solutions(steps: np.ndarray, z: np.ndarray,
                       psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two Floquet solutions at each of N points z, unnormalized, and their period norms.

    steps are the step_coeffs of one sequence and psi the Floquet phase at
    each z.  (u_1, u_2) is the eigenvector of the monodromy A_{q-1} ... A_1
    for lam = e^{+/- i psi} (axis 1); the partial products give u_1 .. u_q,
    returned as rows, shape (q, 2, N), with u_q = lam u_0 last.  norm, shape
    (2, N), is each solution's norm over one period, its squares summed in
    site order 0 .. q - 1; _sites divides the sites a caller reads by it.  Of
    the eigenvector candidates (b, lam - a) and (lam - d, c), which both solve
    (T - lam) v = 0, the longer one is kept; both vanish only when the
    monodromy equals lam I, where the Floquet solutions are not determined.
    """
    # the partial products before each step, shape (q/2, 2, 2, N), and the monodromy
    products = transfer_products(steps, z)
    partial, mono = products[:-1], products[-1]

    # monodromy eigenvectors (x, y) for lam = e^{+/- i psi}, shape (2, N)
    lam = _eigenvalues(psi)
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
    # |u_j|^2 in site order, u_0 first, in one reduction
    head = rows[-1] / lam
    squares = np.empty(rows.shape)
    squares[0] = head.real**2 + head.imag**2
    np.square(rows[:-1].real, out=squares[1:])
    squares[1:] += np.square(rows[:-1].imag)
    return rows, np.sqrt(squares.sum(axis=0))


def _sites(rows: np.ndarray, norm: np.ndarray, psi: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The normalized Floquet solutions at sites j in [0, q), shape (len(j), 2, N).

    rows and norm are _floquet_solutions' at the phases psi; site j is
    rows[j - 1], and site 0, rows[-1] = lam u_0, is divided by lam.
    """
    phi = rows[j - 1]
    phi[j == 0] /= _eigenvalues(psi)
    phi /= norm
    return phi


def _amplitude_sum(rows: np.ndarray, norm: np.ndarray, psi: np.ndarray,
                   u: Mapping[int, complex]) -> np.ndarray:
    """|U u|^2 summed over the two Floquet solutions of _floquet_solutions, per point.

    The transform is sqrt(q/2) sum_n conj(phi_n) u_n, with
    phi_{j + l q} = e^{+/- i l psi} phi_j; only the sites of u are normalized.
    """
    q = len(rows)
    sites = np.array(list(u), dtype=int)
    l, j = np.divmod(sites, q)
    values = np.array(list(u.values()), dtype=complex)
    phase = np.exp(1j * np.multiply.outer(l, [1.0, -1.0])[:, :, None] * psi)
    ext = _sites(rows, norm, psi, j) * phase
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
    _check_exponent(t)
    densities = (a, b)
    cuts = np.unique(np.concatenate([e for d in densities for e in d.structure._band_ends()])
                     % TWO_PI)
    lo, hi = cuts, np.append(cuts[1:], cuts[0] + TWO_PI)
    keep = hi - lo >= 1e-13
    lo, hi = lo[keep], hi[keep]
    anchors, signed, weights = graded_pairs(lo, hi, _DISTANCE_NODES, grading_exponent(t))
    # per density: the pieces on its bands, found at their midpoints, and each
    # node's nearest edge and offset from it
    mids = 0.5 * (lo + hi)
    g = np.zeros((len(densities),) + weights.shape)
    for gx, d in zip(g, densities):
        on_band, edges, offsets = d.structure._locate(mids[:, None], anchors, signed)
        rows = on_band[:, 0]
        gx[rows] = field_rows(d.at, edges[rows], offsets[rows], d.disc.q)
    return float(np.sum(weights * np.abs(g[0] - g[1]) ** t))
