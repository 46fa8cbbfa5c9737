"""Floquet theory for periodic Verblunsky coefficients.

The q x q restriction of the extended CMV operator to phase-quasiperiodic
vectors (u_{m+q} = e^{iT} u_m) is unitary; its eigenvalues are the circle
points where the discriminant equals 2 cos(T).  Band edges are the
eigenangles at phases 0 and pi, which a normal-matrix eigensolve delivers to
near machine precision; this is what lets the construction iterations certify
gaps far below any sampling grid's resolution.  The discriminant itself is
recovered from the characteristic polynomial at phase pi/2, where the cosine
term drops out.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import integrate_graded
from .cmv import band_columns, band_rows
from .coeffs import PeriodicSeq

TWO_PI = 2.0 * math.pi

#: gaps narrower than this chord distance count as closed
CLOSED_GAP_CHORD = 1e-9


class BandDiagnosticError(RuntimeError):
    """Band bookkeeping came out inconsistent (wrong counts or misclassified arcs)."""


class AllGapsClosedError(RuntimeError):
    """min_gap was asked for but the spectrum has no open gap."""


@dataclass(frozen=True)
class FloquetMatrix:
    q: int
    theta: float
    entries: np.ndarray


# depends only on q; rebuilding it on every call adds about half to the cost of a small-q fold
@functools.lru_cache(maxsize=64)
def _fold_index(q: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = band_columns(q)
    return rows, cols % q


def floquet_matrix(seq: PeriodicSeq, theta: float) -> FloquetMatrix:
    """Restriction of E = L M to vectors with u_{m+q} = e^{i theta} u_m.

    Rows 0..q-1 come from their band storage.  Only the wrap block of M, on
    rows and columns (q-1, q), reaches across the period: it weights column -1
    of rows 0, 1 by e^{-i theta} and column q of rows q-2, q-1 by e^{i theta}
    before the columns are folded mod q.
    """
    v = seq.values
    q = len(v)
    S = band_rows(v[-1:] + v + v[:1])
    S[:2, 0] *= cmath.exp(-1j * theta)
    S[-2:, 3] *= cmath.exp(1j * theta)
    if q == 2:
        # both wraps land in the one 2x2 block: columns -1, 1 and 0, 2 coincide
        B = S[:, 1:3] + S[:, 3::-3]
    else:
        B = np.zeros((q, q), dtype=complex)
        B[_fold_index(q)] = S.ravel()
    return FloquetMatrix(q, float(theta), B)


@dataclass(frozen=True)
class Discriminant:
    """Laurent polynomial z^{-q/2} .. z^{q/2}, real-valued on the unit circle."""

    q: int
    laurent_coeffs: np.ndarray  # index j corresponds to power j - q/2
    rho_product: float

    def eval(self, z: complex) -> complex:
        h = self.q // 2
        return sum(self.laurent_coeffs[j] * z ** (j - h) for j in range(self.q + 1))

    def eval_real(self, theta: float) -> float:
        return self.eval(np.exp(1j * theta)).real

    def imag_defect(self, theta: float) -> float:
        return abs(self.eval(np.exp(1j * theta)).imag)

    def deriv_real(self, theta: float) -> float:
        """d/dtheta of the (real) circle restriction."""
        h = self.q // 2
        z = np.exp(1j * theta)
        val = sum(
            self.laurent_coeffs[j] * 1j * (j - h) * z ** (j - h) for j in range(self.q + 1)
        )
        return val.real


def discriminant(seq: PeriodicSeq) -> Discriminant:
    """Recover the discriminant from det(z - E_q(pi/2)) by interpolation at roots of unity."""
    q = seq.period
    E = floquet_matrix(seq, math.pi / 2.0).entries
    npts = q + 1
    omegas = np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = np.array([np.linalg.det(w * np.eye(q) - E) for w in omegas])
    # inverse DFT: char poly coefficients c_0..c_q (degree q, monic)
    js = np.arange(npts)
    coeffs = np.array([(vals * omegas ** (-j)).sum() / npts for j in js])
    rho_prod = seq.rho_product()
    return Discriminant(q, coeffs / rho_prod, rho_prod)


@dataclass(frozen=True)
class Band:
    """Closed arc [theta_lo, theta_lo + width] of the unit circle."""

    theta_lo: float
    theta_hi: float  # theta_lo + width; may exceed 2*pi
    increasing: bool  # discriminant rises from -2 to 2 across the arc
    mass: float = 0.0

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    def contains(self, theta: float) -> bool:
        """Whether the circle point e^{i theta} lies on the arc."""
        return (theta - self.theta_lo) % TWO_PI <= (self.theta_hi - self.theta_lo) % TWO_PI


@dataclass(frozen=True)
class Gap:
    theta_lo: float
    theta_hi: float

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

    @property
    def chord(self) -> float:
        return abs(np.exp(1j * self.theta_hi) - np.exp(1j * self.theta_lo))

    @property
    def closed(self) -> bool:
        return self.chord <= CLOSED_GAP_CHORD


@dataclass(frozen=True)
class BandStructure:
    q: int
    bands: tuple[Band, ...]
    gaps: tuple[Gap, ...]
    disc: Discriminant = field(repr=False)

    @property
    def band_masses(self) -> tuple[float, ...]:
        return tuple(b.mass for b in self.bands)

    def total_band_measure(self) -> float:
        return sum(b.width for b in self.bands)

    def open_gap_count(self) -> int:
        return sum(1 for g in self.gaps if not g.closed)


def _edge_angles(seq: PeriodicSeq, theta: float) -> np.ndarray:
    vals = np.linalg.eigvals(floquet_matrix(seq, theta).entries)
    return np.sort(np.angle(vals) % TWO_PI)


def _polish_edge(disc: Discriminant, theta: float, target: float) -> float:
    """Newton polish of a transversal discriminant crossing; skipped near tangencies."""
    for _ in range(2):
        d = disc.deriv_real(theta)
        if abs(d) < 1e-6:
            return theta
        step = (disc.eval_real(theta) - target) / d
        if abs(step) > 1e-3:
            return theta
        theta -= step
    return theta


def band_structure(seq: PeriodicSeq, compute_masses: bool = True) -> BandStructure:
    """Bands and gaps from the eigenangles of the phase-0 and phase-pi restrictions."""
    q = seq.period
    disc = discriminant(seq)
    plus = [(a % TWO_PI, +1) for a in _edge_angles(seq, 0.0)]
    minus = [(a % TWO_PI, -1) for a in _edge_angles(seq, math.pi)]
    edges = sorted(plus + minus, key=lambda e: e[0])
    if len(edges) != 2 * q:
        raise BandDiagnosticError(f"expected {2 * q} band edges, found {len(edges)}")

    bands: list[Band] = []
    gaps: list[Gap] = []
    for i in range(2 * q):
        a_lo, t_lo = edges[i]
        a_hi, t_hi = edges[(i + 1) % (2 * q)]
        if i + 1 == 2 * q:
            a_hi += TWO_PI
        if t_lo != t_hi:
            lo = _polish_edge(disc, a_lo, 2.0 * t_lo)
            hi = _polish_edge(disc, a_hi, 2.0 * t_hi)
            if hi < lo:  # polish must not reorder; fall back to raw angles
                lo, hi = a_lo, a_hi
            bands.append(Band(lo, hi, increasing=(t_lo < 0)))
        else:
            gaps.append(Gap(a_lo, a_hi))
    if len(bands) != q or len(gaps) != q:
        raise BandDiagnosticError(
            f"band/gap count mismatch: {len(bands)} bands, {len(gaps)} gaps for period {q}"
        )
    # sanity: open gap interiors must lie outside the spectrum
    for g in gaps:
        if not g.closed and g.width > 1e-7:
            mid = 0.5 * (g.theta_lo + g.theta_hi)
            if abs(disc.eval_real(mid)) < 2.0 - 1e-7:
                raise BandDiagnosticError("gap midpoint classified inside the spectrum")
    if compute_masses:
        bands = [
            Band(b.theta_lo, b.theta_hi, b.increasing, mass=band_mass(disc, b))
            for b in bands
        ]
    return BandStructure(q, tuple(bands), tuple(gaps), disc)


#: roundoff floor for 1 - (Delta/2)^2; below this the computed value is noise
_S_FLOOR = 1e-15


def density_factor(disc: Discriminant, theta: float) -> float:
    """|dpsi/dtheta| / (q pi), evaluated with a roundoff floor on 1 - (Delta/2)^2.

    Within ~1e-8 of a band edge the cancellation in 1 - (Delta/2)^2 leaves pure
    roundoff; clamping at the floor keeps the value finite there.  At tangency
    edges (closed gaps) the derivative vanishes at the same rate, so the true
    density is finite and the clamped value stays near it.
    """
    half = 0.5 * disc.eval_real(theta)
    s = max(1.0 - half * half, _S_FLOOR)
    return abs(disc.deriv_real(theta)) / (2.0 * math.sqrt(s) * disc.q * math.pi)


def band_mass(disc: Discriminant, band: Band, n: int = 96) -> float:
    """Equilibrium mass of one band: integral of |dpsi/dtheta| / (q pi)."""
    return integrate_graded(
        lambda theta: density_factor(disc, theta), band.theta_lo, band.theta_hi, n=n, m=2
    )


def eigenangles(seq: PeriodicSeq, theta: float, bs: BandStructure | None = None) -> list[float]:
    """The q spectrum points of E_q(theta), one per band, via in-band bisection."""
    if bs is None:
        bs = band_structure(seq, compute_masses=False)
    disc = bs.disc
    target = 2.0 * math.cos(theta)
    out = []
    for band in bs.bands:
        lo, hi = band.theta_lo, band.theta_hi
        f_lo = disc.eval_real(lo) - target
        f_hi = disc.eval_real(hi) - target
        if f_lo == 0.0 or abs(f_lo) < 1e-13:
            out.append(lo % TWO_PI)
            continue
        if f_hi == 0.0 or abs(f_hi) < 1e-13:
            out.append(hi % TWO_PI)
            continue
        if f_lo * f_hi > 0:
            # target at or beyond an edge value; clamp to the nearer edge
            out.append((lo if abs(f_lo) < abs(f_hi) else hi) % TWO_PI)
            continue
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            f_mid = disc.eval_real(mid) - target
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        out.append((0.5 * (lo + hi)) % TWO_PI)
    return sorted(out)


def min_gap(bs: BandStructure) -> float:
    """Smallest chord width over the open gaps; error if every gap is closed."""
    open_gaps = [g.chord for g in bs.gaps if not g.closed]
    if not open_gaps:
        raise AllGapsClosedError("all gaps are closed; no minimal open gap exists")
    return min(open_gaps)
