"""Floquet theory for periodic Verblunsky coefficients.

The q x q restriction of the extended CMV operator to phase-quasiperiodic
vectors (u_{m+q} = e^{iT} u_m) is unitary; its eigenvalues are the circle
points where the discriminant equals 2 cos(T).  Band edges are the
eigenangles at phases 0 and pi, which a normal-matrix eigensolve delivers to
near machine precision; this is what lets the construction iterations certify
gaps far below any sampling grid's resolution.  The angles are used as
returned: a Newton step on the discriminant would divide its roundoff by
|Delta'|, which vanishes at exactly those narrow gaps.

The discriminant is the trace of the monodromy, the product
A_{q-1} ... A_3 A_1 of the two-step transfer matrices over one period (Simon,
OPUC Part 2, ch. 11), multiplied out from their coefficients in z
(`transfer.step_coeffs`); a `Discriminant` is just that Laurent polynomial.
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
from .transfer import step_coeffs

TWO_PI = 2.0 * math.pi

#: gaps narrower than this chord distance count as closed
CLOSED_GAP_CHORD = 1e-9


class BandDiagnosticError(RuntimeError):
    """Band bookkeeping came out inconsistent (wrong counts or misclassified arcs)."""


class AllGapsClosedError(RuntimeError):
    """min_gap was asked for but the spectrum has no open gap."""


# depends only on q; rebuilding it on every call adds about half to the cost of a small-q fold
@functools.lru_cache(maxsize=64)
def _fold_index(q: int) -> tuple[np.ndarray, np.ndarray]:
    rows, cols = band_columns(q)
    return rows, cols % q


def floquet_matrix(seq, theta) -> np.ndarray:
    """Restriction of E = L M to vectors with u_{m+q} = e^{i theta} u_m.

    seq is a PeriodicSeq or a (..., q) stack of periods, and theta a phase or
    an array of phases; their leading axes broadcast, giving (..., q, q).
    Rows 0..q-1 come from their band storage.  Only the wrap block of M, on
    rows and columns (q-1, q), reaches across the period: it weights column -1
    of rows 0, 1 by e^{-i theta} and column q of rows q-2, q-1 by e^{i theta}
    before the columns are folded mod q.
    """
    v = np.asarray(seq.values if isinstance(seq, PeriodicSeq) else seq, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    q = v.shape[-1]
    S = band_rows(np.concatenate((v[..., -1:], v, v[..., :1]), axis=-1))
    shape = np.broadcast_shapes(theta.shape, S.shape[:-2]) + S.shape[-2:]
    if S.shape != shape:
        S = np.broadcast_to(S, shape).copy()
    S[..., :2, 0] *= np.exp(-1j * theta)[..., None]
    S[..., -2:, 3] *= np.exp(1j * theta)[..., None]
    if q == 2:
        # both wraps land in the one 2x2 block: columns -1, 1 and 0, 2 coincide
        return S[..., 1:3] + S[..., 3::-3]
    B = np.zeros(S.shape[:-2] + (q, q), dtype=complex)
    B[(...,) + _fold_index(q)] = S.reshape(S.shape[:-2] + (-1,))
    return B


@dataclass(frozen=True)
class Discriminant:
    """Laurent polynomial z^{-q/2} .. z^{q/2}, real-valued on the unit circle."""

    q: int
    laurent_coeffs: np.ndarray  # index j corresponds to power j - q/2

    @functools.cached_property
    def _powers(self) -> np.ndarray:
        return np.arange(self.q + 1) - self.q // 2

    @functools.cached_property
    def _deriv_coeffs(self) -> np.ndarray:
        return 1j * self._powers * self.laurent_coeffs

    def eval(self, z: complex) -> complex:
        return np.dot(self.laurent_coeffs, z ** self._powers)

    def eval_real(self, theta: float) -> float:
        return self.eval(np.exp(1j * theta)).real

    def imag_defect(self, theta: float) -> float:
        return abs(self.eval(np.exp(1j * theta)).imag)

    def deriv_real(self, theta: float) -> float:
        """d/dtheta of the (real) circle restriction."""
        return np.dot(self._deriv_coeffs, np.exp(1j * theta) ** self._powers).real


def discriminant(seq: PeriodicSeq) -> Discriminant:
    """Trace of the monodromy, multiplied out as a Laurent polynomial in z."""
    mono = np.eye(2, dtype=complex)[None]  # Laurent coefficients, lowest power first
    for c in step_coeffs(seq.values):
        m = len(mono)
        nxt = np.zeros((m + 2, 2, 2), dtype=complex)
        nxt[:m] += c[0] @ mono
        nxt[1:-1] += c[1] @ mono
        nxt[2:] += c[2] @ mono
        mono = nxt
    return Discriminant(seq.period, mono[:, 0, 0] + mono[:, 1, 1])


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


def arc_chord(theta_lo: np.ndarray, theta_hi: np.ndarray) -> np.ndarray:
    """|e^{i theta_hi} - e^{i theta_lo}|, elementwise.

    Taken with hypot: np.abs of a complex array may take a SIMD path that
    differs from the scalar abs in the last bit, while hypot matches it, so a
    chord is the same number alone and across a stack.
    """
    d = np.exp(1j * theta_hi) - np.exp(1j * theta_lo)
    return np.hypot(d.real, d.imag)


@dataclass(frozen=True)
class Gap:
    theta_lo: float
    theta_hi: float
    chord: float  # arc_chord of the two ends

    @property
    def width(self) -> float:
        return self.theta_hi - self.theta_lo

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


def label_arcs(
    plus: np.ndarray, minus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut the circle at the phase-0 angles plus and phase-pi angles minus, each (..., q).

    Returns (lo, hi, band, rising), each (..., 2q) and in angular order: arc i
    runs from lo[i] to hi[i], the last one past 2 pi.  An arc between a
    phase-0 and a phase-pi angle is a band, one between two angles of the same
    phase is a gap; rising marks the arcs that start at a phase-pi angle,
    across which a band's discriminant rises from -2 to 2.  Equal angles keep
    phase 0 first.
    """
    q = plus.shape[-1]
    angles = np.concatenate((plus, minus), axis=-1)
    lo = np.sort(angles, axis=-1)
    hi = np.concatenate((lo[..., 1:], lo[..., :1] + TWO_PI), axis=-1)
    rising = np.argsort(angles, axis=-1, kind="stable") >= q
    band = rising != np.concatenate((rising[..., 1:], rising[..., :1]), axis=-1)
    counts = np.count_nonzero(band, axis=-1)
    if np.any(counts != q):
        n = int(counts[counts != q].flat[0])
        raise BandDiagnosticError(
            f"band/gap count mismatch: {n} bands, {2 * q - n} gaps for period {q}"
        )
    return lo, hi, band, rising


def gap_chords(values: np.ndarray) -> np.ndarray:
    """Chords of the q gaps of each period in an (N, q) stack, in angular order: (N, q).

    Every period is folded at phases 0 and pi in one pass, and all 2N
    restrictions go through one eigensolve.  These are band_structure's gaps
    without the discriminant, so without its midpoint check: the cheap screen
    for many candidate periods at once.
    """
    plus, minus = eigenangles(values, np.array([[0.0], [math.pi]]))
    lo, hi, band, _ = label_arcs(plus, minus)
    return arc_chord(lo[~band], hi[~band]).reshape(len(values), -1)


def band_structure(seq: PeriodicSeq, compute_masses: bool = True) -> BandStructure:
    """Bands and gaps from the eigenangles of the phase-0 and phase-pi restrictions.

    label_arcs cuts the circle at the 2q angles.  Each arc takes its endpoints
    straight from those angles, so every band shares both endpoints with its
    neighbouring gaps.
    """
    disc = discriminant(seq)
    lo, hi, band, rising = label_arcs(eigenangles(seq, 0.0), eigenangles(seq, math.pi))
    gap = ~band
    bands = [Band(a, b, bool(r)) for a, b, r in zip(lo[band], hi[band], rising[band])]
    gaps = [Gap(a, b, c) for a, b, c in zip(lo[gap], hi[gap], arc_chord(lo[gap], hi[gap]))]
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
    return BandStructure(seq.period, tuple(bands), tuple(gaps), disc)


#: roundoff floor for 1 - (Delta/2)^2; below this the computed value is noise
_S_FLOOR = 1e-15


def density_factor(disc: Discriminant, theta: float) -> float:
    """|dpsi/dtheta| / (q pi), evaluated with a roundoff floor on 1 - (Delta/2)^2.

    Within ~1e-8 of a band edge the cancellation in 1 - (Delta/2)^2 leaves pure
    roundoff; clamping at the floor keeps the value finite there, but not
    accurate.  At the touching point of a closed gap the true density is
    finite, yet both Delta' and 1 - (Delta/2)^2 are roundoff there, so the
    value collapses: for constant alpha = 0.5 it reads 8.2e-10 at theta = pi
    against 0.184 at pi +/- 1e-7.  specmeasure.density_distance evaluates
    next to edges in edge-relative form instead.
    """
    half = 0.5 * disc.eval_real(theta)
    s = max(1.0 - half * half, _S_FLOOR)
    return abs(disc.deriv_real(theta)) / (2.0 * math.sqrt(s) * disc.q * math.pi)


#: quadrature nodes per band for band_mass
_MASS_NODES = 96


def band_mass(disc: Discriminant, band: Band) -> float:
    """Equilibrium mass of one band: integral of |dpsi/dtheta| / (q pi)."""
    return integrate_graded(
        lambda theta: density_factor(disc, theta), band.theta_lo, band.theta_hi,
        n=_MASS_NODES, m=2,
    )


def eigenangles(seq, theta) -> np.ndarray:
    """The q spectrum points of E_q(theta), one per band: its sorted eigenangles.

    Takes the stacks floquet_matrix takes, in one eigensolve, giving (..., q).
    """
    vals = np.linalg.eigvals(floquet_matrix(seq, theta))
    return np.sort(np.angle(vals) % TWO_PI, axis=-1)


def min_gap(bs: BandStructure) -> float:
    """Smallest chord width over the open gaps; error if every gap is closed."""
    open_gaps = [g.chord for g in bs.gaps if not g.closed]
    if not open_gaps:
        raise AllGapsClosedError("all gaps are closed; no minimal open gap exists")
    return min(open_gaps)


def band_distance(bands: tuple[Band, ...], theta: float) -> float:
    """Chord distance from e^{i theta} to the union of the bands.

    Zero on a band; off the bands, the point lies in a gap, and the nearest
    spectrum point is one of that gap's two ends.
    """
    if any(b.contains(theta) for b in bands):
        return 0.0
    z = cmath.exp(1j * theta)
    return min(abs(z - cmath.exp(1j * t)) for b in bands for t in (b.theta_lo, b.theta_hi))


def spectrum_displacement(f: PeriodicSeq, g: PeriodicSeq) -> float:
    """Exact sup over the spectrum of E_f of the chord distance to the spectrum of E_g.

    On each g-gap that distance is a tent: zero at the gap's ends, peaking at
    its midpoint.  So on an f-band the sup is attained at one of the band's
    ends or at a g-gap midpoint inside it, at most 2 q_f + q_g points in all.
    """
    f_bands = band_structure(f, compute_masses=False).bands
    bs_g = band_structure(g, compute_masses=False)
    mids = (0.5 * (gap.theta_lo + gap.theta_hi) for gap in bs_g.gaps)
    points = [t for b in f_bands for t in (b.theta_lo, b.theta_hi)]
    points += [t for t in mids if any(b.contains(t) for b in f_bands)]
    return max(band_distance(bs_g.bands, t) for t in points)
