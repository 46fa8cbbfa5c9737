"""Floquet theory for periodic Verblunsky coefficients.

The q x q restriction of the extended CMV operator to phase-quasiperiodic
vectors (u_{m+q} = e^{iT} u_m) is unitary; its eigenvalues are the circle
points where the discriminant equals 2 cos(T).  Band edges are the
eigenangles at phases 0 and pi, which a normal-matrix eigensolve delivers to
near machine precision; this is what lets the construction iterations certify
gaps far below any sampling grid's resolution.  The angles are used as
returned: a Newton step on the discriminant would divide its roundoff by
|Delta'|, which vanishes at exactly those narrow gaps.  `band_arcs` labels
them into bands and gaps, for one period or a stack, and is the only place
band edges are derived.

The discriminant is the trace of the monodromy, the product
A_{q-1} ... A_3 A_1 of the two-step transfer matrices over one period (Simon,
OPUC Part 2, ch. 11), multiplied out from their coefficients in z
(`transfer.step_coeffs`); a `Discriminant` is just that Laurent polynomial.

The equilibrium density V = |dpsi/dtheta| / (q pi), psi = arccos(Delta / 2),
has one kernel, `_equilibrium_at`, which takes each point as (band edge,
offset) to stay accurate where V blows up; the band masses and every density
in `specmeasure` go through it.  It forms the exponentials e^{i k edge} once
per distinct edge, so a band's pass pays for its two edges, not for each node.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import graded_pairs
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


# one read-only array per period, shared by its discriminants rather than held by each
@functools.lru_cache(maxsize=64)
def _laurent_powers(q: int) -> np.ndarray:
    k = np.arange(q + 1) - q // 2
    k.flags.writeable = False
    return k


@dataclass(frozen=True, eq=False)
class Discriminant:
    """Laurent polynomial z^{-q/2} .. z^{q/2}, real-valued on the unit circle.

    Compared by identity: it is derived from a sequence, and the structures
    holding one compare that sequence's bands instead.
    """

    q: int
    laurent_coeffs: np.ndarray  # index j corresponds to power j - q/2

    @property
    def _powers(self) -> np.ndarray:
        return _laurent_powers(self.q)

    def _at(self, theta):
        """Delta(e^{i theta}), complex, at an angle or at each angle of an array of them."""
        # e^{i k theta} directly: z ** k leaves numpy's repeated squaring for |k| >= 100,
        # which makes it slower than this from q = 256 on
        return np.exp(1j * np.multiply.outer(theta, self._powers)) @ self.laurent_coeffs

    def eval_real(self, theta):
        """Re Delta(e^{i theta}) at an angle, or at each angle of an array of them."""
        return self._at(theta).real

    def imag_defect(self, theta: float) -> float:
        """|Im Delta(e^{i theta})|: zero in exact arithmetic, so a roundoff measure."""
        return abs(self._at(theta).imag)


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    disc: Discriminant = field(repr=False, compare=False)

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
    bad = counts != q
    if np.any(bad):
        n = int(counts[bad].flat[0])
        thin = np.count_nonzero((hi - lo)[bad][0] < CLOSED_GAP_CHORD)
        raise BandDiagnosticError(
            f"band/gap count mismatch: {n} bands, {2 * q - n} gaps for period {q}: the phase-0 "
            f"and phase-pi edges do not interlace, as {thin} of {2 * q} sorted edge spacings "
            f"are below {CLOSED_GAP_CHORD:g}; the bands are thinner than the eigensolve resolves"
        )
    return lo, hi, band, rising


def band_arcs(values) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """label_arcs of the phase-0 and phase-pi eigenangles of one period (q,) or a stack (N, q).

    Each phase is its own eigensolve: stacking the two would hold both sets of
    restrictions at once for no gain in accuracy.
    """
    return label_arcs(eigenangles(values, 0.0), eigenangles(values, math.pi))


def bands_and_gaps(
    lo: np.ndarray, hi: np.ndarray, band: np.ndarray, rising: np.ndarray
) -> tuple[list[Band], list[Gap]]:
    """The bands and the gaps among one period's arcs from band_arcs, each in angular order.

    Each cut is one float, shared by the band and the gap that meet there, so
    a band structure holds 2q + 1 endpoints rather than 4q.
    """
    cuts = lo.tolist() + hi[-1:].tolist()
    chords = iter(arc_chord(lo[~band], hi[~band]).tolist())
    bands, gaps = [], []
    for i, (is_band, r) in enumerate(zip(band.tolist(), rising.tolist())):
        if is_band:
            bands.append(Band(cuts[i], cuts[i + 1], r))
        else:
            gaps.append(Gap(cuts[i], cuts[i + 1], next(chords)))
    return bands, gaps


def gap_chords(values: np.ndarray) -> np.ndarray:
    """Chords of the q gaps of each period in an (N, q) stack, in angular order: (N, q).

    These are band_structure's gaps without the discriminant, so without its
    midpoint check: the cheap screen for many candidate periods at once.
    """
    lo, hi, band, _ = band_arcs(values)
    return arc_chord(lo[~band], hi[~band]).reshape(len(values), -1)


def band_structure(seq: PeriodicSeq, compute_masses: bool = True) -> BandStructure:
    """Bands and gaps from the eigenangles of the phase-0 and phase-pi restrictions.

    band_arcs cuts the circle at the 2q angles.  Each arc takes its endpoints
    straight from those angles, so every band shares both endpoints with its
    neighbouring gaps (bands_and_gaps).
    """
    disc = discriminant(seq)
    bands, gaps = bands_and_gaps(*band_arcs(seq.values))
    # sanity: open gap interiors must lie outside the spectrum
    mids = [0.5 * (g.theta_lo + g.theta_hi) for g in gaps if not g.closed and g.width > 1e-7]
    if np.any(np.abs(disc.eval_real(np.array(mids))) < 2.0 - 1e-7):
        raise BandDiagnosticError("gap midpoint classified inside the spectrum")
    if compute_masses:
        # one pass per band: all bands at once would hold 2 _MASS_NODES q (q + 1) terms
        for i, b in enumerate(bands):
            edges, offsets, weights = graded_pairs(b.theta_lo, b.theta_hi, _MASS_NODES, 2)
            mass = float(np.dot(_equilibrium_at(disc, edges, offsets)[1], weights))
            bands[i] = Band(b.theta_lo, b.theta_hi, b.increasing, mass)
    return BandStructure(seq.period, tuple(bands), tuple(gaps), disc)


#: quadrature nodes per half-band for the band masses
_MASS_NODES = 96


def _equilibrium_at(
    disc: Discriminant, edges: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Floquet phase psi and equilibrium density V at theta = edge + offset.

    V = |dpsi/dtheta| / (q pi) = |Delta'| / (2 q pi sin(psi)).  Each edge is a
    band edge, where Delta = 2 sigma, and each offset the signed step from it
    into the band; all nodes go in one numpy pass.  w = 1 - sigma Delta / 2 is
    taken as sigma (Delta(edge) - Delta(theta)) / 2, summed term by term with
    expm1(i k offset), so a node a few ulps from its edge keeps full relative
    accuracy; then psi = 2 asin(sqrt(w / 2)) on a sigma = +1 edge.  Where
    sin(psi) = 0, V takes the second-order limit sqrt(|Delta''| / 2) / (q pi),
    exact at the touching point of a closed gap, where Delta' vanishes too;
    next to an open gap V is unbounded, but a graded node's offset keeps
    sin(psi) > 0 there.

    The terms c_k e^{i k edge}, sigma and the slope factors i k c_k e^{i k edge}
    are formed once per distinct edge (a band's nodes share two) and gathered
    per node; expm1 is written as its real part -2 sin^2(k offset / 2) and
    imaginary part sin(k offset), with the sines taken for k >= 0 only, since
    expm1 at -k is their conjugate.  Each node's result is bit-identical to
    evaluating every term on the full node x power grid.
    """
    q = disc.q
    k = disc._powers
    h = q // 2  # k runs over -h .. h
    kd = np.multiply.outer(offsets, k[h:])
    expm1 = np.empty((len(offsets), q + 1), dtype=complex)
    expm1.real[:, h:] = -2.0 * np.sin(0.5 * kd) ** 2
    expm1.imag[:, h:] = np.sin(kd)
    np.conjugate(expm1[:, :h:-1], out=expm1[:, :h])
    distinct, of_node = np.unique(edges, return_inverse=True)
    terms = disc.laurent_coeffs * np.exp(1j * np.multiply.outer(distinct, k))
    sigma = np.sign(terms.sum(axis=1).real)[of_node]
    w = np.clip(-0.5 * sigma * (terms[of_node] * expm1).sum(axis=1).real, 0.0, 2.0)
    psi = 2.0 * np.arcsin(np.sqrt(0.5 * w))
    psi = np.where(sigma > 0, psi, math.pi - psi)
    sin_psi = np.sqrt(w * (2.0 - w))
    turn = np.add(expm1, 1.0, out=expm1)  # e^{i k offset}, in place of expm1
    slope = np.abs(((1j * k * terms)[of_node] * turn).sum(axis=1).real)
    touching = sin_psi == 0
    v = np.divide(slope, 2.0 * q * math.pi * sin_psi, out=np.zeros_like(slope),
                  where=~touching)
    if touching.any():
        curv = ((k * k * terms)[of_node[touching]] * turn[touching]).sum(axis=1).real
        v[touching] = np.sqrt(0.5 * np.abs(curv)) / (q * math.pi)
    return psi, v


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
