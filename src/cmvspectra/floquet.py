"""Floquet theory for periodic Verblunsky coefficients.

The q x q restriction of the extended CMV operator to phase-quasiperiodic
vectors (u_{m+q} = e^{iT} u_m) is unitary; its eigenvalues are the circle
points where the discriminant equals 2 cos(T).  Band edges are the
eigenangles at phases 0 and pi.  `eigenangles` takes them from a Hermitian
eigensolve of the Cayley transform of the restriction, to an error of order
q u (u the unit roundoff); this is what lets the construction iterations
certify gaps far below any sampling grid's resolution.  The angles are used
as returned: a Newton step on the discriminant would divide its roundoff by
|Delta'|, which vanishes at exactly those narrow gaps.  `band_arcs` labels
them into bands and gaps, for one period or a stack, and is the only place
band edges are derived; a `BandStructure` holds its arcs as arrays.  Its
`_locate` is the one place an angle is placed among them: a binary search of
the cuts finds the angle's arc, bands taken closed, and its nearer edge.  The
pointwise density, `density_distance`, `spectrum_displacement` and the
theta-union criterion all go through it.

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

import functools
import math
from dataclasses import dataclass

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


class BandStructure:
    """Bands and gaps of one period, held as arrays.

    The 2q arcs run from _cuts[i] to _cuts[i + 1] in angular order, the last
    one past 2 pi, so each cut is stored once, shared by the band and the gap
    that meet there.  _band marks the arcs that are bands, _rising the bands
    that start at a phase-pi angle, and _masses holds the band masses in
    angular order (zeros unless computed).  bands and gaps are built from
    these once, on first read.  BandStructure(q, bands, gaps, disc) builds one
    from Band and Gap objects that tile the circle.
    """

    def __init__(self, q: int, bands, gaps, disc: Discriminant):
        arcs = sorted((*bands, *gaps), key=lambda arc: (arc.theta_lo, arc.theta_hi))
        self.q, self.disc = q, disc
        self._cuts = np.array([arc.theta_lo for arc in arcs] + [arcs[-1].theta_hi])
        self._band = np.array([isinstance(arc, Band) for arc in arcs])
        self._rising = np.array([isinstance(arc, Band) and arc.increasing for arc in arcs])
        self._masses = np.array([b.mass for b in bands], dtype=float)

    @classmethod
    def _of_arrays(cls, q: int, cuts: np.ndarray, band: np.ndarray, rising: np.ndarray,
                   masses: np.ndarray, disc: Discriminant) -> BandStructure:
        bs = cls.__new__(cls)
        bs.q, bs.disc = q, disc
        bs._cuts, bs._band, bs._rising, bs._masses = cuts, band, rising, masses
        return bs

    def _ends(self, mask: np.ndarray) -> tuple[list[float], list[float]]:
        """The two ends of the arcs under mask, as lists of floats in angular order."""
        return self._cuts[:-1][mask].tolist(), self._cuts[1:][mask].tolist()

    def _band_ends(self) -> tuple[list[float], list[float]]:
        """theta_lo and theta_hi of the bands, without building them."""
        return self._ends(self._band)

    def _chords(self) -> np.ndarray:
        """arc_chord of each gap's two ends, in angular order."""
        return arc_chord(self._cuts[:-1][~self._band], self._cuts[1:][~self._band])

    def _locate(self, theta, anchors=None, signed=0.0):
        """The arc that holds each angle theta, and anchors + signed as a step from its end.

        Returns (on_band, edge, offset).  on_band marks the angles on a band,
        bands taken closed, so an angle on a cut lands on the band that meets
        it.  edge is the nearer end of the angle's arc, a band edge either way,
        and offset the signed step from it to anchors + signed; anchors
        defaults to theta mod 2 pi.  An anchor below the arc's start is taken a
        turn up: the last arc, past 2 pi, holds the angles just above 0.
        theta, anchors and signed broadcast.
        """
        cuts = self._cuts
        t = np.remainder(theta, TWO_PI)
        # an angle just below 0 reduces to 2 pi by rounding; taking it as 0 keeps t < cuts[-1]
        t = np.where(t == TWO_PI, 0.0, t)
        # -1 below cuts[0], on the last arc; a cut that starts a gap closes the band before it
        i = np.searchsorted(cuts, t, side="right") - 1
        i = (i - ((t == cuts[i]) & ~self._band[i])) % len(self._band)
        lo, hi = cuts[i], cuts[i + 1]
        base = t if anchors is None else anchors
        base = np.where(base < lo, base + TWO_PI, base)
        from_lo = (base - lo) + signed
        from_hi = (base - hi) + signed
        near_lo = from_lo <= -from_hi
        return self._band[i], np.where(near_lo, lo, hi), np.where(near_lo, from_lo, from_hi)

    def _distance(self, theta) -> np.ndarray:
        """Chord distance from each e^{i theta} to the bands: to its gap's nearer end, or 0."""
        on_band, edge, _ = self._locate(theta)
        return np.where(on_band, 0.0, arc_chord(edge, theta))

    @functools.cached_property
    def bands(self) -> tuple[Band, ...]:
        rising = self._rising[self._band].tolist()
        return tuple(map(Band, *self._band_ends(), rising, self._masses.tolist()))

    @functools.cached_property
    def gaps(self) -> tuple[Gap, ...]:
        return tuple(map(Gap, *self._ends(~self._band), self._chords().tolist()))

    @property
    def band_masses(self) -> tuple[float, ...]:
        return tuple(self._masses.tolist())

    def total_band_measure(self) -> float:
        # a Python sum in angular order, as over the bands' widths
        return sum((self._cuts[1:] - self._cuts[:-1])[self._band].tolist())

    def open_gap_count(self) -> int:
        return int(np.count_nonzero(self._chords() > CLOSED_GAP_CHORD))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BandStructure):
            return NotImplemented
        return self.q == other.q and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("_cuts", "_band", "_rising", "_masses"))

    __hash__ = None

    def __repr__(self) -> str:
        return f"BandStructure(q={self.q}, bands={self.bands!r}, gaps={self.gaps!r})"


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

    Each phase is its own eigensolve (eigenangles: the Cayley transform about a
    point w = e^{i phi} at least 1 / (q + 1) from that phase's spectrum), so
    each edge carries an error of order q u; stacking the two phases would
    hold both sets of restrictions at once for no gain in accuracy.  A stacked
    row's arcs equal a single solve's bit for bit.  An edge at z = 1 may read
    0.0 or 2 pi - eps, and label_arcs takes either.
    """
    return label_arcs(eigenangles(values, 0.0), eigenangles(values, math.pi))


def gap_chords(lo: np.ndarray, hi: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Chords of the q gaps of each row of band_arcs of an (N, q) stack, in angular order: (N, q).

    These are band_structure's gaps without the discriminant, so without its
    midpoint check: the cheap screen for many candidate periods at once.
    """
    return arc_chord(lo[~band], hi[~band]).reshape(len(lo), -1)


def band_structure(seq: PeriodicSeq, compute_masses: bool = True) -> BandStructure:
    """Bands and gaps from the eigenangles of the phase-0 and phase-pi restrictions.

    band_arcs cuts the circle at the 2q angles.  Each arc takes its endpoints
    straight from those angles, so every band shares both endpoints with its
    neighbouring gaps.
    """
    return _structure_of_arcs(seq, band_arcs(seq.values), compute_masses)


def _structure_of_arcs(seq: PeriodicSeq, arcs: tuple[np.ndarray, ...],
                       compute_masses: bool) -> BandStructure:
    """The band structure of seq from its band_arcs (lo, hi, band, rising), each (2q,).

    The arcs may be one row of a stack labelled at once, which equals a single
    solve bit for bit; the structure copies what it keeps, so it does not hold
    the stack.
    """
    lo, hi, band, rising = arcs
    disc = discriminant(seq)
    gap = ~band
    # sanity: open gap interiors must lie outside the spectrum
    wide = (arc_chord(lo[gap], hi[gap]) > CLOSED_GAP_CHORD) & ((hi - lo)[gap] > 1e-7)
    mids = 0.5 * (lo[gap][wide] + hi[gap][wide])
    if np.any(np.abs(disc.eval_real(mids)) < 2.0 - 1e-7):
        raise BandDiagnosticError("gap midpoint classified inside the spectrum")
    masses = np.zeros(seq.period)
    if compute_masses:
        # one pass per band: all bands at once would hold 2 _MASS_NODES q (q + 1) terms
        for i, ends in enumerate(zip(lo[band].tolist(), hi[band].tolist())):
            edges, offsets, weights = graded_pairs(*ends, _MASS_NODES, 2)
            masses[i] = np.dot(_equilibrium_at(disc, edges, offsets)[1], weights)
    return BandStructure._of_arrays(seq.period, np.append(lo, hi[-1]), band.copy(),
                                    band & rising, masses, disc)


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


def _cayley_shift(E: np.ndarray) -> np.ndarray:
    """The angle phi of a point w = e^{i phi} at least 1 / (q + 1) from each eigenvalue of E.

    E is unitary (..., q, q); phi is (..., 1).  The eigenvalues of E + E* are
    c_j = 2 cos(theta_j), to about u.  The q values leave q + 1 intervals of
    [-2, 2] free, the widest at least 4 / (q + 1) long; phi = arccos(m / 2)
    for its midpoint m puts |cos(phi) - cos(theta_j)| >= 1 / (q + 1), and so
    |w - e^{i theta_j}| >= 1 / (q + 1).
    """
    H = np.conjugate(np.swapaxes(E, -1, -2))
    H += E
    c = np.linalg.eigvalsh(H)
    ends = np.full(c.shape[:-1] + (1,), 2.0)
    cuts = np.concatenate((-ends, c, ends), axis=-1)
    lo, hi = cuts[..., :-1], cuts[..., 1:]
    j = np.argmax(hi - lo, axis=-1)[..., None]
    # arccos(m / 2) at the midpoint m = (lo + hi) / 2; both halvings are exact
    return np.arccos(np.take_along_axis(0.25 * (lo + hi), j, -1))


def eigenangles(seq, theta) -> np.ndarray:
    """The q spectrum points of E_q(theta), one per band: its sorted eigenangles.

    Takes the stacks floquet_matrix takes, giving (..., q); each matrix of a
    stack gets the same operations as alone, so a stacked row equals a single
    solve bit for bit.  E = E_q(theta) is unitary, so for w = e^{i phi} off
    its spectrum the Cayley transform A = i (w + E)(w - E)^-1
    = 2 i w (w - E)^-1 - i I is Hermitian, with eigenvalues
    lam_j = -cot((theta_j - phi) / 2): so theta_j = phi + 2 atan2(1, -lam_j).
    _cayley_shift places w at least 1 / (q + 1) from the spectrum, so the
    inverse is well conditioned, and the angles come out with an error of
    order q u (u the unit roundoff), up to twice a general eigensolve's.  A
    double eigenvalue at z = 1 may read 0.0 where a general eigensolve gives
    2 pi - eps; label_arcs takes either.  Two Hermitian eigensolves (LAPACK
    zheevd) and one inverse cost about as much as one general eigensolve
    (zgeev) at q = 16 and less above it, or from q = 8 on in a stack of 12;
    at smaller q their fixed overhead costs up to about 30 us more per call.
    w - E is built in place of E and inverted once, which keeps the transient
    near that of the general eigensolve.
    """
    E = floquet_matrix(seq, theta)
    phi = _cayley_shift(E)
    w = np.exp(1j * phi)
    np.negative(E, out=E)
    # einsum returns a writeable view of each diagonal
    np.einsum("...ii->...i", E)[...] += w
    A = np.linalg.inv(E)
    del E
    # 2 i w (w - E)^-1 is A + i I, and eigvalsh takes only the real part of the diagonal
    A *= 2j * w[..., None]
    lam = np.linalg.eigvalsh(A)
    return np.sort((phi + 2.0 * np.arctan2(1.0, -lam)) % TWO_PI, axis=-1)


def min_gap(bs: BandStructure) -> float:
    """Smallest chord width over the open gaps; error if every gap is closed."""
    chords = bs._chords()
    open_gaps = chords[chords > CLOSED_GAP_CHORD]
    if not len(open_gaps):
        raise AllGapsClosedError("all gaps are closed; no minimal open gap exists")
    return float(open_gaps.min())


def spectrum_displacement(f: PeriodicSeq, g: PeriodicSeq) -> float:
    """Exact sup over the spectrum of E_f of the chord distance to the spectrum of E_g.

    On each g-gap that distance is a tent: zero at the gap's ends, peaking at
    its midpoint.  So on an f-band the sup is attained at one of the band's
    ends or at a g-gap midpoint inside it, at most 2 q_f + q_g points in all.
    """
    bs_f = band_structure(f, compute_masses=False)
    bs_g = band_structure(g, compute_masses=False)
    mids = (0.5 * (bs_g._cuts[:-1] + bs_g._cuts[1:]))[~bs_g._band]
    points = np.concatenate((*bs_f._band_ends(), mids[bs_f._locate(mids)[0]]))
    return float(np.max(bs_g._distance(points)))
