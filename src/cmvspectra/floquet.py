"""Floquet theory for periodic Verblunsky coefficients.

The q x q restriction of the extended CMV operator to phase-quasiperiodic
vectors (u_{m+q} = e^{iT} u_m) is unitary; its eigenvalues are the circle
points where the discriminant equals 2 cos(T).  Band edges are the
eigenangles at phases 0 and pi.  `eigenangles` takes them from a Hermitian
eigensolve of the Cayley transform of the restriction, to an error of order
q u (u the unit roundoff); this is what lets the construction iterations
certify gaps far below any sampling grid's resolution.  The angles are used
as returned: a Newton step on the discriminant would divide its roundoff by
|Delta'|, which vanishes at exactly those narrow gaps.  `band_arcs` solves
both phases in one stacked eigensolve and labels the angles into bands and
gaps, for one period or a stack, and is the only place band edges are
derived.  Its arcs have one layout, (cuts, band, rising), which a
`BandStructure` holds as it is and the construction's screen and failure
report read too; `arc_gaps` is the one builder of `Gap` objects, and
`gap_is_closed` the one rule that calls a gap closed.  `BandStructure._locate`
is the one place an angle is placed among the arcs: a binary search of the
cuts finds the angle's arc, bands taken closed, and its nearer edge.  The
pointwise density, `density_distance`, `spectrum_displacement` and the
theta-union criterion all go through it.

The discriminant is the trace of the monodromy, the product
A_{q-1} ... A_3 A_1 of the two-step transfer matrices over one period (Simon,
OPUC Part 2, ch. 11).  A `Discriminant` is a handle on it that holds the
period: it evaluates Delta at points from the transfer product
(`transfer.transfer_products`), and multiplies the product out into its
Laurent polynomial, from the coefficients in z (`transfer.step_coeffs`),
only when that is first read.  On the tables the constructions build, the
Laurent coefficients grow exponentially in q and their sum loses its
accuracy; the product does not, so every point value of Delta comes from it.

The equilibrium density V = |dpsi/dtheta| / (q pi), psi = arccos(Delta / 2),
has one kernel, `_equilibrium_at`, which takes each point as (band edge,
offset) to stay accurate where V blows up; the band masses and every density
in `specmeasure` go through it, on `_quad`'s graded nodes.  It reads the
Laurent coefficients c_0 .. c_{q/2} once per distinct edge, as tail sums, and
evaluates Delta - Delta(edge) and Delta' at the nodes by Horner's rule, in
O(nodes) temporaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._quad import field_rows, graded_pairs, row_dots
from .cmv import band_columns, band_rows
from .coeffs import PeriodicSeq, magnitudes
from .transfer import step_coeffs, transfer_products

TWO_PI = 2.0 * math.pi

#: gaps no wider than this chord distance count as closed, as gap_is_closed decides
CLOSED_GAP_CHORD = 1e-9


def gap_is_closed(chord):
    """Whether a gap of this chord counts as closed, elementwise: the one closed-gap rule."""
    return chord <= CLOSED_GAP_CHORD


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
    v = seq.values if isinstance(seq, PeriodicSeq) else np.asarray(seq, dtype=complex)
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


class Discriminant:
    """Delta(z), the trace of one period's monodromy: a handle that holds the period.

    eval_monodromy takes Delta at angles from the 2x2 transfer product, in
    O(q) per angle, and is the one point evaluator.  laurent_coeffs, the
    Laurent polynomial z^{-q/2} .. z^{q/2} that is real-valued on the unit
    circle (index j for power j - q/2), is multiplied out in O(q^2) on first
    read and kept: by the equilibrium kernel (band masses and densities), by
    imag_defect and by `cmvspectra discriminant --json`, which prints it.
    Both forms start from the period's step coefficients, which the handle
    does not keep.  Compared by identity: it is derived from a sequence, and
    the structures holding one compare that sequence's bands instead.
    """

    def __init__(self, seq: PeriodicSeq):
        self.q = seq.period
        self._values = seq.values

    @functools.cached_property
    def laurent_coeffs(self) -> np.ndarray:
        mono = np.eye(2, dtype=complex)[None]  # Laurent coefficients, lowest power first
        for c in step_coeffs(self._values):
            m = len(mono)
            nxt = np.zeros((m + 2, 2, 2), dtype=complex)
            nxt[:m] += c[0] @ mono
            nxt[1:-1] += c[1] @ mono
            nxt[2:] += c[2] @ mono
            mono = nxt
        return mono[:, 0, 0] + mono[:, 1, 1]

    def imag_defect(self, theta: float) -> float:
        """|Im Delta(e^{i theta})| by the Laurent sum: zero in exact arithmetic, so roundoff."""
        k = np.arange(self.q + 1) - self.q // 2
        return abs((np.exp(1j * np.multiply.outer(theta, k)) @ self.laurent_coeffs).imag)

    def eval_monodromy(self, theta):
        """Re Delta(e^{i theta}) as the trace of the transfer product, at an angle or an array.

        Multiplied at each point, it keeps the accuracy of the 2x2 products,
        where the Laurent sum loses u times its largest coefficient, which
        grows like the product of 1 / rho over the period.
        """
        theta = np.asarray(theta, dtype=float)
        mono = transfer_products(step_coeffs(self._values), np.exp(1j * theta.ravel()))[-1]
        return (mono[0, 0] + mono[1, 1]).real.reshape(theta.shape)


def discriminant(seq: PeriodicSeq) -> Discriminant:
    """Trace of the monodromy of seq: a handle that builds its Laurent form on first read."""
    return Discriminant(seq)


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
    """|e^{i theta_hi} - e^{i theta_lo}|, elementwise, by coeffs.magnitudes.

    So a chord is the scalar abs to the last bit, alone and across a stack.
    """
    return magnitudes(np.exp(1j * theta_hi) - np.exp(1j * theta_lo))


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
        return gap_is_closed(self.chord)


def arc_gaps(cuts: np.ndarray, band: np.ndarray) -> tuple[Gap, ...]:
    """The gaps of one row of band_arcs (cuts, band), in angular order."""
    lo, hi = cuts[:-1][~band], cuts[1:][~band]
    return tuple(map(Gap, lo.tolist(), hi.tolist(), arc_chord(lo, hi).tolist()))


class BandStructure:
    """Bands and gaps of one period, held as arrays.

    _cuts, _band and _rising are one row of band_arcs, in its layout, and
    _masses holds the band masses in angular order (read-only zeros unless
    computed).  bands and gaps are built from these once, on first read.
    BandStructure(q, bands, gaps, disc) builds one from Band and Gap objects
    that tile the circle.
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

    def _band_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """theta_lo and theta_hi of the bands in angular order, without building them."""
        return self._cuts[:-1][self._band], self._cuts[1:][self._band]

    def _chords(self) -> np.ndarray:
        """arc_chord of each gap's two ends, in angular order."""
        return gap_chords(self._cuts, self._band)

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
        lo, hi = self._band_ends()
        return tuple(map(Band, lo.tolist(), hi.tolist(), self._rising[self._band].tolist(),
                         self._masses.tolist()))

    @functools.cached_property
    def gaps(self) -> tuple[Gap, ...]:
        return arc_gaps(self._cuts, self._band)

    @property
    def band_masses(self) -> tuple[float, ...]:
        return tuple(self._masses.tolist())

    def total_band_measure(self) -> float:
        # a Python sum in angular order, as over the bands' widths
        return sum((self._cuts[1:] - self._cuts[:-1])[self._band].tolist())

    def open_gap_count(self) -> int:
        return int(np.count_nonzero(~gap_is_closed(self._chords())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BandStructure):
            return NotImplemented
        return self.q == other.q and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("_cuts", "_band", "_rising", "_masses"))

    __hash__ = None

    def __repr__(self) -> str:
        return f"BandStructure(q={self.q}, bands={self.bands!r}, gaps={self.gaps!r})"


def label_arcs(plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut the circle at the phase-0 angles plus and phase-pi angles minus, each (..., q).

    Returns (cuts, band, rising) in angular order.  cuts is (..., 2q + 1): the
    sorted angles, then the first a turn up, so arc i runs from cuts[i] to
    cuts[i + 1], the last one past 2 pi, and each cut is shared by the two
    arcs that meet there.  band and rising are (..., 2q).  An arc between a
    phase-0 and a phase-pi angle is a band, one between two angles of the same
    phase is a gap; rising marks the bands that start at a phase-pi angle,
    across which the discriminant rises from -2 to 2.  Equal angles keep
    phase 0 first.
    """
    q = plus.shape[-1]
    angles = np.concatenate((plus, minus), axis=-1)
    lo = np.sort(angles, axis=-1)
    cuts = np.concatenate((lo, lo[..., :1] + TWO_PI), axis=-1)
    starts_pi = np.argsort(angles, axis=-1, kind="stable") >= q
    band = starts_pi != np.concatenate((starts_pi[..., 1:], starts_pi[..., :1]), axis=-1)
    counts = np.count_nonzero(band, axis=-1)
    bad = counts != q
    if np.any(bad):
        n = int(counts[bad].flat[0])
        thin = np.count_nonzero(gap_is_closed(np.diff(cuts[bad][0])))
        raise BandDiagnosticError(
            f"band/gap count mismatch: {n} bands, {2 * q - n} gaps for period {q}: the phase-0 "
            f"and phase-pi edges do not interlace, as {thin} of {2 * q} sorted edge spacings "
            f"are below {CLOSED_GAP_CHORD:g}; the bands are thinner than the eigensolve resolves"
        )
    return cuts, band, band & starts_pi


def band_arcs(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """label_arcs of the phase-0 and phase-pi eigenangles of one period (q,) or a stack (N, q).

    Both phases are one stacked eigensolve, with theta = [0, pi] on a new
    leading axis: eigenangles gives each restriction the operations it gets
    alone (the Cayley transform about a point w = e^{i phi} at least 1 / (q + 1)
    from that restriction's spectrum), so each edge carries an error of order
    q u and equals a separate solve per phase bit for bit, while the fixed cost
    of a call is paid once, not once per phase.  A stacked row's arcs equal a
    single period's bit for bit.  An edge at z = 1 may read 0.0 or 2 pi - eps,
    and label_arcs takes either.
    """
    values = np.asarray(values, dtype=complex)
    phases = np.array([0.0, math.pi]).reshape((2,) + (1,) * (values.ndim - 1))
    return label_arcs(*eigenangles(values, phases))


def gap_chords(cuts: np.ndarray, band: np.ndarray) -> np.ndarray:
    """Chords of the q gaps of band_arcs (cuts, band), one period or a stack, in angular order.

    These are band_structure's gaps without the discriminant, so without its
    midpoint check: the cheap screen for many candidate periods at once.
    """
    gap = ~band
    return arc_chord(cuts[..., :-1][gap], cuts[..., 1:][gap]).reshape(band.shape[:-1] + (-1,))


def band_structure(seq: PeriodicSeq, compute_masses: bool = True) -> BandStructure:
    """Bands and gaps from the eigenangles of the phase-0 and phase-pi restrictions.

    band_arcs cuts the circle at the 2q angles.  Each arc takes its endpoints
    straight from those angles, so every band shares both endpoints with its
    neighbouring gaps.
    """
    return _structure_of_arcs(seq, band_arcs(seq.values), compute_masses)


def _structure_of_arcs(seq: PeriodicSeq, arcs: tuple[np.ndarray, ...],
                       compute_masses: bool) -> BandStructure:
    """The band structure of seq from one row of its band_arcs (cuts, band, rising).

    The arcs may be one row of a stack labelled at once, which equals a single
    solve bit for bit; the structure copies what it keeps, so it does not hold
    the stack.
    """
    cuts, band, rising = arcs
    lo, hi = cuts[:-1], cuts[1:]
    disc = discriminant(seq)
    gap = ~band
    # sanity: open gap interiors must lie outside the spectrum, checked on the
    # transfer product, which stays accurate where the Laurent sum does not
    wide = ~gap_is_closed(gap_chords(cuts, band)) & ((hi - lo)[gap] > 1e-7)
    mids = 0.5 * (lo[gap][wide] + hi[gap][wide])
    if np.any(np.abs(disc.eval_monodromy(mids)) < 2.0 - 1e-7):
        raise BandDiagnosticError("gap midpoint classified inside the spectrum")
    # a structure is often kept long after it is built, so it holds no more than it computed:
    # zeros that take no memory for masses it did not compute, and not the Laurent form
    # the masses read, which they build on a handle of their own
    masses = np.broadcast_to(0.0, seq.period)
    if compute_masses:
        edges, offsets, weights = graded_pairs(lo[band], hi[band], _MASS_NODES, 2)
        own = Discriminant(seq)
        # V alone holds O(1) terms per node, a few sites' worth: width 4, as equilibrium_density
        masses = row_dots(field_rows(lambda e, o: _equilibrium_at(own, e, o)[1],
                                     edges, offsets, 4), weights)
    return BandStructure._of_arrays(seq.period, cuts.copy(), band.copy(), rising.copy(), masses,
                                    disc)


#: quadrature nodes per half-band for the band masses
_MASS_NODES = 96


def _equilibrium_at(
    disc: Discriminant, edges: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Floquet phase psi and equilibrium density V at theta = edge + offset.

    V = |dpsi/dtheta| / (q pi) = |Delta'| / (2 q pi sin(psi)).  Each edge is a
    band edge, where Delta = 2 sigma, and each offset the signed step from it
    into the band.  Delta is real on the circle, c_{-k} = conj(c_k), so with
    t_k = c_k e^{i k edge} and z = e^{i offset},
    Delta(theta) - Delta(edge) = 2 Re[(z - 1) R], R = sum_j T_j z^j over the
    tail sums T_j = sum_{k > j} t_k, and Delta' = 2 Re(i z S),
    S = sum_j (j + 1) t_{j+1} z^j.  t, sigma and the tail sums are formed once
    per distinct edge (a band's nodes share two); R and S are two Horner
    chains of h = q / 2 steps, vectorized over the nodes, so the temporaries
    are O(nodes).  w = 1 - sigma Delta / 2 is then -sigma Re[expm1(i offset) R],
    with expm1 written as -2 sin^2(offset / 2) + i sin(offset), so a node a few
    ulps from its edge keeps full relative accuracy; psi = 2 asin(sqrt(w / 2))
    on a sigma = +1 edge.  Where sin(psi) = 0, V takes the second-order limit
    sqrt(|Delta''| / 2) / (q pi), exact at the touching point of a closed gap,
    where Delta' vanishes too; next to an open gap V is unbounded, but a graded
    node's offset keeps sin(psi) > 0 there.
    """
    q, h = disc.q, disc.q // 2
    c = disc.laurent_coeffs[h:]  # c_0 .. c_h
    k = np.arange(1, h + 1)
    distinct, of_node = np.unique(edges, return_inverse=True)
    t = c[1:] * np.exp(1j * np.multiply.outer(distinct, k))  # column k - 1 holds t_k
    sigma = np.sign(c[0].real + 2.0 * t.sum(axis=1).real)[of_node]
    tails = np.cumsum(t[:, ::-1], axis=1)[:, ::-1]
    # per Horner step j, the two chains' coefficients of z^j, (T_j, (j + 1) t_{j+1}): (h, 2, U)
    chains = np.ascontiguousarray(np.stack([tails, k * t]).transpose(2, 0, 1))
    expm1 = np.empty(len(offsets), dtype=complex)
    expm1.real = -2.0 * np.sin(0.5 * offsets) ** 2
    expm1.imag = np.sin(offsets)
    z = expm1 + 1.0
    acc = chains[-1].take(of_node, axis=1)
    step = np.empty_like(acc)
    for coef in chains[-2::-1]:
        acc *= z
        acc += coef.take(of_node, axis=1, out=step)
    r, s = acc
    w = np.clip(-sigma * (expm1 * r).real, 0.0, 2.0)
    psi = 2.0 * np.arcsin(np.sqrt(0.5 * w))
    psi = np.where(sigma > 0, psi, math.pi - psi)
    sin_psi = np.sqrt(w * (2.0 - w))
    slope = np.abs(2.0 * (z * s).imag)  # |2 Re(i z S)|
    touching = sin_psi == 0
    v = np.divide(slope, 2.0 * q * math.pi * sin_psi, out=np.zeros_like(slope),
                  where=~touching)
    if touching.any():
        turn = np.exp(1j * np.multiply.outer(offsets[touching], k))
        curv = 2.0 * (k * k * t[of_node[touching]] * turn).sum(axis=1).real
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
    (zgeev) at moderate q; at small q their fixed overhead dominates, which is
    why band_arcs stacks both phases into one call.  w - E is built
    in place of E and inverted once, which keeps the transient near that of
    the general eigensolve.
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
    open_gaps = chords[~gap_is_closed(chords)]
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
