import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmvspectra import floquet
from cmvspectra._quad import graded_pairs
from cmvspectra.cmv import diff_norm_bound_seq
from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.construct import cantor_iterate
from cmvspectra.floquet import (
    AllGapsClosedError,
    BandDiagnosticError,
    Discriminant,
    _equilibrium_at,
    band_structure,
    discriminant,
    eigenangles,
    floquet_matrix,
    gap_chords,
    label_arcs,
    min_gap,
    spectrum_displacement,
)
from cmvspectra.odometer import make_sampling, to_periodic

TWO_PI = 2.0 * math.pi


def test_floquet_matrix_is_unitary():
    seq = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    for theta in (0.0, 0.7, math.pi):
        B = floquet_matrix(seq, theta)
        assert np.allclose(B @ B.conj().T, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 128])
def test_floquet_matrix_matches_entry_fold(entry_parts, q):
    # at q = 2 both wraps land in the one 2x2 block
    rng = np.random.default_rng(q)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.6)
    C, P, Q = entry_parts(seq)
    for theta in (0.0, math.pi / 2, math.pi, -0.7):
        oracle = C + np.exp(1j * theta) * P + np.exp(-1j * theta) * Q
        assert np.abs(floquet_matrix(seq, theta) - oracle).max() <= 1e-14


def test_free_discriminant_is_two_cos():
    seq = make_periodic([0.0, 0.0], 0.5)
    disc = discriminant(seq)
    for theta in np.linspace(0, TWO_PI, 17):
        assert disc.eval_real(theta) == pytest.approx(2 * math.cos(theta), abs=1e-12)
        assert disc.imag_defect(theta) < 1e-12


def _char_poly_laurent(seq):
    """det(w - E_q(pi/2)) at q + 1 roots of unity, inverse DFT, over the rho product."""
    q = seq.period
    E = floquet_matrix(seq, math.pi / 2)
    omegas = np.exp(2j * np.pi * np.arange(q + 1) / (q + 1))
    vals = np.array([np.linalg.det(w * np.eye(q) - E) for w in omegas])
    coeffs = np.array([(vals * omegas ** (-j)).mean() for j in range(q + 1)])
    return coeffs / seq.rho_product()


@pytest.mark.parametrize("q", [2, 4, 8, 16, 64])
def test_laurent_coeffs_match_char_poly_interpolation(q):
    rng = np.random.default_rng(100 + q)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.6)
    got = discriminant(seq).laurent_coeffs
    want = _char_poly_laurent(seq)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_free_spectrum_has_no_open_gap():
    bs = band_structure(make_periodic([0.0, 0.0, 0.0, 0.0], 0.5))
    assert bs.open_gap_count() == 0
    assert bs.total_band_measure() == pytest.approx(TWO_PI, abs=1e-10)
    with pytest.raises(AllGapsClosedError):
        min_gap(bs)


def test_constant_half_gap_edges_at_pi_thirds():
    # alpha = 1/2 constant: the arc around theta = 0 is a gap with edges +/- pi/3
    bs = band_structure(constant_seq(0.5))
    open_gaps = [g for g in bs.gaps if not g.closed]
    assert len(open_gaps) == 1
    g = open_gaps[0]
    edges = {np.round(np.exp(1j * g.theta_lo), 9), np.round(np.exp(1j * g.theta_hi), 9)}
    expected = {np.round(np.exp(-1j * math.pi / 3), 9), np.round(np.exp(1j * math.pi / 3), 9)}
    assert edges == expected


def _assert_bands_and_gaps_share_endpoints(bs):
    arcs = sorted([(b.theta_lo, b.theta_hi, "band") for b in bs.bands]
                  + [(g.theta_lo, g.theta_hi, "gap") for g in bs.gaps])
    successors = arcs[1:] + [(arcs[0][0] + TWO_PI, None, arcs[0][2])]
    for (_, hi, kind), (lo, _, next_kind) in zip(arcs, successors):
        assert kind != next_kind and hi == lo


@pytest.mark.parametrize("q", [2, 4, 16, 64, 128])
def test_band_edges_are_the_gap_edges(q):
    rng = np.random.default_rng(300 + q)
    for _ in range(3):
        vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
        _assert_bands_and_gaps_share_endpoints(
            band_structure(make_periodic(list(vals), 0.6), compute_masses=False)
        )


def test_band_edges_are_the_gap_edges_after_three_cantor_stages():
    _, final = cantor_iterate(make_sampling([0.3, 0.3], 0.6), 0.9, 3, seed=7)
    bs = band_structure(to_periodic(final), compute_masses=False)
    assert bs.q == 16 and bs.open_gap_count() == 16
    _assert_bands_and_gaps_share_endpoints(bs)


def test_band_and_gap_counts_match_period():
    seq = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    bs = band_structure(seq)
    assert len(bs.bands) == 4
    assert len(bs.gaps) == 4


def test_band_masses_are_equal_shares():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    bs = band_structure(seq)
    for m in bs.band_masses:
        assert m == pytest.approx(1.0 / 4.0, abs=5e-6)
    assert sum(bs.band_masses) == pytest.approx(1.0, abs=2e-5)


@pytest.mark.parametrize("seed", range(3))
def test_thin_band_masses_are_equal_shares(seed):
    # |alpha| <= 0.5 at q = 128 leaves bands 2e-8 .. 3e-7 wide
    rng = np.random.default_rng([600, seed])
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, 128)) * np.exp(2j * np.pi * rng.uniform(0, 1, 128))
    masses = band_structure(make_periodic(list(vals), 0.6)).band_masses
    assert max(abs(m - 1.0 / 128) for m in masses) <= 1e-6


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_equilibrium_density_is_finite_at_a_closed_gap(alpha):
    # constant alpha: Delta = 4 cos^2(theta / 2) / rho^2 - 2 touches -2 at theta = pi,
    # where sin(psi) and Delta' vanish together and V = 1 / (2 pi rho)
    bs = band_structure(constant_seq(alpha), compute_masses=False)
    assert [g.theta_lo for g in bs.gaps if g.closed] == [math.pi]
    _, v = _equilibrium_at(bs.disc, np.full(3, math.pi), np.array([0.0, 1e-6, -1e-6]))
    assert v == pytest.approx(np.full(3, 1.0 / (TWO_PI * math.sqrt(1.0 - alpha**2))), rel=1e-10)


def _reference_equilibrium(disc, edges, offsets):
    """The equilibrium kernel evaluated on the full node x power grid: every term per node."""
    q = disc.q
    k = disc._powers
    kd = np.multiply.outer(offsets, k)
    expm1 = -2.0 * np.sin(0.5 * kd) ** 2 + 1j * np.sin(kd)
    terms = disc.laurent_coeffs * np.exp(1j * np.multiply.outer(edges, k))
    sigma = np.sign(terms.sum(axis=1).real)
    w = np.clip(-0.5 * sigma * (terms * expm1).sum(axis=1).real, 0.0, 2.0)
    psi = 2.0 * np.arcsin(np.sqrt(0.5 * w))
    psi = np.where(sigma > 0, psi, math.pi - psi)
    sin_psi = np.sqrt(w * (2.0 - w))
    slope = np.abs((1j * k * terms * (1.0 + expm1)).sum(axis=1).real)
    touching = sin_psi == 0
    v = np.divide(slope, 2.0 * q * math.pi * sin_psi, out=np.zeros_like(slope),
                  where=~touching)
    if touching.any():
        curv = (k * k * terms[touching] * (1.0 + expm1[touching])).sum(axis=1).real
        v[touching] = np.sqrt(0.5 * np.abs(curv)) / (q * math.pi)
    return psi, v


@pytest.mark.parametrize("q", [2, 16, 64, "closed-gap"])
def test_equilibrium_kernel_matches_the_full_grid_reference(q):
    # nodes of every band, shuffled, so each node's edge is one of many and out of order
    rng = np.random.default_rng(900 if q == "closed-gap" else 900 + q)
    if q == "closed-gap":
        seq = constant_seq(0.5)  # its two bands touch at theta = pi
    else:
        vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
        seq = make_periodic(list(vals), 0.6)
    bs = band_structure(seq, compute_masses=False)
    pairs = [graded_pairs(b.theta_lo, b.theta_hi, 8, 2) for b in bs.bands]
    edges = np.concatenate([e for e, _, _ in pairs])
    offsets = np.concatenate([o for _, o, _ in pairs])
    if q == "closed-gap":
        edges, offsets = np.append(edges, math.pi), np.append(offsets, 0.0)
    order = rng.permutation(len(edges))
    psi, v = _equilibrium_at(bs.disc, edges[order], offsets[order])
    ref_psi, ref_v = _reference_equilibrium(bs.disc, edges[order], offsets[order])
    assert np.array_equal(psi, ref_psi)
    assert np.array_equal(v, ref_v)
    if q == "closed-gap":
        assert v[np.argmax(order)] == pytest.approx(1.0 / (TWO_PI * math.sqrt(0.75)), rel=1e-10)


def test_band_structures_compare_by_their_bands_and_gaps():
    seq = make_periodic([0.3, 0.2], 0.6)
    assert band_structure(seq) == band_structure(seq)
    assert band_structure(seq) != band_structure(make_periodic([0.3, 0.1], 0.6))


def test_a_band_and_its_neighbouring_gap_hold_one_float_per_cut():
    bs = band_structure(make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5))
    assert bs.open_gap_count() == 4
    arcs = sorted(bs.bands + bs.gaps, key=lambda arc: arc.theta_lo)
    for arc, nxt in zip(arcs, arcs[1:]):
        assert arc.theta_hi is nxt.theta_lo
    assert len({id(t) for arc in arcs for t in (arc.theta_lo, arc.theta_hi)}) == 2 * 4 + 1


def test_band_structure_rejects_a_gap_midpoint_inside_the_spectrum(monkeypatch):
    # Delta = 0 everywhere puts every open gap's midpoint inside the spectrum
    monkeypatch.setattr(floquet, "discriminant",
                        lambda seq: Discriminant(seq.period, np.zeros(seq.period + 1, complex)))
    with pytest.raises(BandDiagnosticError, match="gap midpoint"):
        band_structure(make_periodic([0.3, 0.2], 0.6), compute_masses=False)


@pytest.mark.parametrize("q", [16, 64, 128])
def test_eval_real_is_within_its_rounding_bound_of_a_40_digit_sum(q):
    """eval_real, which psi_of and imag_defect share, against the same Laurent
    coefficients summed to 40 digits: within 4 u sum_k |c_k| (1 + |k theta|)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(1700 + q)
    thetas = rng.uniform(0.0, TWO_PI, 40)
    for _ in range(3):
        vals = 0.3 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
        disc = discriminant(make_periodic(list(vals), 0.3))
        c, k = disc.laurent_coeffs, disc._powers
        got = disc.eval_real(thetas)
        with mpmath.workdps(40):
            for theta, value in zip(thetas, got):
                t = mpmath.mpf(theta)
                exact = mpmath.fsum(mpmath.mpc(a) * mpmath.expj(int(n) * t) for a, n in zip(c, k))
                bound = 4 * 2.0**-53 * float(np.sum(np.abs(c) * (1 + np.abs(k * theta))))
                assert abs(float(value) - float(exact.real)) <= bound


def test_edges_thinner_than_the_eigensolve_resolves_are_named_as_the_cause(thin_band_values):
    with pytest.raises(BandDiagnosticError, match="do not interlace") as exc:
        band_structure(make_periodic(list(thin_band_values), 0.7), compute_masses=False)
    thin = re.search(r"(\d+) of 512 sorted edge spacings are below 1e-09; the bands are "
                     r"thinner than the eigensolve resolves", str(exc.value))
    assert thin and int(thin.group(1)) > 0


def test_discriminant_bounded_by_two_inside_bands():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    bs = band_structure(seq)
    for b in bs.bands:
        for s in np.linspace(0.05, 0.95, 7):
            theta = b.theta_lo + s * (b.theta_hi - b.theta_lo)
            assert abs(bs.disc.eval_real(theta)) <= 2.0 + 1e-9


def test_discriminant_exceeds_two_inside_open_gaps():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    bs = band_structure(seq)
    for g in bs.gaps:
        if not g.closed and g.width > 1e-6:
            mid = 0.5 * (g.theta_lo + g.theta_hi)
            assert abs(bs.disc.eval_real(mid)) > 2.0


@given(st.floats(0.0, TWO_PI))
def test_eigenangles_solve_the_discriminant_equation(theta):
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    bs = band_structure(seq, compute_masses=False)
    angles = eigenangles(seq, theta)
    assert len(angles) == 4
    for a in angles:
        assert bs.disc.eval_real(a) == pytest.approx(2 * math.cos(theta), abs=1e-6)


def test_eigenangles_match_direct_eigensolve():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    theta = 1.1
    direct = np.sort(np.angle(np.linalg.eigvals(floquet_matrix(seq, theta))) % TWO_PI)
    mirror = np.sort(np.angle(np.linalg.eigvals(floquet_matrix(seq, -theta))) % TWO_PI)
    union = np.sort(np.concatenate([direct, mirror]))
    computed = eigenangles(seq, theta)
    # E_q(theta) and E_q(-theta) share the circle points where Delta = 2cos(theta)
    for a in computed:
        assert np.min(np.abs(np.exp(1j * a) - np.exp(1j * union))) < 1e-7


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_stacked_fold_eigensolve_and_chords_match_one_period_at_a_time(q):
    # at q = 2 both wraps land in the one 2x2 block
    rng = np.random.default_rng(500 + q)
    seqs = []
    for _ in range(5):
        vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
        seqs.append(make_periodic(list(vals), 0.6))
    stack = np.array([s.values for s in seqs])
    phases = np.array([[0.0], [math.pi]])
    folded = floquet_matrix(stack, phases)
    plus, minus = eigenangles(stack, phases)
    assert folded.shape == (2, 5, q, q) and plus.shape == minus.shape == (5, q)
    for n, seq in enumerate(seqs):
        for k, theta in enumerate((0.0, math.pi)):
            assert np.array_equal(folded[k, n], floquet_matrix(seq, theta))
        assert np.array_equal(plus[n], eigenangles(seq, 0.0))
        assert np.array_equal(minus[n], eigenangles(seq, math.pi))
    chords = gap_chords(stack)
    for n, seq in enumerate(seqs):
        gaps = band_structure(seq, compute_masses=False).gaps
        assert chords[n].tolist() == [g.chord for g in gaps]
        # the scalar chord, as Gap.chord took it before chords were stacked
        assert chords[n].tolist() == [
            abs(np.exp(1j * g.theta_hi) - np.exp(1j * g.theta_lo)) for g in gaps
        ]


def _arcs_by_loop(plus, minus):
    """Reference: the per-edge loop band_structure ran before label_arcs.

    Returns (bands, gaps) as (lo, hi, increasing) and (lo, hi) tuples, or None
    where the loop raised on a band/gap count mismatch.
    """
    q = len(plus)
    edges = sorted([(a, +1) for a in plus] + [(a, -1) for a in minus], key=lambda e: e[0])
    bands, gaps = [], []
    for i in range(2 * q):
        a_lo, t_lo = edges[i]
        a_hi, t_hi = edges[(i + 1) % (2 * q)]
        if i + 1 == 2 * q:
            a_hi += TWO_PI
        if t_lo != t_hi:
            bands.append((a_lo, a_hi, t_lo < 0))
        else:
            gaps.append((a_lo, a_hi))
    return (bands, gaps) if len(bands) == q else None


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_label_arcs_matches_the_edge_loop(q):
    rng = np.random.default_rng(700 + q)
    rows = []
    for trial in range(300):
        # a coarse grid makes equal angles, within a phase and across, common
        angles = rng.integers(0, 60, 2 * q) * 0.1 if trial % 2 else rng.uniform(0, TWO_PI, 2 * q)
        angles.sort()
        if trial % 3:  # interlaced, as the eigenangles of a period are
            phase0 = np.roll(np.tile([True, True, False, False], q // 2), rng.integers(4))
        else:
            phase0 = rng.permutation(np.arange(2 * q) < q)
        plus, minus = angles[phase0], angles[~phase0]
        want = _arcs_by_loop(list(plus), list(minus))
        if want is None:
            with pytest.raises(BandDiagnosticError):
                label_arcs(plus, minus)
            continue
        lo, hi, band, rising = label_arcs(plus, minus)
        assert list(zip(lo[band], hi[band], rising[band])) == want[0]
        assert list(zip(lo[~band], hi[~band])) == want[1]
        rows.append((plus, minus, (lo, hi, band, rising)))
    assert len(rows) > 150
    stacked = label_arcs(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    for n, (_, _, single) in enumerate(rows):
        assert all(np.array_equal(a[n], b) for a, b in zip(stacked, single))


def test_min_gap_positive_when_gap_open():
    bs = band_structure(constant_seq(0.5))
    assert min_gap(bs) > 0.9  # chord of a 2*pi/3 arc is sqrt(3) > 0.9


def _sampled_displacement(f, g, n=20_000):
    """Sup of the chord distance to g's bands over about n evenly spaced points of f's bands.

    Returns the sup and the spacing h; the distance is 1-Lipschitz in the
    angle, so the exact sup lies within h above the sampled one.
    """
    f_bands = band_structure(f, compute_masses=False).bands
    g_bands = band_structure(g, compute_masses=False).bands
    h = sum(b.width for b in f_bands) / n
    theta = np.concatenate(
        [np.linspace(b.theta_lo, b.theta_hi, math.ceil(b.width / h) + 1) for b in f_bands]
    )
    lo = np.array([b.theta_lo for b in g_bands])
    width = np.array([b.width for b in g_bands])
    inside = ((theta[:, None] - lo) % TWO_PI <= width).any(axis=1)
    ends = np.exp(1j * np.concatenate([lo, lo + width]))
    dist = np.abs(np.exp(1j * theta)[:, None] - ends).min(axis=1)
    return float(np.where(inside, 0.0, dist).max()), h


def test_spectrum_displacement_of_a_gap_opening_period_doubling():
    # g doubles the period of f and opens gaps inside f's bands; the sup is
    # attained at a g-gap midpoint, where a coarse grid reads low
    f = make_periodic([0.3, 0.1j], 0.6)
    g = make_periodic([0.3, 0.1j, 0.3 + 0.02j, 0.12j], 0.6)
    d = spectrum_displacement(f, g)
    sampled, h = _sampled_displacement(f, g)
    assert d == pytest.approx(1.386e-2, abs=1e-5)
    assert sampled <= d <= sampled + h
    assert d <= diff_norm_bound_seq(f, g) + 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_spectrum_displacement_brackets_a_sampled_sup(seed):
    rng = np.random.default_rng(seed)
    q = 2 * int(rng.integers(1, 3))
    vals = 0.4 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    f = make_periodic(list(vals), 0.6)
    bump = 0.02 * np.exp(2j * np.pi * rng.uniform(0, 1, 2 * q))
    g = make_periodic([f.value_at(n) + b for n, b in enumerate(bump)], 0.6)
    for a, b in ((f, g), (g, f)):
        d = spectrum_displacement(a, b)
        sampled, h = _sampled_displacement(a, b)
        # a sample on a band end may read an ulp above: numpy and cmath exponentials differ there
        assert sampled - 1e-15 <= d <= sampled + h
        assert d <= diff_norm_bound_seq(a, b) + 1e-8


def test_spectrum_displacement_within_bound_for_small_perturbation():
    f = make_periodic([0.3, 0.0], 0.6)
    g = make_periodic([0.301, 0.002], 0.6)
    assert spectrum_displacement(f, f) == 0.0
    assert 0.0 < spectrum_displacement(f, g) <= diff_norm_bound_seq(f, g) + 1e-8
