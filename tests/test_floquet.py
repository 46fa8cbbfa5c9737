import cmath
import math
import re
from fractions import Fraction

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
    band_arcs,
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
        assert type(arc) is not type(nxt) and arc.theta_hi == nxt.theta_lo
    # the structure stores each of the 2q + 1 cuts once, and the arcs read their ends from them
    assert bs._cuts.tolist() == [arc.theta_lo for arc in arcs] + [arcs[-1].theta_hi]
    assert bs._cuts.shape == (2 * 4 + 1,)


def test_a_band_structure_holds_arrays_not_an_object_per_arc(retained_kib):
    # the 513 cuts, two masks, the masses and the discriminant; 2q Band and Gap
    # objects and their floats took 57 KiB
    seq = make_periodic(list(_disk(np.random.default_rng(2200), 256, 0.3)), 0.6)
    assert retained_kib(lambda: band_structure(seq, compute_masses=False)) <= 16


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


def _disk(rng, q, amax):
    """q seeded values uniform in the disk of radius amax."""
    return amax * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))


def _circle_distance(a, b) -> float:
    """Bottleneck distance, as an angle, between two equal-size point sets on the circle.

    Sorted, the best matching of two point sets on a circle is a cyclic shift,
    so an angle read as 0.0 in one set and as 2 pi - eps in the other costs eps.
    """
    a, b = np.sort(np.mod(a, TWO_PI)), np.sort(np.mod(b, TWO_PI))
    shifted = np.array([np.roll(b, s) for s in range(len(b))])
    return float(np.abs((a - shifted + math.pi) % TWO_PI - math.pi).max(axis=1).min())


def _general_eigenangles(values, theta):
    """The oracle the library used before: the angles of a general eigensolve."""
    return np.angle(np.linalg.eigvals(floquet_matrix(np.asarray(values, complex), theta)))


def _mp_discriminant(mpmath, values):
    """Re Delta(e^{i theta}) in mpmath, from the transfer matrices of the exact values."""
    a = [mpmath.mpc(complex(v)) for v in values]
    q = len(a)
    rho = [mpmath.sqrt(1 - abs(x) ** 2) for x in a]
    steps = []
    for n in range(1, q, 2):  # A_n of (alpha_n, alpha_{n+1}, alpha_{n+2}), as in step_laurent
        a0, a1, a2 = (a[(n + i) % q] for i in range(3))
        r0, r1, r2 = (rho[(n + i) % q] for i in range(3))
        c1, c2, r12 = mpmath.conj(a1), mpmath.conj(a2), r1 * r2
        # the z^-1, z^0 and z^1 coefficients of each entry
        steps.append(((r0 / r1, 0, 0), (-a0 / r1, -a1 / r1, 0),
                      (-r0 * c2 / r12, -r0 * c1 / r12, 0),
                      (c2 * a0 / r12, (c2 * a1 + c1 * a0) / r12, 1 / r12)))

    def disc(theta):
        z = mpmath.expj(theta)
        zi = mpmath.conj(z)
        m = (1, 0, 0, 1)
        for step in steps:
            a, b, c, d = (lo * zi + mid + hi * z for lo, mid, hi in step)
            m = (a * m[0] + b * m[2], a * m[1] + b * m[3], c * m[0] + d * m[2], c * m[1] + d * m[3])
        return (m[0] + m[3]).real

    return disc


@pytest.mark.parametrize("q", [8, 16, 32])
def test_eigenangles_are_within_1e14_of_40_digit_spectrum_points(q):
    """Each angle, refined to 40 digits by two Newton steps on Delta(e^{i theta}) = 2 cos(T)
    with Delta multiplied out in mpmath from the exact values, moves by at most 1e-14;
    the second step is below 1e-25, and the q refined roots are distinct, so they are
    all the spectrum points at T."""
    mpmath = pytest.importorskip("mpmath")
    for seed in range(4):
        values = _disk(np.random.default_rng([1900, q, seed]), q, 0.5)
        with mpmath.workdps(40):
            disc = _mp_discriminant(mpmath, values)
            h = mpmath.mpf(10) ** -20
            for phase in (0.0, math.pi, 1.0):
                target = 2 * mpmath.cos(phase)
                roots = []
                for angle in eigenangles(values, phase):
                    t = mpmath.mpf(angle)
                    for _ in range(2):
                        f = disc(t) - target
                        step = f * h / (disc(t + h) - target - f)
                        t -= step
                    assert abs(step) < 1e-25
                    roots.append(t)
                    assert abs(float(t) - angle) <= 1e-14
                assert min(b - a for a, b in zip(roots, roots[1:])) > 1e-12


def test_eigenangles_match_40_digit_eigenvalues_at_q_8():
    mpmath = pytest.importorskip("mpmath")
    for seed in range(4):
        values = _disk(np.random.default_rng([1900, 8, seed]), 8, 0.5)
        for phase in (0.0, math.pi, 1.0):
            with mpmath.workdps(40):
                E = mpmath.matrix(floquet_matrix(values, phase).tolist())
                exact = [float(mpmath.arg(z)) for z in mpmath.eig(E, left=False, right=False)]
            assert _circle_distance(eigenangles(values, phase), exact) <= 1e-14


@pytest.mark.parametrize("q, amax", [(64, 0.5), (128, 0.5), (256, 0.5)])
def test_eigenangles_agree_with_a_general_eigensolve_to_q_ulps(q, amax):
    rng = np.random.default_rng([2000, q])
    for _ in range(2):
        values = _disk(rng, q, amax)
        for phase in (0.0, math.pi):
            got = eigenangles(values, phase)
            assert _circle_distance(got, _general_eigenangles(values, phase)) <= q * 2.0**-52


@pytest.mark.parametrize("values, exact", [
    # alpha = 0: Delta = 2 cos(q theta / 2), so phase T has the spectrum points
    # (+/- 2 T + 4 pi k) / q, each double at T = 0 and T = pi
    ([0.0] * 4, True),
    ([0.0] * 8, True),
    ([0.3, -0.2, 0.45, 0.1, -0.05, 0.25], False),  # real alpha
    ([0.3 + 0.2j, -0.1j], False),  # the q = 2 fold
    ([0.9, -0.9, 0.9, -0.9], False),  # double eigenvalue at z = 1
    ([0.9, -0.9] * 4, False),
    ([0.999, 0.999], False),
], ids=["free-4", "free-8", "real", "q2", "alternating-4", "alternating-8", "near-one"])
def test_eigenangles_of_degenerate_inputs_as_point_sets(values, exact):
    q = len(values)
    for phase in (0.0, math.pi, 1.0):
        got = eigenangles(np.array(values, complex), phase)
        if exact:
            k = np.arange(q // 2)
            want = np.concatenate([(2 * phase + 4 * math.pi * k) / q,
                                   (-2 * phase + 4 * math.pi * k) / q])
        else:
            want = _general_eigenangles(values, phase)
        assert _circle_distance(got, want) <= 1e-14


def test_an_edge_at_z_1_is_read_either_way():
    # alternating +/-0.9 has a double phase-0 eigenvalue at z = 1, which the Cayley
    # route reads as 0.0 and a general eigensolve as 2 pi - eps; both label the same arcs
    values = np.array([0.9, -0.9] * 4, complex)
    plus, minus = eigenangles(values, 0.0), eigenangles(values, math.pi)
    assert plus[0] == 0.0
    wrapped = np.sort(np.where(plus == 0.0, TWO_PI - 2.0**-50, plus))
    widths = []
    for edges in (plus, wrapped):
        lo, hi, band, _ = label_arcs(edges, minus)
        widths.append(np.sort((hi - lo)[band]))
    assert np.allclose(*widths, rtol=0, atol=1e-14)
    bs = band_structure(make_periodic(list(values), 0.95), compute_masses=False)
    assert len(bs.bands) == len(bs.gaps) == 8


@pytest.mark.parametrize("q", [2, 8, 64])
def test_the_cayley_shift_keeps_its_distance_from_the_spectrum(q):
    rng = np.random.default_rng([2100, q])
    inputs = [_disk(rng, q, 0.5) for _ in range(3)] + [np.zeros(q), np.tile([0.9, -0.9], q // 2)]
    for values in inputs:
        for phase in (0.0, math.pi, 1.0):
            phi = floquet._cayley_shift(floquet_matrix(values, phase))
            angles = eigenangles(values, phase)
            assert phi.shape == (1,)
            assert np.abs(np.exp(1j * phi) - np.exp(1j * angles)).min() >= (1 - 1e-9) / (q + 1)
            assert np.abs(np.cos(phi) - np.cos(angles)).min() >= (1 - 1e-9) / (q + 1)


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
    chords = gap_chords(*band_arcs(stack)[:3])
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


def _on_closed_arc(lo: float, hi: float, theta: float) -> bool:
    """Whether e^{i theta} lies on the closed arc [lo, hi], in exact arithmetic with period TWO_PI.

    In floats (theta - lo) % 2 pi rounds at the scale of 2 pi, so one ulp
    from a cut it can answer either way; with Fractions it is the rule itself.
    """
    period = Fraction(TWO_PI)
    return (Fraction(theta) - Fraction(lo)) % period <= (Fraction(hi) - Fraction(lo)) % period


def _band_across_two_pi():
    rng = np.random.default_rng(70)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    return make_periodic(list(vals), 0.6)


LOOKUP_SEQS = {
    "band across 2 pi": _band_across_two_pi,
    "closed gaps": lambda: make_periodic([0.0] * 8, 0.5),
    "constant 0.5": lambda: constant_seq(0.5),
}


@pytest.mark.parametrize("name", LOOKUP_SEQS)
def test_locate_agrees_with_the_closed_arc_rule(name):
    bs = band_structure(LOOKUP_SEQS[name](), compute_masses=False)
    if name == "band across 2 pi":
        assert bs._band[-1] and bs._cuts[-2] < TWO_PI < bs._cuts[-1]
    at = bs._cuts[:-1]  # the last cut is the first one, a turn up
    near = np.concatenate((at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)))
    theta = np.concatenate((near, near + TWO_PI, near - TWO_PI, -near,
                            np.random.default_rng(3).uniform(-20.0, 20.0, 400)))
    on_band, edge, offset = bs._locate(theta)
    # an angle on a cut lands on the band that meets it, at that cut or a turn up from it
    assert on_band[:len(at)].all() and not offset[:len(at)].any()
    assert np.all((edge[:len(at)] == at) | (edge[:len(at)] == at + TWO_PI))
    period, ulp = Fraction(TWO_PI), Fraction(np.spacing(TWO_PI))
    cuts = [Fraction(c) for c in at]
    bands = list(zip(*bs._band_ends()))
    checked = 0
    for t, on, e, o in zip(theta.tolist(), on_band, edge.tolist(), offset.tolist()):
        residue = Fraction(t) % period
        if (Fraction(float(np.remainder(t, TWO_PI))) != residue
                and min(min(abs(residue - c), period - abs(residue - c)) for c in cuts) <= ulp):
            continue  # t mod 2 pi rounds, within an ulp of a cut: either side is right
        holding = [b for b in bands if _on_closed_arc(*b, t)]
        assert on == bool(holding), t
        if on:  # the nearer edge of a band that holds t
            assert any(e in b and abs(o) <= 0.5 * (b[1] - b[0]) + 1e-14 for b in holding), t
        # edge + offset is t, up to the rounding of t mod 2 pi
        assert abs(math.remainder(e + o - t, TWO_PI)) < 1e-14
        checked += 1
    assert checked > 0.9 * len(theta)


def _contains(band, theta: float) -> bool:
    """The closed-arc rule in floats: whether e^{i theta} lies on the band."""
    return (theta - band.theta_lo) % TWO_PI <= (band.theta_hi - band.theta_lo) % TWO_PI


def _band_distance(bands, theta: float) -> float:
    """Chord distance from e^{i theta} to the bands, as the least chord to any band end."""
    if any(_contains(b, theta) for b in bands):
        return 0.0
    z = cmath.exp(1j * theta)
    return min(abs(z - cmath.exp(1j * t)) for b in bands for t in (b.theta_lo, b.theta_hi))


def _displacement_over_band_ends(f, g) -> float:
    """spectrum_displacement's sup, taken point by point with _band_distance."""
    f_bands = band_structure(f, compute_masses=False).bands
    bs_g = band_structure(g, compute_masses=False)
    mids = [0.5 * (gap.theta_lo + gap.theta_hi) for gap in bs_g.gaps]
    points = [t for b in f_bands for t in (b.theta_lo, b.theta_hi)]
    points += [t for t in mids if any(_contains(b, t) for b in f_bands)]
    return max(_band_distance(bs_g.bands, t) for t in points)


#: TWO_PI is 2 pi to 2.4e-16, and the lookup takes the end of a gap across 2 pi as
#: cuts[0] + TWO_PI where the least chord over band ends may take cuts[0]; on top of
#: that, an ulp of 1 for the rounding of each of a chord's two exponentials
CHORD_TOL = 3 * np.spacing(1.0)


def _seeded_pair(q: int, seed: int):
    """A period-q sequence and a perturbation of it at period q or 2q."""
    rng = np.random.default_rng(1000 * q + seed)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    f = make_periodic(list(vals), 0.6)
    bump = 0.05 * np.exp(2j * np.pi * rng.uniform(0, 1, q * int(rng.integers(1, 3))))
    return f, make_periodic([f.value_at(n) + b for n, b in enumerate(bump)], 0.6)


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_spectrum_displacement_matches_the_least_chord_over_band_ends(q):
    for seed in range(6):
        f, g = _seeded_pair(q, seed)
        for a, b in ((f, g), (g, f)):
            want = _displacement_over_band_ends(a, b)
            assert want > 0
            assert abs(spectrum_displacement(a, b) - want) <= CHORD_TOL


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_distance_to_the_bands_matches_the_least_chord_over_band_ends(q):
    f, _ = _seeded_pair(q, 0)
    bs = band_structure(f, compute_masses=False)
    # theta-union's points, eigenangles of the phase grid, and seeded angles
    union = np.linalg.eigvals(floquet_matrix(f, np.linspace(0, TWO_PI, 50, endpoint=False)))
    theta = np.concatenate((np.angle(union.ravel()) % TWO_PI,
                            np.random.default_rng(q).uniform(-10.0, 10.0, 200)))
    want = np.array([_band_distance(bs.bands, t) for t in theta.tolist()])
    assert np.count_nonzero(want) > 50
    np.testing.assert_allclose(bs._distance(theta), want, rtol=0, atol=CHORD_TOL)
