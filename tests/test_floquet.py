import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.floquet import (
    AllGapsClosedError,
    band_structure,
    discriminant,
    eigenangles,
    floquet_matrix,
    min_gap,
)

TWO_PI = 2.0 * math.pi


def test_floquet_matrix_is_unitary():
    seq = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    for theta in (0.0, 0.7, math.pi):
        B = floquet_matrix(seq, theta).entries
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
        assert np.abs(floquet_matrix(seq, theta).entries - oracle).max() <= 1e-14


def test_free_discriminant_is_two_cos():
    seq = make_periodic([0.0, 0.0], 0.5)
    disc = discriminant(seq)
    for theta in np.linspace(0, TWO_PI, 17):
        assert disc.eval_real(theta) == pytest.approx(2 * math.cos(theta), abs=1e-12)
        assert disc.imag_defect(theta) < 1e-12


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
    angles = eigenangles(seq, theta, bs)
    assert len(angles) == 4
    for a in angles:
        assert bs.disc.eval_real(a) == pytest.approx(2 * math.cos(theta), abs=1e-6)


def test_eigenangles_match_direct_eigensolve():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    theta = 1.1
    direct = np.sort(np.angle(np.linalg.eigvals(floquet_matrix(seq, theta).entries)) % TWO_PI)
    mirror = np.sort(np.angle(np.linalg.eigvals(floquet_matrix(seq, -theta).entries)) % TWO_PI)
    union = np.sort(np.concatenate([direct, mirror]))
    computed = eigenangles(seq, theta)
    # bisection angles solve Delta = 2cos(theta); the eigensolve at +/- theta
    # produces the same circle points, so each computed angle appears in the union
    for a in computed:
        assert np.min(np.abs(np.exp(1j * a) - np.exp(1j * union))) < 1e-7


def test_min_gap_positive_when_gap_open():
    bs = band_structure(constant_seq(0.5))
    assert min_gap(bs) > 0.9  # chord of a 2*pi/3 arc is sqrt(3) > 0.9
