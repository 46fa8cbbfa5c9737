import math

import numpy as np
import pytest

from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.floquet import band_structure, floquet_matrix
from cmvspectra.specmeasure import (
    EdgeProximityError,
    density,
    density_distance,
    equilibrium_density,
    floquet_solution,
    lt_integral,
)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("q", [2, 4, 8, 16, 64])
def test_floquet_solutions_solve_the_restrictions_up_to_band_edges(q):
    rng = np.random.default_rng(200 + q)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.6)
    bs = band_structure(seq, compute_masses=False)
    for b in bs.bands:
        for theta in (b.theta_lo + 1e-12, 0.5 * (b.theta_lo + b.theta_hi), b.theta_hi - 1e-12):
            z = np.exp(1j * theta)
            sol = floquet_solution(seq, z, bs.disc)
            for phi, phase in ((sol.phi_plus, sol.psi), (sol.phi_minus, -sol.psi)):
                E = floquet_matrix(seq, phase)
                assert np.linalg.norm(E @ phi - z * phi) <= 1e-10
                assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)


def test_floquet_solution_rejects_identity_monodromy():
    # alpha = 0 gives the monodromy diag(1/z, z), the identity at z = 1
    with pytest.raises(EdgeProximityError):
        floquet_solution(make_periodic([0.0, 0.0], 0.5), 1.0)


def test_equilibrium_density_band_masses():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    masses = band_structure(seq).band_masses
    assert len(masses) == 4
    for m in masses:
        assert m == pytest.approx(0.25, abs=5e-6)


def test_equilibrium_density_nonnegative():
    eq = equilibrium_density(constant_seq(0.5))
    bs = band_structure(constant_seq(0.5), compute_masses=False)
    for b in bs.bands:
        for s in np.linspace(0.01, 0.99, 11):
            assert eq(b.theta_lo + s * b.width) >= 0.0


def test_delta_vector_mass_is_one():
    seq = make_periodic([0.0, 0.0], 0.5)
    d = density(seq, {0: 1.0})
    assert d.total_mass == pytest.approx(1.0, abs=1e-7)


def test_delta_vector_mass_constant_sequence():
    d = density(constant_seq(0.5), {0: 1.0})
    assert d.total_mass == pytest.approx(1.0, abs=1e-6)


def test_mass_equals_norm_squared():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    u = {0: 1.0, 1: 0.5 - 0.25j, 3: -0.3}
    d = density(seq, u)
    norm_sq = sum(abs(v) ** 2 for v in u.values())
    assert d.total_mass == pytest.approx(norm_sq, rel=1e-5)


def test_density_vanishes_in_gaps():
    seq = constant_seq(0.5)
    d = density(seq, {0: 1.0})
    assert d(0.0) == 0.0  # gap around theta = 0
    assert d(math.pi) > 0.0


def test_density_rejects_empty_source():
    with pytest.raises(ValueError):
        density(constant_seq(0.5), {})


def test_lt_integral_free_case_oracle():
    # equilibrium density of the free case is 1/(2 pi); its L^t integral over
    # the full circle is (2 pi)^{1 - t}
    seq = make_periodic([0.0, 0.0], 0.5)
    bs = band_structure(seq, compute_masses=False)
    eq = equilibrium_density(seq, bs)
    t = 1.5
    val, err = lt_integral(eq, bs.bands, t)
    assert val == pytest.approx(TWO_PI ** (1 - t), abs=1e-6)
    assert err < 1e-6


def test_lt_integral_finite_with_band_edges():
    seq = constant_seq(0.5)
    bs = band_structure(seq, compute_masses=False)
    d = density(seq, {0: 1.0}, bs)
    val, err = lt_integral(d, bs.bands, 1.5)
    assert np.isfinite(val) and val > 0
    assert err < 1e-2 * max(val, 1.0)


def test_density_distance_identical_is_zero():
    c = constant_seq(0.5)
    assert density_distance(c, c, {0: 1.0}, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_density_distance_positive_and_shrinking():
    base = constant_seq(0.5)
    near = constant_seq(0.505)
    far = constant_seq(0.55)
    u = {0: 1.0}
    d_near = density_distance(base, near, u, 1.5)
    d_far = density_distance(base, far, u, 1.5)
    assert 0 < d_near < d_far
