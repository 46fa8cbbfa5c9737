import dataclasses
import math

import numpy as np
import pytest

from cmvspectra import specmeasure
from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.construct import ac_iterate
from cmvspectra.floquet import band_structure, density_factor, floquet_matrix
from cmvspectra.odometer import make_sampling, to_periodic
from cmvspectra.transfer import step_coeffs
from cmvspectra.specmeasure import (
    EdgeProximityError,
    SpectralDensity,
    _density_at,
    density,
    density_distance,
    equilibrium_density,
    floquet_solution,
    lt_integral,
    psi_of,
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


def test_density_never_calls_the_per_node_solver(monkeypatch):
    def per_node(*args, **kwargs):
        raise AssertionError("density evaluated a node through floquet_solution")

    monkeypatch.setattr(specmeasure, "floquet_solution", per_node)
    d = density(_random_seq(8, 308), THREE_SITES)
    assert d.total_mass == pytest.approx(sum(abs(v) ** 2 for v in THREE_SITES.values()),
                                         rel=1e-6)


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


THREE_SITES = {0: 1.0, 1: 0.5 - 0.25j, 5: -0.3}


def _random_seq(q, seed):
    rng = np.random.default_rng(seed)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    return make_periodic(list(vals), 0.6)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_batched_density_matches_the_per_node_reference(q):
    seq = _random_seq(q, 300 + q)
    bs = band_structure(seq, compute_masses=False)
    c_sum = np.abs(bs.disc.laurent_coeffs).sum()
    edges, offsets = [], []
    for b in bs.bands:
        for dist in (1e-9, 1e-6, 1e-3, 0.1 * b.width, 0.3 * b.width, 0.5 * b.width):
            edges += [b.theta_lo, b.theta_hi]
            offsets += [dist, -dist]
    steps = step_coeffs(seq.values)
    got = _density_at(bs.disc, steps, THREE_SITES, np.array(edges), np.array(offsets))
    at_one_point = SpectralDensity(seq, THREE_SITES, bs.bands, bs.disc)
    for g, edge, offset in zip(got, edges, offsets):
        theta = edge + offset
        ref = at_one_point(theta)
        # the reference forms 1 - (Delta/2)^2 directly, so it carries that
        # subtraction's roundoff, about (q + 1) eps sum|c_k|, relative to it
        s = 1.0 - (0.5 * bs.disc.eval_real(theta)) ** 2
        own_roundoff = (q + 1) * np.finfo(float).eps * c_sum / s
        assert abs(g - ref) <= (1e-12 + own_roundoff) * ref


#: sites in four different periods at q = 2, and in two at q = 16
SPREAD_SITES = {0: 1.0, 1: 0.5 - 0.25j, 5: -0.3, -7: 0.2 + 0.1j}


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_density_matches_the_floquet_matrix_eigenvectors(q):
    # an oracle without transfer matrices: the solution for e^{+/- i psi} is the
    # unit eigenvector of floquet_matrix(seq, +/- psi) for its eigenvalue nearest z,
    # extended by u_{j + l q} = e^{+/- i l psi} u_j
    seq = _random_seq(q, 400 + q)
    bs = band_structure(seq, compute_masses=False)
    l, j = np.divmod(np.array(list(SPREAD_SITES)), q)
    values = np.array(list(SPREAD_SITES.values()))
    edges, offsets, expected = [], [], []
    for b in bs.bands:
        for s in np.arange(1, 10) / 10:
            theta = b.theta_lo + s * b.width
            z = np.exp(1j * theta)
            psi = psi_of(z, bs.disc)
            amp2 = 0.0
            for sign in (1.0, -1.0):
                evals, evecs = np.linalg.eig(floquet_matrix(seq, sign * psi))
                phi = evecs[j, np.argmin(np.abs(evals - z))] * np.exp(1j * sign * l * psi)
                amp2 += abs(np.vdot(phi, values)) ** 2
            expected.append(0.5 * q * amp2 * density_factor(bs.disc, theta))
            edges.append(b.theta_lo)
            offsets.append(s * b.width)
    expected = np.array(expected)
    at_one_point = SpectralDensity(seq, SPREAD_SITES, bs.bands, bs.disc)
    pointwise = np.array([at_one_point(e + o) for e, o in zip(edges, offsets)])
    batched = _density_at(bs.disc, step_coeffs(seq.values), SPREAD_SITES,
                          np.array(edges), np.array(offsets))
    assert pointwise == pytest.approx(expected, rel=1e-10, abs=0)
    assert batched == pytest.approx(expected, rel=1e-10, abs=0)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_batched_density_resolves_nodes_below_one_ulp_of_an_edge(q):
    # near an open-gap edge g ~ C / sqrt(offset); theta = edge + 1e-17 would round onto the edge
    seq = _random_seq(q, 300 + q)
    bs = band_structure(seq, compute_masses=False)
    offsets = np.array([1e-17, 1e-15, 1e-13, 1e-11])
    steps = step_coeffs(seq.values)
    for b in bs.bands:
        for edge, sign in ((b.theta_lo, 1.0), (b.theta_hi, -1.0)):
            g = _density_at(bs.disc, steps, THREE_SITES, np.full(4, edge), sign * offsets)
            scaled = g * np.sqrt(offsets)
            assert np.ptp(scaled) <= 1e-6 * scaled.max()


def test_batched_density_of_the_free_case():
    # alpha = 0: the spectral measure of delta_0 is d theta / (2 pi); the
    # monodromy diag(1/z, z) has one vanishing eigenvector candidate off z = +/-1
    # and equals the identity at z = 1
    seq = make_periodic([0.0, 0.0], 0.5)
    disc = band_structure(seq, compute_masses=False).disc
    edges = np.array([0.0, 0.0, math.pi, math.pi, TWO_PI])
    offsets = np.array([0.3, 1.2, -0.5, 1.0, -0.7])
    steps = step_coeffs(seq.values)
    g = _density_at(disc, steps, {0: 1.0}, edges, offsets)
    assert g == pytest.approx(np.full(5, 1.0 / TWO_PI), rel=1e-12)
    with pytest.raises(EdgeProximityError):
        _density_at(disc, steps, {0: 1.0}, np.array([0.0]), np.array([0.0]))


@pytest.fixture(scope="module")
def seed7_stages():
    """The periodic sequences of the seed-7 ac stages 0, 1, 2 (periods 2, 4, 8)."""
    f = make_sampling([0.3, 0.3], 0.6)
    return [to_periodic(ac_iterate(f, 0.9, k, {0: 1.0}, 1.5, seed=7)[1]) for k in range(3)]


def test_density_distance_never_calls_the_per_node_solver(monkeypatch, seed7_stages):
    def per_node(*args, **kwargs):
        raise AssertionError("density_distance evaluated a node through floquet_solution")

    monkeypatch.setattr(specmeasure, "floquet_solution", per_node)
    seq_a, seq_b = seed7_stages[1:]
    assert seq_b.period == 8
    assert density_distance(seq_a, seq_b, {0: 1.0}, 1.5) > 0


@pytest.mark.parametrize("shift_a, shift_b", [(1e-14, 1e-14), (-1e-14, -1e-14),
                                              (1e-14, -1e-14), (-1e-14, 1e-14)])
def test_density_distance_is_stable_under_edge_shifts(monkeypatch, seed7_stages,
                                                      shift_a, shift_b):
    exact = band_structure
    for seq_a, seq_b in zip(seed7_stages, seed7_stages[1:]):
        base = density_distance(seq_a, seq_b, {0: 1.0}, 1.5)

        def shifted(seq, compute_masses=True):
            bs = exact(seq, compute_masses=compute_masses)
            s = shift_a if seq is seq_a else shift_b
            bands = tuple(dataclasses.replace(b, theta_lo=b.theta_lo + s, theta_hi=b.theta_hi + s)
                          for b in bs.bands)
            return dataclasses.replace(bs, bands=bands)

        monkeypatch.setattr(specmeasure, "band_structure", shifted)
        moved = density_distance(seq_a, seq_b, {0: 1.0}, 1.5)
        monkeypatch.undo()
        assert moved == pytest.approx(base, rel=1e-8, abs=0)


@pytest.mark.parametrize("stage", [1, 2])
def test_density_distance_is_invariant_under_rotation(seed7_stages, stage):
    # alpha_n -> lam^(n+1) alpha_n with lam^q = 1 rotates the spectrum and the
    # spectral measure of delta_0 by arg(lam); some rotations put a band across 2 pi
    seq_a, seq_b = seed7_stages[stage - 1:stage + 1]
    base = density_distance(seq_a, seq_b, {0: 1.0}, 1.5)

    def rotated(seq, lam):
        return dataclasses.replace(
            seq, values=tuple(v * lam ** (n + 1) for n, v in enumerate(seq.values)))

    for j in range(1, seq_a.period):
        lam = np.exp(2j * np.pi * j / seq_a.period)
        moved = density_distance(rotated(seq_a, lam), rotated(seq_b, lam), {0: 1.0}, 1.5)
        assert moved == pytest.approx(base, rel=1e-8, abs=0)


def test_density_distance_converges_in_the_node_count(monkeypatch, seed7_stages):
    for seq_a, seq_b in zip(seed7_stages, seed7_stages[1:]):
        coarse = density_distance(seq_a, seq_b, {0: 1.0}, 1.5)
        monkeypatch.setattr(specmeasure, "_DISTANCE_NODES", 2 * specmeasure._DISTANCE_NODES)
        fine = density_distance(seq_a, seq_b, {0: 1.0}, 1.5)
        monkeypatch.undo()
        assert fine == pytest.approx(coarse, rel=1e-4, abs=0)
