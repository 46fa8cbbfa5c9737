import dataclasses
import math

import numpy as np
import pytest

from cmvspectra import acceptance, specmeasure
from cmvspectra._quad import graded_pairs
from cmvspectra.cmv import assemble_window
from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.construct import ac_iterate
from cmvspectra.floquet import band_structure, floquet_matrix
from cmvspectra.odometer import make_sampling, to_periodic
from cmvspectra.specmeasure import (
    EdgeProximityError,
    SpectralDensity,
    _amplitude_sum,
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
            sol = floquet_solution(seq, z)
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
    bs = band_structure(constant_seq(0.5), compute_masses=False)
    eq = equilibrium_density(bs)
    for b in bs.bands:
        assert np.all(eq(np.full(11, b.theta_lo), np.linspace(0.01, 0.99, 11) * b.width) >= 0.0)


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
    # theta = pi is the touching point of a closed gap: the density is finite
    # and continuous there, not the roundoff of 0 / 0
    for theta in (math.pi - 1e-7, math.pi, math.pi + 1e-7):
        assert d(theta) == pytest.approx(0.1837763, rel=1e-6)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_a_density_rejects_an_angle_that_is_not_finite(theta):
    d = density(make_periodic([0.3, 0.2j], 0.6), {0: 1.0})
    with pytest.raises(ValueError, match="theta"):
        d(theta)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_density_rejects_a_source_that_is_not_finite(value):
    with pytest.raises(ValueError, match="finite"):
        density(make_periodic([0.3, 0.2], 0.6), {0: 1.0, 2: value})


def test_lt_integral_free_case_oracle():
    # equilibrium density of the free case is 1/(2 pi); its L^t integral over
    # the full circle is (2 pi)^{1 - t}
    seq = make_periodic([0.0, 0.0], 0.5)
    bs = band_structure(seq, compute_masses=False)
    eq = equilibrium_density(bs)
    t = 1.5
    val, err = lt_integral(eq, bs.bands, t)
    assert val == pytest.approx(TWO_PI ** (1 - t), abs=1e-6)
    assert err < 1e-6


def test_lt_integral_finite_with_band_edges():
    d = density(constant_seq(0.5), {0: 1.0})
    val, err = lt_integral(d.at, d.bands, 1.5)
    assert np.isfinite(val) and val > 0
    assert err < 1e-2 * max(val, 1.0)


def test_lt_integral_calls_the_field_once_per_band_and_refinement():
    d = density(_random_seq(8, 311), THREE_SITES)
    sizes = []

    def field(edges, offsets):
        sizes.append(len(offsets))
        return d.at(edges, offsets)

    lt_integral(field, d.bands, 1.5)
    assert sizes == [128] * 8 + [64] * 8


def test_lt_integral_converges_on_the_lt_finiteness_input():
    # the criterion's own input; at t = 1.8 the nodes lie as close as 1e-17 to an edge
    seq = acceptance._random_seq(np.random.default_rng(79), 4, scale=0.15, r=0.6)
    bs = band_structure(seq, compute_masses=False)
    v = equilibrium_density(bs)
    _, err = lt_integral(v, bs.bands, 1.8)
    assert err <= 1e-5


def test_density_distance_identical_is_zero():
    c = density(constant_seq(0.5), {0: 1.0})
    assert density_distance(c, c, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_density_distance_positive_and_shrinking():
    base, near, far = (density(constant_seq(a), {0: 1.0}) for a in (0.5, 0.505, 0.55))
    d_near = density_distance(base, near, 1.5)
    d_far = density_distance(base, far, 1.5)
    assert 0 < d_near < d_far


THREE_SITES = {0: 1.0, 1: 0.5 - 0.25j, 5: -0.3}


def _random_seq(q, seed):
    rng = np.random.default_rng(seed)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    return make_periodic(list(vals), 0.6)


def _interior_v(disc, theta):
    """V = |Delta'| / (q pi sqrt(4 - Delta^2)), formed directly from the Laurent coefficients.

    A reference away from the band edges: near one, 4 - Delta^2 cancels.
    """
    k = np.arange(disc.q + 1) - disc.q // 2
    terms = disc.laurent_coeffs * np.exp(1j * k * theta)
    slope = abs((1j * k * terms).sum().real)
    return slope / (disc.q * math.pi * math.sqrt(4.0 - terms.sum().real ** 2))


def _per_node_density(seq, disc, u, theta):
    """g at theta from psi_of, the per-node floquet_solution and _interior_v."""
    sol = floquet_solution(seq, np.exp(1j * theta))
    phi = np.stack([sol.phi_plus, sol.phi_minus], axis=1)[:, :, None]
    return float(_amplitude_sum(phi, np.array([sol.psi]), u)[0]) * _interior_v(disc, theta)


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
    got = SpectralDensity(seq, THREE_SITES, bs).at(np.array(edges), np.array(offsets))
    for g, edge, offset in zip(got, edges, offsets):
        theta = edge + offset
        ref = _per_node_density(seq, bs.disc, THREE_SITES, theta)
        # the reference forms 4 - Delta^2 directly, so it carries that
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
            expected.append(0.5 * q * amp2 * _interior_v(bs.disc, theta))
            edges.append(b.theta_lo)
            offsets.append(s * b.width)
    expected = np.array(expected)
    at_one_point = SpectralDensity(seq, SPREAD_SITES, bs)
    pointwise = np.array([at_one_point(e + o) for e, o in zip(edges, offsets)])
    batched = at_one_point.at(np.array(edges), np.array(offsets))
    assert pointwise == pytest.approx(expected, rel=1e-10, abs=0)
    assert batched == pytest.approx(expected, rel=1e-10, abs=0)


@pytest.mark.parametrize("amax", [0.3, 0.6])
@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_density_moments_match_powers_of_the_cmv_matrix(q, amax):
    # an oracle without Floquet theory: int e^{ik theta} g(theta) d theta = <u, E^k u>,
    # E on a window that E^k u never reaches the edge of; the sign of k pins that of theta
    rng = np.random.default_rng([500, q, int(10 * amax)])
    vals = amax * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.7)
    u = {n: complex(*rng.normal(size=2)) for n in range(-3, 4)}
    d = density(seq, u)
    moments = np.zeros(13, dtype=complex)
    for b in d.bands:
        edges, offsets, weights = graded_pairs(b.theta_lo, b.theta_hi, 64, 2)
        g = d.at(edges, offsets)
        moments += np.exp(1j * np.multiply.outer(np.arange(13), edges + offsets)) @ (weights * g)
    # E^k u lies on sites -3 - 2k .. 3 + 2k, inside the window -40 .. 39 for k <= 12
    E = assemble_window(seq.value_at, -40, 80)
    vec = np.zeros(80, dtype=complex)
    vec[[n + 40 for n in u]] = list(u.values())
    powers = []
    w = vec
    for _ in range(13):
        powers.append(np.vdot(vec, w))
        w = E @ w
    assert np.max(np.abs(moments - np.array(powers))) <= 1e-12


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_batched_density_resolves_nodes_below_one_ulp_of_an_edge(q):
    # near an open-gap edge g ~ C / sqrt(offset); theta = edge + 1e-17 would round onto the edge
    seq = _random_seq(q, 300 + q)
    bs = band_structure(seq, compute_masses=False)
    offsets = np.array([1e-17, 1e-15, 1e-13, 1e-11])
    d = SpectralDensity(seq, THREE_SITES, bs)
    for b in bs.bands:
        for edge, sign in ((b.theta_lo, 1.0), (b.theta_hi, -1.0)):
            g = d.at(np.full(4, edge), sign * offsets)
            scaled = g * np.sqrt(offsets)
            assert np.ptp(scaled) <= 1e-6 * scaled.max()


def test_batched_density_of_the_free_case():
    # alpha = 0: the spectral measure of delta_0 is d theta / (2 pi); the
    # monodromy diag(1/z, z) has one vanishing eigenvector candidate off z = +/-1
    # and equals the identity at z = 1
    seq = make_periodic([0.0, 0.0], 0.5)
    bs = band_structure(seq, compute_masses=False)
    d = SpectralDensity(seq, {0: 1.0}, bs)
    edges = np.array([0.0, 0.0, math.pi, math.pi, TWO_PI])
    offsets = np.array([0.3, 1.2, -0.5, 1.0, -0.7])
    g = d.at(edges, offsets)
    assert g == pytest.approx(np.full(5, 1.0 / TWO_PI), rel=1e-12)
    with pytest.raises(EdgeProximityError):
        d.at(np.array([0.0]), np.array([0.0]))


@pytest.fixture(scope="module")
def seed7_stages():
    """The periodic sequences of the seed-7 ac stages 0, 1, 2 (periods 2, 4, 8)."""
    f = make_sampling([0.3, 0.3], 0.6)
    return [to_periodic(ac_iterate(f, 0.9, k, {0: 1.0}, 1.5, seed=7)[1]) for k in range(3)]


def _delta_0_densities(seqs):
    """The spectral densities of delta_0 for seqs, without sampling, as ac_iterate builds them."""
    out = []
    for seq in seqs:
        bs = band_structure(seq, compute_masses=False)
        out.append(SpectralDensity(seq, {0: 1.0}, bs))
    return out


def test_density_distance_never_calls_the_per_node_solver(monkeypatch, seed7_stages):
    def per_node(*args, **kwargs):
        raise AssertionError("density_distance evaluated a node through floquet_solution")

    monkeypatch.setattr(specmeasure, "floquet_solution", per_node)
    a, b = _delta_0_densities(seed7_stages[1:])
    assert b.seq.period == 8
    assert density_distance(a, b, 1.5) > 0


def test_density_distance_never_builds_a_band_structure(monkeypatch, seed7_stages):
    def rebuilt(*args, **kwargs):
        raise AssertionError("density_distance rebuilt a band structure")

    a, b = _delta_0_densities(seed7_stages[1:])
    monkeypatch.setattr(specmeasure, "band_structure", rebuilt)
    monkeypatch.setattr(specmeasure, "discriminant", rebuilt)
    assert density_distance(a, b, 1.5) > 0


def test_a_density_computes_its_step_coefficients_once(monkeypatch, seed7_stages):
    a, b = _delta_0_densities(seed7_stages[1:])
    calls = []
    original = specmeasure.step_coeffs
    monkeypatch.setattr(specmeasure, "step_coeffs", lambda v: calls.append(None) or original(v))
    first = density_distance(a, b, 1.5)
    assert density_distance(a, b, 1.5) == first
    assert len(calls) == 2  # once per density, not once per density per call


def test_a_density_holds_its_samples_not_a_grid_of_pairs(retained_kib):
    # the 2048 fine-node values of q = 16 take 16 KiB; the (theta, g) grid took 32
    seq = _random_seq(16, 2300)
    d = density(seq, THREE_SITES)
    assert retained_kib(lambda: density(seq, THREE_SITES)) <= 20
    # grid pairs each sample with the theta of its node
    nodes = [graded_pairs(b.theta_lo, b.theta_hi, 64, 2) for b in d.bands]
    edges, offsets = (np.concatenate(x) for x in zip(*(n[:2] for n in nodes)))
    assert d.grid.shape == (2048, 2)
    assert np.array_equal(d.grid[:, 0], edges + offsets)
    assert np.array_equal(d.grid[:, 1], d.at(edges, offsets))


def test_densities_compare_by_value():
    seq = make_periodic([0.3, 0.2], 0.6)
    assert density(seq, {0: 1.0}) == density(seq, {0: 1.0})
    assert density(seq, {0: 1.0}) != density(seq, {1: 1.0})


def _shifted(d, s):
    """d with every band and gap edge moved by s."""
    bs = d.structure
    bands, gaps = (tuple(dataclasses.replace(a, theta_lo=a.theta_lo + s, theta_hi=a.theta_hi + s)
                         for a in arcs) for arcs in (bs.bands, bs.gaps))
    return dataclasses.replace(d, structure=type(bs)(bs.q, bands, gaps, bs.disc))


@pytest.mark.parametrize("shift_a, shift_b", [(1e-14, 1e-14), (-1e-14, -1e-14),
                                              (1e-14, -1e-14), (-1e-14, 1e-14)])
def test_density_distance_is_stable_under_edge_shifts(seed7_stages, shift_a, shift_b):
    densities = _delta_0_densities(seed7_stages)
    for a, b in zip(densities, densities[1:]):
        base = density_distance(a, b, 1.5)
        moved = density_distance(_shifted(a, shift_a), _shifted(b, shift_b), 1.5)
        assert moved == pytest.approx(base, rel=1e-8, abs=0)


@pytest.mark.parametrize("stage", [1, 2])
def test_density_distance_is_invariant_under_rotation(seed7_stages, stage):
    # alpha_n -> lam^(n+1) alpha_n with lam^q = 1 rotates the spectrum and the
    # spectral measure of delta_0 by arg(lam); some rotations put a band across 2 pi
    seq_a, seq_b = seed7_stages[stage - 1:stage + 1]
    base = density_distance(*_delta_0_densities([seq_a, seq_b]), 1.5)

    def rotated(seq, lam):
        return dataclasses.replace(
            seq, values=tuple(v * lam ** (n + 1) for n, v in enumerate(seq.values)))

    for j in range(1, seq_a.period):
        lam = np.exp(2j * np.pi * j / seq_a.period)
        moved = density_distance(
            *_delta_0_densities([rotated(seq_a, lam), rotated(seq_b, lam)]), 1.5)
        assert moved == pytest.approx(base, rel=1e-8, abs=0)


def test_density_distance_converges_in_the_node_count(monkeypatch, seed7_stages):
    densities = _delta_0_densities(seed7_stages)
    for a, b in zip(densities, densities[1:]):
        coarse = density_distance(a, b, 1.5)
        monkeypatch.setattr(specmeasure, "_DISTANCE_NODES", 2 * specmeasure._DISTANCE_NODES)
        fine = density_distance(a, b, 1.5)
        monkeypatch.undo()
        assert fine == pytest.approx(coarse, rel=1e-4, abs=0)
