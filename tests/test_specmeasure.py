import dataclasses
import hashlib
import math

import numpy as np
import pytest

from cmvspectra import acceptance, floquet, specmeasure
from cmvspectra._quad import graded_pairs
from cmvspectra.cmv import assemble_window
from cmvspectra.coeffs import constant_seq, make_periodic
from cmvspectra.construct import ac_iterate
from cmvspectra.floquet import band_structure, floquet_matrix
from cmvspectra.odometer import make_sampling, to_periodic
from cmvspectra.specmeasure import (
    EdgeProximityError,
    SpectralDensity,
    density,
    density_distance,
    equilibrium_density,
    floquet_solution,
    lt_integral,
    psi_of,
)
from cmvspectra.transfer import step_coeffs

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("q", [2, 4, 8, 16, 64, "near-128"])
def test_floquet_solutions_solve_the_restrictions_up_to_band_edges(q, near_constant):
    # near-128 is a period at construction depth, whose Laurent sum misreads Delta
    if q == "near-128":
        seq = near_constant(128)
    else:
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


def test_density_error_estimate_compares_two_rules_at_eight_nodes():
    # 8 fine nodes per half-band against 4 coarse ones, not the 8-node rule against itself
    d = density(make_periodic([0.3, 0.2j, -0.1, 0.25], 0.6), {0: 1.0}, n=8)
    assert d.quad_error_estimate > 0


def test_density_rejects_fewer_than_two_nodes():
    with pytest.raises(ValueError, match="n >= 2"):
        density(make_periodic([0.3, 0.2], 0.6), {0: 1.0}, n=1)


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
    val, err = lt_integral(eq, bs, t)
    assert val == pytest.approx(TWO_PI ** (1 - t), abs=1e-6)
    assert err < 1e-6


def test_lt_integral_finite_with_band_edges():
    d = density(constant_seq(0.5), {0: 1.0})
    val, err = lt_integral(d.at, d.structure, 1.5)
    assert np.isfinite(val) and val > 0
    assert err < 1e-2 * max(val, 1.0)


def test_lt_integral_converges_on_the_lt_finiteness_input():
    # the criterion's own input; at t = 1.8 the nodes lie as close as 1e-17 to an edge
    seq = acceptance._random_seq(np.random.default_rng(79), 4, scale=0.15, r=0.6)
    bs = band_structure(seq, compute_masses=False)
    v = equilibrium_density(bs)
    _, err = lt_integral(v, bs, 1.8)
    assert err <= 1e-5


@pytest.mark.parametrize("t", [1.0, 2.0, math.nan])
def test_lt_integral_and_density_distance_reject_t_outside_1_2(t):
    d = density(constant_seq(0.5), {0: 1.0})
    with pytest.raises(ValueError, match=r"t must lie strictly in \(1, 2\)"):
        lt_integral(d.at, d.structure, t)
    with pytest.raises(ValueError, match=r"t must lie strictly in \(1, 2\)"):
        density_distance(d, d, t)

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
    """g at theta from psi_of, the per-node floquet_solution's full phi and _interior_v."""
    sol = floquet_solution(seq, np.exp(1j * theta))
    q = len(sol.phi_plus)
    total = 0.0
    for phi, psi in ((sol.phi_plus, sol.psi), (sol.phi_minus, -sol.psi)):
        amp = sum(np.conj(phi[n % q] * np.exp(1j * (n // q) * psi)) * v for n, v in u.items())
        total += abs(amp) ** 2
    return 0.5 * q * total * _interior_v(disc, theta)


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
        s = 1.0 - (0.5 * float(bs.disc.eval_monodromy(theta))) ** 2
        own_roundoff = (q + 1) * np.finfo(float).eps * c_sum / s
        assert abs(g - ref) <= (1e-12 + own_roundoff) * ref


def _full_path_phi(rows, psi):
    """Both Floquet solutions at all q sites, each divided by its period norm.

    The path before only the sites of u were normalized: site j is
    rows[j - 1], site 0 is rows[-1] / lam, and the squares are summed over the
    period in site order.
    """
    phi = np.empty_like(rows)
    phi[1:] = rows[:-1]
    phi[0] = rows[-1] / np.exp(1j * np.multiply.outer([1.0, -1.0], psi))
    phi /= np.sqrt((phi.real**2 + phi.imag**2).sum(axis=0))
    return phi


def _full_path_density(d, edges, offsets):
    """g at edge + offset with every site normalized first, then the amplitude of u formed."""
    psi, v = floquet._equilibrium_at(d.disc, edges, offsets)
    rows, _ = specmeasure._floquet_solutions(d._floquet_steps, np.exp(1j * (edges + offsets)), psi)
    phi = _full_path_phi(rows, psi)
    q = len(phi)
    sites = np.array(list(d.u), dtype=int)
    l, j = np.divmod(sites, q)
    values = np.array(list(d.u.values()), dtype=complex)
    ext = phi[j] * np.exp(1j * np.multiply.outer(l, [1.0, -1.0])[:, :, None] * psi)
    amp = np.einsum("skn,s->kn", ext.conj(), values)
    return 0.5 * q * (np.abs(amp) ** 2).sum(axis=0) * v


@pytest.mark.parametrize("q", [2, 4, 16, 64])
def test_at_normalizes_only_the_sites_of_u_with_the_bits_of_the_full_path(q):
    seq = _random_seq(q, 2800 + q)
    bs = band_structure(seq, compute_masses=False)
    edges, offsets, _ = (x.ravel() for x in graded_pairs(*bs._band_ends(), 16, 5))
    # site 0 (j = 0, read as rows[-1] / lam), j = q - 1, sites in other periods (l != 0,
    # site q is j = 0 again) and negative sites; the second u has no site with j = 0
    for u in ({0: 1.0, q - 1: 0.5 - 0.25j, q: 0.4j, 2 * q + 1: -0.3, -3: 0.2 + 0.1j},
              {1: 1.0, -1: 0.3 - 0.2j}):
        d = SpectralDensity(seq, u, bs)
        assert np.array_equal(d.at(edges, offsets), _full_path_density(d, edges, offsets))


#: SHA-256 of psi, phi_plus and phi_minus of floquet_solution(_random_seq(q, 2900 + q), z)
#: at the midpoint of the first band, recorded when the batched kernel normalized every site
FLOQUET_SOLUTION_SHA256 = {
    2: "129636367b12637a53c448502dcd431e230d7cd37bd727aede747622faa455e6",
    16: "493a7d3efb0dbd3060442adf41fce5187b4bc66494c7865a9c41daff59d3f54e",
    64: "7f58f8c3dca10821d88168621569507bc374864745b150fe61e7c083f33abc3e",
}


@pytest.mark.parametrize("q", sorted(FLOQUET_SOLUTION_SHA256))
def test_floquet_solution_keeps_the_bits_of_the_full_normalization(q):
    seq = _random_seq(q, 2900 + q)
    b = band_structure(seq, compute_masses=False).bands[0]
    z = np.exp(1j * 0.5 * (b.theta_lo + b.theta_hi))
    sol = floquet_solution(seq, z)
    psi = np.array([sol.psi])
    rows, _ = specmeasure._floquet_solutions(step_coeffs(seq.values), np.array([z]), psi)
    phi = _full_path_phi(rows, psi)
    assert np.array_equal(sol.phi_plus, phi[:, 0, 0])
    assert np.array_equal(sol.phi_minus, phi[:, 1, 0])
    digest = hashlib.sha256(psi.tobytes() + sol.phi_plus.tobytes() + sol.phi_minus.tobytes())
    assert digest.hexdigest() == FLOQUET_SOLUTION_SHA256[q]


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
    edges, offsets, weights = (x.ravel() for x in graded_pairs(*d.structure._band_ends(), 64, 2))
    g = d.at(edges, offsets)
    moments = np.exp(1j * np.multiply.outer(np.arange(13), edges + offsets)) @ (weights * g)
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
    calls = {floquet: 0, specmeasure: 0}
    for module in calls:
        def counted(values, module=module, original=module.step_coeffs):
            calls[module] += 1
            return original(values)
        monkeypatch.setattr(module, "step_coeffs", counted)
    a, b = _delta_0_densities(seed7_stages[1:])
    assert calls == {floquet: 2, specmeasure: 0}  # each band structure's gap check, kept by none
    first = density_distance(a, b, 1.5)
    assert density_distance(a, b, 1.5) == first
    # once more per density for its discriminant's Laurent form, and once for its own
    # Floquet solutions, not once per density per call
    assert calls == {floquet: 4, specmeasure: 2}
    for d in (a, b):
        assert "_floquet_steps" in vars(d)
        assert set(vars(d.disc)) == {"q", "_values", "laurent_coeffs"}


def test_a_density_keeps_o_of_q_bytes_not_its_node_values(retained_kib):
    # g at the 2048 fine nodes of q = 16 took 16 KiB; a density now keeps its structure,
    # step coefficients and Laurent form, whatever its node count
    seq = _random_seq(16, 2300)
    kept = [retained_kib(lambda: density(seq, THREE_SITES, n)) for n in (64, 256)]
    assert kept[0] <= 6
    assert kept[1] <= kept[0] + 0.25
    # grid pairs each node's theta with g there, evaluated on read
    d = density(seq, THREE_SITES)
    edges, offsets, _ = (x.ravel() for x in graded_pairs(*d.structure._band_ends(), 64, 2))
    assert d.grid.shape == (2048, 2)
    assert np.array_equal(d.grid[:, 0], edges + offsets)
    assert np.array_equal(d.grid[:, 1], d.at(edges, offsets))
    assert SpectralDensity(seq, THREE_SITES, d.structure).grid.shape == (0, 2)


#: SHA-256 of density(_random_seq(q, 2300), THREE_SITES).grid, recorded when density()
#: still kept g at its nodes and grid read them back
GRID_SHA256 = {
    4: "50d68fbf9905326bf801023d922212e7c33c232ddaa6bf8d193d21654004a5bb",
    16: "50a7341ec729a78ce25a4771723bc61aa0d78d4411cb3e88afabe952fde4d7cb",
    64: "b5b218911d29d9bfe5067a6a32845fb0905aa9ec533beabee70472f53ffd8688",
}


@pytest.mark.parametrize("q", sorted(GRID_SHA256))
def test_a_grid_evaluated_on_read_has_the_bits_of_the_kept_samples(q):
    grid = density(_random_seq(q, 2300), THREE_SITES).grid
    assert grid.dtype == float and grid.flags.c_contiguous
    assert hashlib.sha256(grid.tobytes()).hexdigest() == GRID_SHA256[q]


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
