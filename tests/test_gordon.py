import json
import math
from pathlib import Path

import numpy as np
import pytest

from cmvspectra.coeffs import make_periodic
from cmvspectra.floquet import band_structure
from cmvspectra.gordon import (
    CoefficientWindow,
    InfeasibleBudgetError,
    WindowTooShortError,
    check_gordon,
    construct_gordon_approximant,
    growth_ratio,
)
from cmvspectra.odometer import make_sampling, sup_distance, to_periodic
from cmvspectra.transfer import gamma


def _periodic_window(seq, q_max):
    return CoefficientWindow.from_periodic(seq, -2 * q_max + 1, 2 * q_max + 1)


def test_exactly_periodic_sequence_passes_all_scales():
    seq = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    schedule = [(k, 4 * k) for k in (1, 2, 3)]
    cert = check_gordon(_periodic_window(seq, 12), schedule)
    assert cert.passed
    for c in cert.checks:
        assert c.lhs == 0.0
        assert c.rhs == pytest.approx(gamma(c.k, c.q_k, 0.5) / 4.0)


def test_single_defect_fails_once_budget_shrinks():
    seq = make_periodic([0.1, -0.2], 0.5)
    vals = list(CoefficientWindow.from_periodic(seq, -25, 25).values)
    vals[25] += 0.1  # defect at n = 0
    window = CoefficientWindow(-25, tuple(vals), 0.5)
    cert = check_gordon(window, [(k, 2 * k) for k in (1, 2, 3)])
    assert not cert.passed
    # once gamma(k, q_k, r)/4 drops below the 0.1 defect the check fails
    for c in cert.checks:
        assert c.passed == (c.lhs <= c.rhs)
        assert c.lhs >= 0.1 - 1e-12


def test_schedule_validation():
    seq = make_periodic([0.1, -0.2], 0.5)
    w = _periodic_window(seq, 8)
    with pytest.raises(ValueError):
        check_gordon(w, [])
    with pytest.raises(ValueError):
        check_gordon(w, [(1, 3)])  # odd q
    with pytest.raises(ValueError):
        check_gordon(w, [(1, 4), (2, 4)])  # not increasing


def test_window_too_short_raises():
    seq = make_periodic([0.1, -0.2], 0.5)
    w = CoefficientWindow.from_periodic(seq, -5, 5)
    with pytest.raises(WindowTooShortError):
        check_gordon(w, [(1, 8)])


@pytest.mark.parametrize(
    "values, r",
    [
        ((), 0.5),  # empty
        ((0.9,) * 81, 0.3),  # values beyond the declared radius
        ((0.2, 1.0), 0.5),  # a value on the unit circle
        ((0.2, 0.1), 1.0),  # radius not below 1
        ((0.2, 0.1), 0.0),
        ((math.nan, 0.2), 0.6),  # NaN fails every comparison, in any position
        ((0.2, math.nan), 0.6),
    ],
)
def test_window_validates_its_values_and_radius(values, r):
    with pytest.raises(ValueError):
        CoefficientWindow(-40, values, r)


def test_growth_ratio_free_case_is_one():
    seq = make_periodic([0.0, 0.0], 0.5)
    z = np.exp(1j * 0.9)
    assert growth_ratio(seq, z, 4) == pytest.approx(1.0, abs=1e-12)


def test_growth_ratio_lower_bound_on_band_points():
    seq = make_periodic([0.2, -0.1, 0.15j, 0.05], 0.5)
    bs = band_structure(seq, compute_masses=False)
    for b in bs.bands:
        for s in (0.25, 0.5, 0.75):
            z = np.exp(1j * (b.theta_lo + s * b.width))
            assert growth_ratio(seq, z, seq.period) >= 0.5 - 1e-9


def test_growth_ratio_validates_arguments():
    seq = make_periodic([0.1, -0.2], 0.5)
    with pytest.raises(ValueError):
        growth_ratio(seq, 1.0, 3)


def test_approximant_passes_and_stays_close():
    f = make_sampling((0.2, -0.1), 0.6)
    eps = 0.05
    g, cert = construct_gordon_approximant(f, eps, K=3, seed=0)
    assert cert.passed
    assert sup_distance(f, g) < eps
    assert g.level == f.level + 3


def test_approximant_deterministic_under_seed():
    f = make_sampling((0.2, -0.1), 0.6)
    g1, _ = construct_gordon_approximant(f, 0.05, K=2, seed=5)
    g2, _ = construct_gordon_approximant(f, 0.05, K=2, seed=5)
    g3, _ = construct_gordon_approximant(f, 0.05, K=2, seed=6)
    assert g1.table == g2.table
    assert g1.table != g3.table


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
def test_approximant_rejects_eps_that_is_not_finite_and_positive(eps):
    # a NaN eps once gave an all-NaN table with a passing certificate
    with pytest.raises(ValueError, match="eps"):
        construct_gordon_approximant(make_sampling([0.3, 0.1], 0.5), eps, 2, seed=1)


def test_approximant_on_the_boundary_of_its_radius():
    # perturbations of a table on |alpha| = r get projected back onto the circle,
    # which once rounded above r on 12 of these 40 seeds
    f = make_sampling([0.5, -0.5], 0.5)
    for seed in range(40):
        g, _ = construct_gordon_approximant(f, 0.5, 2, seed=seed)
        assert max(abs(v) for v in g.table) <= 0.5


def test_approximant_k_zero_returns_certified_lift():
    f = make_sampling((0.2, -0.1), 0.6)
    g, cert = construct_gordon_approximant(f, 0.05, K=0, seed=0)
    assert cert.passed
    assert sup_distance(f, g) == 0.0


def test_infeasible_budget_reports_deepest_scale():
    f = make_sampling((0.2, -0.1), 0.6)
    with pytest.raises(InfeasibleBudgetError) as exc:
        construct_gordon_approximant(f, 0.05, K=5, seed=0)
    assert 1 <= exc.value.deepest_k < 5


def test_approximant_induced_sequence_nearly_repeats():
    f = make_sampling((0.2, -0.1), 0.6)
    g, cert = construct_gordon_approximant(f, 0.05, K=2, seed=0)
    seq = to_periodic(g)
    # the final function is exactly periodic with its own period, so every
    # scheduled scale whose q_k is a multiple of the period has lhs = 0
    for c in cert.checks:
        if c.q_k % seq.period == 0:
            assert c.lhs == 0.0


#: Gordon approximants, each table value as its repr, recorded before perturb became
#: the one-row case of a stacked draw; the last two project values onto |alpha| = r
GORDON_PINS = json.loads(
    (Path(__file__).parent / "data" / "construction_pins.json").read_text()
)["gordon"]


@pytest.mark.parametrize("pin", GORDON_PINS, ids=lambda p: f"{p['table']}-seed{p['seed']}")
def test_approximant_is_bit_identical_to_its_pin(pin):
    f = make_sampling(pin["table"], pin["r"])
    g, cert = construct_gordon_approximant(f, pin["eps"], pin["K"], seed=pin["seed"])
    assert [[repr(v.real), repr(v.imag)] for v in g.table] == pin["final"]
    assert cert.passed == pin["passed"]
