import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmvspectra.cmv import cmv_entry
from cmvspectra.coeffs import make_periodic, rho
from cmvspectra.transfer import (
    build_A,
    build_A_unimodular,
    estimate_lipschitz,
    four_block,
    gamma,
    step_coeffs,
    transfer_at,
)

disk = st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2 * np.pi, allow_nan=False)


@given(disk, disk, disk, angles)
def test_determinant_is_rho_ratio(a0, a1, a2, t):
    z = np.exp(1j * t)
    A = build_A(a0, a1, a2, z)
    assert A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] == pytest.approx(rho(a0) / rho(a2), abs=1e-10)


@given(disk, disk, disk, angles)
def test_unimodular_variant_has_det_one(a0, a1, a2, t):
    z = np.exp(1j * t)
    A = build_A_unimodular(a0, a1, a2, z)
    assert A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0] == pytest.approx(1.0, abs=1e-10)


def test_rejects_non_unimodular_spectral_parameter():
    with pytest.raises(ValueError):
        build_A(0.1, 0.2, 0.3, 1.1)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_step_coeffs_match_build_A(q):
    rng = np.random.default_rng(q)
    vals = 0.9 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.95)
    steps = step_coeffs(seq.values)
    assert steps.shape == (q // 2, 3, 2, 2)
    for t in (0.0, 0.7, np.pi, 4.0):
        z = np.exp(1j * t)
        for k, c in enumerate(steps):
            n = 2 * k + 1
            A = build_A(seq.value_at(n), seq.value_at(n + 1), seq.value_at(n + 2), z)
            assert np.abs(c[0] / z + c[1] + c[2] * z - A).max() <= 1e-14


@st.composite
def invertible_2x2(draw):
    # SVD form with singular values spanning several orders of magnitude
    def unit(t, p):
        return np.array(
            [[np.cos(t), -np.sin(t) * np.exp(1j * p)], [np.sin(t), np.cos(t) * np.exp(1j * p)]]
        )

    u = unit(draw(angles), draw(angles))
    v = unit(draw(angles), draw(angles))
    s1 = draw(st.floats(0.1, 100.0))
    s2 = draw(st.floats(0.001, 1.0)) * s1
    return u @ np.diag([s1, s2]).astype(complex) @ v.conj().T


@given(invertible_2x2(), angles, angles)
def test_four_block_lower_bound(A, t, p):
    x = np.array([np.cos(t), np.sin(t) * np.exp(1j * p)])
    x /= np.linalg.norm(x)
    assert four_block(A, x) >= 0.5 - 1e-10


def test_four_block_requires_unit_vector():
    with pytest.raises(ValueError):
        four_block(np.eye(2), np.array([2.0, 0.0]))


def test_lipschitz_modulus_is_positive_and_cached():
    m1 = estimate_lipschitz(0.5)
    m2 = estimate_lipschitz(0.5)
    assert m1 > 0
    assert m1 == m2  # deterministic cache


def test_lipschitz_bounds_actual_finite_differences():
    L = estimate_lipschitz(0.5)
    rng = np.random.default_rng(5)
    z = np.exp(1j * 0.3)
    for _ in range(200):
        tri = 0.45 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)) / np.sqrt(2)
        d = 1e-6 * rng.uniform(-1, 1, 3)
        a = build_A(*tri, z)
        b = build_A(*(tri + d), z)
        assert np.linalg.norm(a - b, 2) <= L * np.max(np.abs(d)) * (1 + 1e-6)


def test_gamma_decreases_in_k_and_q():
    assert gamma(2, 4, 0.5) < gamma(1, 4, 0.5)
    assert gamma(3, 8, 0.5) < gamma(2, 8, 0.5)
    assert gamma(2, 16, 0.5) < gamma(2, 8, 0.5)
    assert gamma(1, 4, 0.5) > 0


@pytest.mark.parametrize("r", [1e-7, 0.9999996])
def test_gamma_is_finite_at_radii_near_either_end_of_the_disk(r):
    # rounded to six decimals these radii are 0 and 1, where L = 0 divides gamma
    # by zero and the transfer matrix divides by rho = 0: each must be sampled as given
    g = gamma(1, 2, r)
    assert math.isfinite(g) and g > 0


def test_lipschitz_modulus_at_six_decimal_radii_is_pinned():
    assert estimate_lipschitz(0.5) == 12.40136333199199
    assert estimate_lipschitz(0.6) == 18.915467335744687


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma(0, 4, 0.5)
    with pytest.raises(ValueError):
        gamma(1, 4, 1.2)


@pytest.mark.parametrize("q", [2, 4, 16])
def test_step_coeffs_propagate_solutions_of_the_cmv_rows(q):
    # u_{n+2}, u_{n+3} = A_n (u_n, u_{n+1}) for odd n, over two periods from a
    # random start, must solve every row of E u = z u that the range covers
    rng = np.random.default_rng(40 + q)
    vals = 0.9 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    seq = make_periodic(list(vals), 0.95)
    steps = step_coeffs(seq.values)
    for t in rng.uniform(0, 2 * np.pi, 4):
        z = np.exp(1j * t)
        A = transfer_at(steps, z)
        u = {1: rng.normal() + 1j * rng.normal(), 2: rng.normal() + 1j * rng.normal()}
        for n in range(1, 2 * q, 2):
            u[n + 2], u[n + 3] = A[(n // 2) % (q // 2)] @ [u[n], u[n + 1]]
        for m in range(3, 2 * q + 1):
            terms = [cmv_entry(seq.value_at, m, k) * u[k] for k in range(m - 2, m + 3)]
            scale = sum(abs(x) for x in terms) + abs(u[m])
            assert abs(sum(terms) - z * u[m]) <= 1e-10 * scale, (m, t)
