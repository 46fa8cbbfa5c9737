import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmvspectra.cmv import (
    assemble_window,
    cmv_entry,
    diff_norm_bound_seq,
    theta_blocks,
)
from cmvspectra.coeffs import make_periodic
from cmvspectra.odometer import make_sampling, to_periodic


def _random_alpha(seed, scale=0.4):
    rng = np.random.default_rng(seed)
    vals = {}

    def alpha(n):
        if n not in vals:
            s = np.random.default_rng((seed, n % (1 << 20), n < 0))
            vals[n] = scale * (s.uniform(-1, 1) + 1j * s.uniform(-1, 1)) / np.sqrt(2)
        return vals[n]

    return alpha


def test_window_entries_match_closed_form():
    alpha = _random_alpha(3)
    w = assemble_window(alpha, -4, 12)
    assert isinstance(w, np.ndarray)
    for i in range(12):
        for j in range(12):
            assert w[i, j] == pytest.approx(cmv_entry(alpha, i - 4, j - 4), abs=1e-14)


def test_entry_bandwidth_is_five_diagonal():
    alpha = _random_alpha(9)
    for m in range(-6, 6):
        for n in range(-9, 9):
            if abs(n - m) > 2:
                assert cmv_entry(alpha, m, n) == 0.0


def test_interior_rows_are_orthonormal():
    # interior rows/columns of a window coincide with the two-sided unitary
    alpha = _random_alpha(17)
    w = assemble_window(alpha, 0, 16)
    assert isinstance(w, np.ndarray)
    G = w @ w.conj().T
    inner = G[4:12, 4:12]
    assert np.allclose(inner, np.eye(8), atol=1e-12)


def test_windows_agree_on_overlap():
    alpha = _random_alpha(23)
    w1 = assemble_window(alpha, -2, 10)
    w2 = assemble_window(alpha, 2, 10)
    # rows/cols 4.. of w1 equal rows/cols ..6 of w2
    assert isinstance(w1, np.ndarray) and isinstance(w2, np.ndarray)
    assert np.allclose(w1[4:, 4:], w2[:6, :6], atol=1e-14)


def test_window_validation():
    alpha = _random_alpha(1)
    with pytest.raises(ValueError):
        assemble_window(alpha, 1, 8)  # odd offset
    with pytest.raises(ValueError):
        assemble_window(alpha, 0, 2)  # too small


def test_diff_norm_bound_zero_for_identical():
    f = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    assert diff_norm_bound_seq(f, f) == 0.0


def test_diff_norm_bound_dominates_finite_window_norm():
    f = make_periodic([0.1, -0.2, 0.3j, 0.05], 0.5)
    g = make_periodic([0.12, -0.21, 0.28j, 0.06], 0.5)
    bound = diff_norm_bound_seq(f, g)
    dim = 64
    wf = assemble_window(f.value_at, 0, dim)
    wg = assemble_window(g.value_at, 0, dim)
    assert isinstance(wf, np.ndarray) and isinstance(wg, np.ndarray)
    actual = np.linalg.norm(wf - wg, 2)
    assert actual <= bound + 1e-12
    assert bound <= 10 * actual  # not wildly pessimistic


def test_diff_norm_bound_handles_different_periods():
    f = make_periodic([0.1, -0.2], 0.5)
    g = make_periodic([0.1, -0.2, 0.1, -0.19], 0.5)
    assert diff_norm_bound_seq(f, g) > 0


def _random_seq(rng, q, scale=0.5):
    vals = scale * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    return make_periodic(list(vals), 0.9)


def _tiled(seq, period):
    return make_periodic([seq.value_at(n) for n in range(period)], seq.r)


def _perturbed(rng, seq, period, size):
    """seq tiled to the given period, each value moved by size in a random direction."""
    bump = size * np.exp(2j * np.pi * rng.uniform(0, 1, period))
    return make_periodic([v + b for v, b in zip(_tiled(seq, period).values, bump)], seq.r)


def _sampled_norm(entry_parts, sf, sg, grid=256):
    """max over a phase grid of ||C + e^{iT} P + e^{-iT} Q|| for the folded E_f - E_g.

    With no pad this is a lower bound on ||E_f - E_g||, the sup over all phases.
    """
    q = math.lcm(sf.period, sg.period)
    C, P, Q = (a - b for a, b in zip(entry_parts(_tiled(sf, q)), entry_parts(_tiled(sg, q))))
    return max(
        np.linalg.norm(C + np.exp(1j * t) * P + np.exp(-1j * t) * Q, 2)
        for t in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    )


@pytest.mark.parametrize("q", [2, 4, 16, 64])
@pytest.mark.parametrize("size", [1e-2, 1e-4, 1e-7])
def test_closed_form_bound_brackets_sampled_norm(entry_parts, q, size):
    rng = np.random.default_rng([q, round(-math.log10(size))])
    f = _random_seq(rng, q)
    half = _random_seq(rng, max(q // 2, 2))
    pairs = [
        (f, _perturbed(rng, f, q, size)),  # equal periods
        (half, _perturbed(rng, half, max(q, 4), size)),  # periods q/2 and q (2 and 4 at q=2)
    ]
    for sf, sg in pairs:
        sampled = _sampled_norm(entry_parts, sf, sg)
        bound = diff_norm_bound_seq(sf, sg)
        assert sampled <= bound <= 2.0 * sampled


@given(st.floats(1e-4, 1e-2))
def test_diff_norm_bound_scales_with_perturbation(delta):
    f = make_sampling((0.1, -0.2), 0.5)
    g = make_sampling((0.1 + delta, -0.2), 0.5)
    b = diff_norm_bound_seq(to_periodic(f), to_periodic(g))
    # a rank-controlled banded difference: norm between delta and a small multiple
    assert delta * 0.5 <= b <= 10 * delta



def _bound_reference(sf, sg):
    """The bound with both value tables tiled to the lcm period, one pair at a time."""
    q = math.lcm(sf.period, sg.period)
    d = (theta_blocks(np.tile(sf.values, q // sf.period))
         - theta_blocks(np.tile(sg.values, q // sg.period)))
    norms = np.linalg.norm(d[:, 0, :], axis=1)
    return float(norms[0::2].max() + norms[1::2].max())


@pytest.mark.parametrize("q", [2, 4, 6, 16, 32])
def test_stacked_bound_equals_the_per_row_bounds_bit_for_bit(q):
    rng = np.random.default_rng(q)
    mag, phase = rng.uniform(0, 1, (2, 48, q))
    rows = 0.5 * np.sqrt(mag) * np.exp(2j * np.pi * phase)
    seqs = [make_periodic(row.tolist(), 0.6) for row in rows]
    # a half-period sequence, as a construction stage's previous one, and periods 2 and 4
    # that are lifted to the lcm with q (rows of period 6 are lifted to 12 against 4)
    for sf in (_random_seq(rng, max(q // 2, 2)), _random_seq(rng, 2), _random_seq(rng, 4)):
        stacked = diff_norm_bound_seq(sf, rows)
        assert stacked.shape == (48,)
        per_row = [diff_norm_bound_seq(sf, sg) for sg in seqs]
        assert stacked.tobytes() == np.array(per_row).tobytes()
        assert per_row == [_bound_reference(sf, sg) for sg in seqs]
        assert all(type(b) is float for b in per_row)
