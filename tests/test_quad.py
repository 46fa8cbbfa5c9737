import math

import numpy as np
import pytest

from cmvspectra import floquet, specmeasure
from cmvspectra._quad import BATCH_SIZE, graded_pairs
from cmvspectra.coeffs import make_periodic
from cmvspectra.floquet import band_structure
from cmvspectra.specmeasure import density, density_distance, equilibrium_density, lt_integral


def _one_interval(lo, hi, n, m):
    """graded_pairs of one interval: its m-th root a Python float, then numpy on its nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    smax = (0.5 * (lo + hi) - lo) ** (1.0 / m)
    s = 0.5 * smax * (x + 1.0)
    offsets, weights = s**m, (0.5 * smax * w) * (m * s ** (m - 1))
    return (np.repeat([lo, hi], n), np.concatenate([offsets, -offsets]),
            np.concatenate([weights, weights]))


@pytest.mark.parametrize("m", [2, 3, 5, 6, 11])
@pytest.mark.parametrize("n", [8, 32, 48, 64, 96])
def test_each_row_of_graded_pairs_is_the_one_interval_rule_bit_for_bit(n, m):
    # band-like intervals, widths from 1e-14 to 2: the m-th root of each half-width is
    # where a vector pow could round differently from the scalar one
    rng = np.random.default_rng([n, m])
    lo = rng.uniform(0.0, 2.0 * math.pi, 200)
    hi = lo + 10.0 ** rng.uniform(-14.0, 0.3, 200)
    rows = graded_pairs(lo, hi, n, m)
    assert all(x.shape == (200, 2 * n) for x in rows)
    for i, ends in enumerate(zip(lo.tolist(), hi.tolist())):
        for got, want in zip(rows, _one_interval(*ends, n, m)):
            assert np.array_equal(got[i], want)


def _random_seq(q, seed):
    rng = np.random.default_rng(seed)
    vals = 0.5 * np.sqrt(rng.uniform(0, 1, q)) * np.exp(2j * np.pi * rng.uniform(0, 1, q))
    return make_periodic(list(vals), 0.6)


@pytest.mark.parametrize("q", [2, 4, 8, 32])
def test_every_band_integral_hands_its_field_whole_rows_under_one_batch_rule(monkeypatch, q):
    # every band field reads V through _equilibrium_at once per call, so its calls are the field's
    calls = []
    kernel = floquet._equilibrium_at

    def recording(disc, edges, offsets):
        calls.append(len(offsets))
        return kernel(disc, edges, offsets)

    monkeypatch.setattr(floquet, "_equilibrium_at", recording)
    monkeypatch.setattr(specmeasure, "_equilibrium_at", recording)
    seq, other = _random_seq(q, 700 + q), _random_seq(q, 800 + q)
    a, b = density(seq, {0: 1.0}), density(other, {0: 1.0})
    bs = a.structure
    # (integral, nodes per row: an interval's fine and coarse nodes together, rows if known,
    # the field's width: 4 for V alone, q for the fields that build Floquet solutions)
    cases = [(lambda: band_structure(seq), 2 * 96, q, 4),
             (lambda: density(seq, {0: 1.0, 1: 0.5j}), 2 * 64 + 2 * 32, q, q),
             (lambda: lt_integral(equilibrium_density(bs), bs, 1.5), 2 * 64 + 2 * 32, q, 4),
             (lambda: density_distance(a, b, 1.5), 2 * 48, None, q)]
    for run, row, rows, width in cases:
        calls.clear()
        run()
        assert calls and all(c % row == 0 and c <= max(row, BATCH_SIZE // width) for c in calls)
        if rows is not None:
            per_call = max(1, BATCH_SIZE // (width * row))
            assert sum(calls) == rows * row
            assert len(calls) == -(-rows // per_call)
    # the union of two band sets has at most 4q pieces, within the rows of one call up to
    # q = 4, so there density_distance hands each density all its rows in one call
    if 4 * q <= BATCH_SIZE // (q * 2 * 48):
        assert len(calls) == 2
