import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmvspectra.coeffs import (
    PeriodicSeq,
    constant_seq,
    make_periodic,
    rho,
    validate_alpha,
)

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


@given(disk_points)
def test_rho_pythagoras(a):
    assert rho(a) ** 2 + abs(a) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(disk_points)
def test_validate_alpha_accepts_disk(a):
    assert validate_alpha(a) == complex(a)


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.2, 0.9 + 0.6j, complex(0, 1), math.nan,
                                 complex(0.2, math.nan), math.inf])
def test_validate_alpha_rejects_boundary_and_outside(bad):
    with pytest.raises(ValueError):
        validate_alpha(bad)


def test_make_periodic_doubles_odd_lists():
    seq = make_periodic([0.1, 0.2, 0.3], 0.5)
    assert seq.period == 6
    assert [seq.value_at(n) for n in range(6)] == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]


def test_make_periodic_requires_values_and_valid_radius():
    with pytest.raises(ValueError):
        make_periodic([], 0.5)
    with pytest.raises(ValueError):
        make_periodic([0.1], 1.5)
    with pytest.raises(ValueError):
        make_periodic([0.7], 0.5)  # value exceeds declared bound


def test_value_at_is_periodic_both_directions():
    seq = make_periodic([0.1, 0.2j, -0.3, 0.05], 0.5)
    for n in range(-9, 9):
        assert seq.value_at(n) == seq.value_at(n + 4) == seq.value_at(n - 8)


def test_rho_product_matches_direct_product():
    seq = make_periodic([0.1, 0.2j, -0.3, 0.05], 0.5)
    expected = np.prod([math.sqrt(1 - abs(seq.value_at(n)) ** 2) for n in range(4)])
    assert seq.rho_product() == pytest.approx(expected, rel=1e-14)


def test_json_roundtrip():
    obj = {"period": 2, "values": [[0.1, 0.2], -0.3], "r": 0.6}
    assert PeriodicSeq.from_json(obj) == make_periodic([0.1 + 0.2j, -0.3], 0.6)


def test_json_rejects_inconsistent_period():
    obj = {"period": 4, "values": [[0.1, 0.0], [0.2, 0.0]], "r": 0.5}
    with pytest.raises(ValueError):
        PeriodicSeq.from_json(obj)


def test_json_period_is_optional():
    obj = {"values": [[0.1, 0.2], -0.3], "r": 0.6}
    assert PeriodicSeq.from_json(obj) == make_periodic([0.1 + 0.2j, -0.3], 0.6)


def test_constant_seq_default_radius():
    seq = constant_seq(0.5)
    assert seq.period == 2
    assert seq.value_at(0) == seq.value_at(1) == 0.5
    assert 0.5 < seq.r < 1.0
    assert constant_seq(0.0).r == 0.5


def test_a_table_is_a_read_only_complex_array_read_as_python_complex():
    values = np.array([0.1, 0.2j, -0.3, 0.05])
    seq = PeriodicSeq(values, 0.5)
    assert seq.values.dtype == np.complex128 and seq.values.shape == (4,)
    assert not seq.values.flags.writeable and seq.values.flags.owndata
    with pytest.raises(ValueError):
        seq.values[0] = 0.4
    values[0] = 0.4  # the caller's array was copied, not taken over
    assert seq.value_at(0) == 0.1 and type(seq.value_at(0)) is complex
    # a table that is already a read-only array of its own is shared, not copied
    assert PeriodicSeq(seq.values, 0.6).values is seq.values
    assert make_periodic([0.3, 0.1], 0.5).values.tolist() == [0.3, 0.1]


def test_periodic_sequences_compare_by_value_and_radius():
    seq = make_periodic([0.1, 0.2j], 0.5)
    assert seq == make_periodic(np.array([0.1, 0.2j]), 0.5)
    assert seq != make_periodic([0.1, 0.25j], 0.5)
    assert seq != make_periodic([0.1, 0.2j], 0.6)
    assert seq != make_periodic([0.1, 0.2j, 0.1, 0.2j], 0.5)
    with pytest.raises(TypeError):
        hash(seq)


def test_make_periodic_reports_the_first_value_outside_the_disk():
    with pytest.raises(ValueError, match=r"\|alpha\| < 1, got \|\(1\.2\+0j\)\|"):
        make_periodic([0.1, 1.2, math.nan], 0.5)
    with pytest.raises(ValueError, match="one-dimensional"):
        make_periodic([[0.1, 0.2]], 0.5)


def test_a_period_keeps_sixteen_bytes_per_value(retained_kib):
    # as a tuple of Python complex numbers a value took 40 bytes
    values = list(0.5 * np.exp(2j * np.pi * np.arange(256) / 256))
    kept = retained_kib(lambda: make_periodic(values, 0.6))
    assert 256 * 16 / 1024 <= kept <= 256 * 16 / 1024 + 1
