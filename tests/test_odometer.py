import math

import numpy as np
import pytest

from cmvspectra.odometer import (
    SamplingFn,
    lift,
    make_sampling,
    perturb,
    perturbed_tables,
    sup_distance,
    to_periodic,
)


def test_sampling_table_must_be_power_of_two():
    with pytest.raises(ValueError):
        make_sampling((0.1, 0.2, 0.3), 0.5)


def test_sampling_rejects_values_over_declared_radius():
    with pytest.raises(ValueError):
        make_sampling((0.1, 0.6), 0.5)


def test_perturb_keeps_projected_values_in_the_disk():
    # values pushed outside |z| <= r are projected back onto the circle; the rounded
    # projection once landed an ulp above r on 497 of these 2000 seeds
    f = make_sampling((0.6, -0.6, 0.6j, 0.42 + 0.42j), 0.6)
    for seed in range(2000):
        g = perturb(f, 0.3, np.random.default_rng(seed))
        assert max(abs(v) for v in g.table) <= 0.6


def _perturb_reference(f, radius, rng):
    """One perturbation drawn and projected value by value."""
    mag = radius * np.sqrt(rng.uniform(0.0, 1.0, f.period))
    phase = rng.uniform(0.0, 2.0 * math.pi, f.period)
    table = []
    for v, b in zip(f.table, mag * np.exp(1j * phase)):
        w = v + b
        a = abs(w)
        if a > f.r:
            scale = f.r / a
            while abs(w * scale) > f.r:
                scale = math.nextafter(scale, 0.0)
            w *= scale
        table.append(complex(w))
    return table


@pytest.mark.parametrize("table", [
    (0.1, 0.2 + 0.1j),
    (0.6, -0.6, 0.6j, 0.42 + 0.42j),  # on |alpha| = r: the projection runs
    (0.3, 0.0, -0.1j, 0.25, 0.0, 0.5, 0.1 - 0.1j, 0.0),
])
def test_stacked_draw_equals_sequential_perturbs_bit_for_bit(table):
    f = make_sampling(table, 0.6)
    radii = [0.3 * 0.5 ** (attempt // 12) for attempt in range(48)]
    projected = 0
    for seed in range(20):
        stacked, sequential = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = perturbed_tables(f, radii, stacked)
        want = np.array([_perturb_reference(f, radius, sequential) for radius in radii])
        assert rows.tobytes() == want.tobytes()
        assert stacked.bit_generator.state == sequential.bit_generator.state
        one, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.array(_perturb_reference(f, 0.3, reference))
        assert perturb(f, 0.3, one).table.tobytes() == want.tobytes()
        assert one.bit_generator.state == reference.bit_generator.state
        projected += np.count_nonzero(np.hypot(rows.real, rows.imag) == 0.6)
    assert (projected > 0) == (max(map(abs, table)) + radii[0] > 0.6)


def test_lift_preserves_values():
    f = make_sampling((0.1, 0.2 + 0.1j), 0.5)
    g = lift(f, 4)
    assert g.period == 16
    assert sup_distance(f, g) == 0.0
    assert np.array_equal(g.table, [f.table[n % 2] for n in range(16)])


def test_lift_to_own_level_is_identity():
    f = make_sampling((0.1, 0.2), 0.5)
    assert lift(f, 1) is f


def test_lift_down_is_an_error():
    f = make_sampling((0.1, 0.2, 0.3, 0.4), 0.5)
    with pytest.raises(ValueError):
        lift(f, 1)


def test_sup_distance_brute_force_oracle():
    f = make_sampling((0.0, 0.2), 0.5)
    g = make_sampling((0.0, 0.0, 0.2, 0.3), 0.5)
    # lift f to level 2: (0, 0.2, 0, 0.2); componentwise max vs g
    expected = max(abs(a - b) for a, b in zip((0.0, 0.2, 0.0, 0.2), g.table))
    assert sup_distance(f, g) == pytest.approx(expected)
    assert sup_distance(f, g) == sup_distance(g, f)
    assert sup_distance(f, f) == 0.0


def test_to_periodic_induced_sequence():
    f = make_sampling((0.1, -0.2, 0.3j, 0.05), 0.5)
    seq = to_periodic(f)
    assert seq.period == 4
    for n in range(-8, 8):
        assert seq.value_at(n) == f.table[n % 4]


def test_to_periodic_level_zero_has_period_two():
    f = make_sampling((0.3,), 0.5)
    seq = to_periodic(f)
    assert seq.period == 2
    assert seq.values.tolist() == [0.3, 0.3]


def test_to_periodic_respects_base_point():
    f = make_sampling((0.1, -0.2, 0.3j, 0.05), 0.5)
    for omega in range(-8, 9):
        seq = to_periodic(f, omega)
        for n in range(4):
            assert seq.value_at(n) == f.table[(omega + n) % 4]


@pytest.mark.parametrize("start", range(8))
def test_to_periodic_from_a_finer_base_point(start):
    # a base point given mod 8 lies in the coset start mod 4 of f's level
    f = make_sampling((0.1, -0.2, 0.3j, 0.05), 0.5)
    seq = to_periodic(f, start)
    assert seq.period == 4
    for n in range(-4, 8):
        assert seq.value_at(n) == f.table[(start + n) % 4]


def test_sampling_json_roundtrip():
    f = make_sampling((0.1 + 0.05j, -0.2), 0.6)
    assert SamplingFn.from_json(f.to_json()) == f


def test_sampling_json_checks_a_level_only_when_it_is_given():
    obj = {"table": [[0.1, 0.05], -0.2], "r": 0.6}
    assert SamplingFn.from_json(obj) == make_sampling((0.1 + 0.05j, -0.2), 0.6)
    with pytest.raises(ValueError, match="level field"):
        SamplingFn.from_json({**obj, "level": 2})
    with pytest.raises(ValueError, match="power of two"):
        SamplingFn.from_json({**obj, "table": [0.1, 0.2, 0.3]})


def test_a_sampling_table_is_read_only_and_shared_by_the_sequence_it_induces():
    f = make_sampling((0.1, -0.2, 0.3j, 0.05), 0.5)
    assert f.table.dtype == np.complex128 and not f.table.flags.writeable
    with pytest.raises(ValueError):
        f.table[0] = 0.0
    assert to_periodic(f).values is f.table
    assert to_periodic(f, 1).values.tolist() == [-0.2, 0.3j, 0.05, 0.1]
    assert f == make_sampling([0.1, -0.2, 0.3j, 0.05], 0.5)
    assert f != make_sampling([0.1, -0.2, 0.3j, 0.05], 0.6)
    with pytest.raises(TypeError):
        hash(f)


def test_sup_distance_equals_the_per_coset_scan_bit_for_bit():
    rng = np.random.default_rng(17)
    for k_f, k_g in ((0, 3), (2, 2), (4, 1)):
        f, g = (make_sampling(list(0.4 * np.exp(2j * np.pi * rng.uniform(0, 1, 1 << k))), 0.5)
                for k in (k_f, k_g))
        n = max(f.period, g.period)
        scan = max(abs(f.table.item(j % f.period) - g.table.item(j % g.period)) for j in range(n))
        assert sup_distance(f, g) == scan and type(sup_distance(f, g)) is float
