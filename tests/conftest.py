import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cmvspectra.cmv import cmv_entry
from cmvspectra.coeffs import make_periodic

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def _entry_parts(seq):
    """Entry-by-entry fold of rows 0..q-1 from cmv_entry: the Floquet restriction at
    phase T is C + e^{iT} P + e^{-iT} Q, P and Q holding the entries that wrap."""
    q = seq.period
    parts = {l: np.zeros((q, q), dtype=complex) for l in (-1, 0, 1)}
    for m in range(q):
        for col in range(m - 2, m + 3):
            n = col % q
            parts[(col - n) // q][m, n] += cmv_entry(seq.value_at, m, col)
    return parts[0], parts[1], parts[-1]


@pytest.fixture
def entry_parts():
    return _entry_parts


@pytest.fixture
def thin_band_values():
    """A seeded period of 256 values, |alpha| <= 0.7, with bands thinner than the
    eigensolve resolves: its phase-0 and phase-pi edges do not interlace."""
    rng = np.random.default_rng(256002)
    return 0.7 * np.sqrt(rng.uniform(0, 1, 256)) * np.exp(2j * np.pi * rng.uniform(0, 1, 256))


def _retained_kib(make) -> float:
    """KiB of traced memory that the result of make() holds: what dropping it frees.

    make runs once first, so that caches it fills are not counted.
    """
    make()
    tracemalloc.start()
    try:
        result = make()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result
        gc.collect()
        return (held - tracemalloc.get_traced_memory()[0]) / 1024
    finally:
        tracemalloc.stop()


@pytest.fixture
def retained_kib():
    return _retained_kib


def _mp_trace(mpmath, steps, theta):
    """Re tr of the product of the steps at z = e^{i theta}, in mpmath.

    Each step holds its entries a, b, c, d as their (z^-1, z^0, z^1) coefficients.
    """
    z = mpmath.expj(theta)
    zi = mpmath.conj(z)
    m = (1, 0, 0, 1)
    for step in steps:
        a, b, c, d = (lo * zi + mid + hi * z for lo, mid, hi in step)
        m = (a * m[0] + b * m[2], a * m[1] + b * m[3], c * m[0] + d * m[2], c * m[1] + d * m[3])
    return (m[0] + m[3]).real


@pytest.fixture
def mp_trace():
    return _mp_trace


def _near_constant(q):
    """A seeded near-constant period, as the constructions build: 0.5 + 1e-3 (N + iN') at
    q = 64, 0.3 + 1e-2 (N + iN') above it, N and N' standard normal."""
    base, size = (0.5, 1e-3) if q == 64 else (0.3, 1e-2)
    n = np.random.default_rng([2400, q]).standard_normal((2, q))
    return make_periodic(list(base + size * (n[0] + 1j * n[1])), 0.99)


@pytest.fixture
def near_constant():
    return _near_constant
