import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cmvspectra.cmv import cmv_entry

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
