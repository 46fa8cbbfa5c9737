"""Verblunsky coefficient values and finite-period coefficient sequences.

A Verblunsky coefficient is a point of the open unit disk.  Every coefficient
alpha carries the companion quantity rho = sqrt(1 - |alpha|^2) > 0.  Periodic
sequences always have even period; odd input periods are doubled on
construction because the transfer-matrix and Floquet machinery downstream
requires an even period.

A coefficient table (`PeriodicSeq.values`, and in the other modules
`SamplingFn.table` and `CoefficientWindow.values`) is one read-only 1-D
complex128 array.  Its constructor converts the input once (`as_table`), and
every layer reads the array in place; a table that already is such an array
and owns its memory is taken as it is, so a sequence and the sampling
function it came from can share one.  Single values are read as Python
complex numbers (`value_at`), which keeps the scalar paths' arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def validate_alpha(value) -> complex:
    """Return value as a complex number after checking it lies strictly inside the unit disk."""
    v = complex(value)
    if not abs(v) < 1.0:  # NaN fails every comparison
        raise ValueError(f"Verblunsky coefficient must satisfy |alpha| < 1, got |{v}| = {abs(v)}")
    return v


def complex_from_json(value) -> complex:
    """A complex value as written in JSON: a number, or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(re, im)
    return complex(value)


def as_table(values) -> np.ndarray:
    """values as a coefficient table: a read-only 1-D complex128 array.

    A read-only complex128 array that owns its memory is returned as it is;
    anything else is copied once, so a table is never a view that keeps a
    larger array alive, nor one its caller can still write to.
    """
    if (isinstance(values, np.ndarray) and values.dtype == complex and values.ndim == 1
            and values.base is None and not values.flags.writeable):
        return values
    table = np.array(values, dtype=complex)
    if table.ndim != 1:
        raise ValueError(f"a coefficient table is one-dimensional, got shape {table.shape}")
    table.setflags(write=False)
    return table


def magnitudes(values: np.ndarray) -> np.ndarray:
    """|v| of each complex value, as the scalar abs gives it to the last bit.

    Taken with hypot: np.abs of a complex array may take a SIMD path that
    differs from the scalar abs in the last bit.
    """
    return np.hypot(values.real, values.imag)


def alpha_table(values) -> np.ndarray:
    """as_table(values) after checking every value as validate_alpha does, with its message."""
    table = as_table(values)
    outside = ~(magnitudes(table) < 1.0)  # NaN fails every comparison
    if outside.any():
        validate_alpha(table.item(int(np.argmax(outside))))
    return table


def check_radius(table: np.ndarray, r: float) -> None:
    """A table must be nonempty and lie in the closed disk of a declared radius r in (0, 1)."""
    if len(table) == 0:
        raise ValueError("a coefficient sequence needs at least one value")
    if not (0.0 < r < 1.0):
        raise ValueError(f"radius bound must lie in (0, 1), got {r}")
    # np.max propagates a NaN, which then fails <= r
    worst = float(magnitudes(table).max())
    if not worst <= r:
        raise ValueError(f"max |value| = {worst} exceeds declared bound r = {r}")


def rho(alpha) -> float:
    """Companion radius sqrt(1 - |alpha|^2) of a coefficient in the open disk."""
    a = validate_alpha(alpha)
    return math.sqrt(1.0 - (a.real * a.real + a.imag * a.imag))


@dataclass(frozen=True, eq=False)
class PeriodicSeq:
    """Two-sided coefficient sequence of even period with a declared radius bound.

    values holds one full period as a table (see the module docstring);
    value_at(n) indexes it mod the period.  The bound r satisfies
    max |values| <= r < 1 and is stored with the sequence so perturbation
    moduli and Gordon budgets see a stable declared radius.  Two sequences are
    equal when their tables are equal value by value and their bounds are.
    """

    values: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "values", as_table(self.values))
        check_radius(self.values, self.r)
        if len(self.values) % 2 != 0:
            raise ValueError("PeriodicSeq period must be even; use make_periodic")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicSeq):
            return NotImplemented
        return self.r == other.r and np.array_equal(self.values, other.values)

    __hash__ = None

    @property
    def period(self) -> int:
        return len(self.values)

    def value_at(self, n: int) -> complex:
        return self.values.item(n % len(self.values))

    def rho_product(self) -> float:
        """Product of rho_j over one period."""
        p = 1.0
        for v in self.values.tolist():
            p *= rho(v)
        return p

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicSeq":
        values = [complex_from_json(v) for v in obj["values"]]
        if "period" in obj and len(values) != obj["period"]:
            raise ValueError("period field disagrees with number of values")
        return make_periodic(values, obj["r"])


def make_periodic(values, r: float) -> PeriodicSeq:
    """Build a PeriodicSeq, doubling an odd-length value list to get even period."""
    vals = alpha_table(values)
    if not len(vals):
        raise ValueError("periodic sequence needs at least one value")
    if len(vals) % 2 != 0:
        vals = np.concatenate((vals, vals))
    return PeriodicSeq(vals, float(r))


def constant_seq(alpha, r: float | None = None) -> PeriodicSeq:
    """Period-2 constant sequence, with r defaulting to just above |alpha|."""
    a = validate_alpha(alpha)
    if r is None:
        r = min(0.5 * (abs(a) + 1.0), abs(a) + 1e-3) if abs(a) > 0 else 0.5
    return make_periodic([a, a], r)
