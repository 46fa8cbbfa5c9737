"""Verblunsky coefficient values and finite-period coefficient sequences.

A Verblunsky coefficient is a point of the open unit disk.  Every coefficient
alpha carries the companion quantity rho = sqrt(1 - |alpha|^2) > 0.  Periodic
sequences always have even period; odd input periods are doubled on
construction because the transfer-matrix and Floquet machinery downstream
requires an even period.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


def validate_alpha(value) -> complex:
    """Return value as a complex number after checking it lies strictly inside the unit disk."""
    v = complex(value)
    if abs(v) >= 1.0:
        raise ValueError(f"Verblunsky coefficient must satisfy |alpha| < 1, got |{v}| = {abs(v)}")
    return v


def complex_from_json(value) -> complex:
    """A complex value as written in JSON: a number, or a [re, im] pair."""
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(re, im)
    return complex(value)


def rho(alpha) -> float:
    """Companion radius sqrt(1 - |alpha|^2) of a coefficient in the open disk."""
    a = validate_alpha(alpha)
    return math.sqrt(1.0 - (a.real * a.real + a.imag * a.imag))


@dataclass(frozen=True)
class PeriodicSeq:
    """Two-sided coefficient sequence of even period with a declared radius bound.

    values holds one full period; value_at(n) indexes it mod the period.  The
    bound r satisfies max |values| <= r < 1 and is stored with the sequence so
    perturbation moduli and Gordon budgets see a stable declared radius.
    """

    values: tuple[complex, ...]
    r: float

    def __post_init__(self):
        if not self.values:
            raise ValueError("periodic sequence needs at least one value")
        if len(self.values) % 2 != 0:
            raise ValueError("PeriodicSeq period must be even; use make_periodic")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"radius bound must lie in (0, 1), got {self.r}")
        worst = max(abs(v) for v in self.values)
        if worst > self.r:
            raise ValueError(f"max |value| = {worst} exceeds declared bound r = {self.r}")

    @property
    def period(self) -> int:
        return len(self.values)

    def value_at(self, n: int) -> complex:
        return self.values[n % len(self.values)]

    def rho_at(self, n: int) -> float:
        return rho(self.value_at(n))

    def rho_product(self) -> float:
        """Product of rho_j over one period."""
        p = 1.0
        for v in self.values:
            p *= rho(v)
        return p

    def to_json(self) -> dict:
        return {
            "period": self.period,
            "values": [[v.real, v.imag] for v in self.values],
            "r": self.r,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicSeq":
        values = [complex_from_json(v) for v in obj["values"]]
        if len(values) != obj["period"]:
            raise ValueError("period field disagrees with number of values")
        return make_periodic(values, obj["r"])


def make_periodic(values, r: float) -> PeriodicSeq:
    """Build a PeriodicSeq, doubling an odd-length value list to get even period."""
    vals = [validate_alpha(v) for v in values]
    if not vals:
        raise ValueError("periodic sequence needs at least one value")
    if len(vals) % 2 != 0:
        vals = vals + vals
    return PeriodicSeq(tuple(vals), float(r))


def common_period(sf: PeriodicSeq, sg: PeriodicSeq) -> tuple[PeriodicSeq, PeriodicSeq]:
    """Re-express two periodic sequences with their common (lcm) period."""
    q = math.lcm(sf.period, sg.period)
    return tuple(
        s if s.period == q else PeriodicSeq(s.values * (q // s.period), s.r) for s in (sf, sg)
    )


def constant_seq(alpha, r: float | None = None) -> PeriodicSeq:
    """Period-2 constant sequence, with r defaulting to just above |alpha|."""
    a = validate_alpha(alpha)
    if r is None:
        r = min(0.5 * (abs(a) + 1.0), abs(a) + 1e-3) if abs(a) > 0 else 0.5
    return make_periodic([a, a], r)
