"""Dyadic odometer group, its finite quotients, and coset-table sampling functions.

The group is the inverse limit of Z/2^k with the +1 (add-with-carry)
translation.  A level-k point represents a coset of the index-2^k subgroup;
a level-k sampling function is constant on those cosets, so the coefficient
sequence alpha(n) = f(T^n omega) it induces is 2^k-periodic.  Everything here
is exact: tables are finite, no function approximation is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicSeq, complex_from_json, validate_alpha


@dataclass(frozen=True)
class OdometerPoint:
    """Group element truncated to level k, stored as k binary digits, least significant first."""

    digits: tuple[int, ...]

    def __post_init__(self):
        if any(d not in (0, 1) for d in self.digits):
            raise ValueError("digits must be 0 or 1")

    @property
    def level(self) -> int:
        return len(self.digits)

    @property
    def index(self) -> int:
        """Integer in [0, 2^k) with the digits as its binary expansion."""
        return sum(d << i for i, d in enumerate(self.digits))

    @classmethod
    def from_index(cls, value: int, level: int) -> "OdometerPoint":
        value %= 1 << level
        return cls(tuple((value >> i) & 1 for i in range(level)))

    def to_json(self) -> dict:
        return {"level": self.level, "digits": "".join(str(d) for d in self.digits)}

    @classmethod
    def from_json(cls, obj: dict) -> "OdometerPoint":
        digits = tuple(int(c) for c in obj["digits"])
        if len(digits) != obj["level"]:
            raise ValueError("level field disagrees with digit string length")
        return cls(digits)


def zero(level: int) -> OdometerPoint:
    return OdometerPoint((0,) * level)


def translate(omega: OdometerPoint, steps: int) -> OdometerPoint:
    """Apply the +1 odometer `steps` times (negative steps invert)."""
    return OdometerPoint.from_index(omega.index + steps, omega.level)


@dataclass(frozen=True)
class SamplingFn:
    """Level-k sampling function given by its 2^k coset table of disk values."""

    table: tuple[complex, ...]
    r: float

    def __post_init__(self):
        n = len(self.table)
        if n == 0 or n & (n - 1):
            raise ValueError("table length must be a power of two")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"radius bound must lie in (0, 1), got {self.r}")
        worst = max(abs(v) for v in self.table)
        if worst > self.r:
            raise ValueError(f"max |table value| = {worst} exceeds declared bound r = {self.r}")

    @property
    def level(self) -> int:
        return len(self.table).bit_length() - 1

    @property
    def period(self) -> int:
        return len(self.table)

    def __call__(self, omega: OdometerPoint) -> complex:
        if omega.level < self.level:
            raise ValueError(
                f"point at level {omega.level} is coarser than sampling function level {self.level}"
            )
        return self.table[omega.index % self.period]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "table": [[v.real, v.imag] for v in self.table],
            "r": self.r,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingFn":
        table = tuple(complex_from_json(v) for v in obj["table"])
        if len(table) != 1 << obj["level"]:
            raise ValueError("level field disagrees with table size")
        return cls(table, obj["r"])


def make_sampling(table, r: float) -> SamplingFn:
    return SamplingFn(tuple(validate_alpha(v) for v in table), float(r))


def perturb(f: SamplingFn, radius: float, rng: np.random.Generator) -> SamplingFn:
    """f plus a random bump, uniform in the disk of the given radius, on every coset.

    The magnitudes are drawn first, then the phases; a value pushed outside
    the disk |z| <= f.r is projected radially back onto its boundary.
    """
    mag = radius * np.sqrt(rng.uniform(0.0, 1.0, f.period))
    phase = rng.uniform(0.0, 2.0 * math.pi, f.period)
    table = []
    for v, b in zip(f.table, mag * np.exp(1j * phase)):
        w = v + b
        a = abs(w)
        table.append(w if a <= f.r else w * (f.r / a))
    return make_sampling(table, f.r)


def sample_sequence(f: SamplingFn, omega: OdometerPoint, n_min: int, n_max: int) -> list[complex]:
    """Coefficients alpha(n) = f(T^n omega) for n in [n_min, n_max] inclusive."""
    if omega.level < f.level:
        raise ValueError("omega must be at least as fine as the sampling function")
    base = omega.index
    return [f.table[(base + n) % f.period] for n in range(n_min, n_max + 1)]


def lift(f: SamplingFn, k_new: int) -> SamplingFn:
    """Re-express f at a finer level; each coset splits with an unchanged image."""
    if k_new < f.level:
        raise ValueError(f"cannot lift level-{f.level} function down to level {k_new}")
    size = 1 << k_new
    return SamplingFn(tuple(f.table[i % f.period] for i in range(size)), f.r)


def sup_distance(f: SamplingFn, g: SamplingFn) -> float:
    """Exact uniform distance, after lifting both tables to the finer level."""
    k = max(f.level, g.level)
    tf = lift(f, k).table
    tg = lift(g, k).table
    return max(abs(a - b) for a, b in zip(tf, tg))


def to_periodic(f: SamplingFn, omega: OdometerPoint | None = None) -> PeriodicSeq:
    """Induced periodic coefficient sequence (period 2^k, at least 2) for a given base point."""
    if omega is None:
        omega = zero(f.level)
    period = max(f.period, 2)
    values = sample_sequence(lift(f, max(f.level, 1)), translate(zero(max(f.level, 1)), omega.index), 0, period - 1)
    return PeriodicSeq(tuple(values), f.r)
