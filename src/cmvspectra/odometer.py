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

from .coeffs import PeriodicSeq, check_radius, complex_from_json, validate_alpha


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


def zero(level: int) -> OdometerPoint:
    return OdometerPoint((0,) * level)


def translate(omega: OdometerPoint, steps: int) -> OdometerPoint:
    """Apply the +1 odometer `steps` times (negative steps invert)."""
    return OdometerPoint.from_index(omega.index + steps, omega.level)


@dataclass(frozen=True, slots=True)
class SamplingFn:
    """Level-k sampling function given by its 2^k coset table of disk values."""

    table: tuple[complex, ...]
    r: float

    def __post_init__(self):
        n = len(self.table)
        if n == 0 or n & (n - 1):
            raise ValueError("table length must be a power of two")
        check_radius(self.table, self.r)

    @property
    def level(self) -> int:
        return len(self.table).bit_length() - 1

    @property
    def period(self) -> int:
        return len(self.table)

    def __call__(self, omega: OdometerPoint) -> complex:
        _check_level(self, omega)
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


def _check_level(f: SamplingFn, omega: OdometerPoint) -> None:
    """f is constant on the cosets of omega's level only if that level is at least f's."""
    if omega.level < f.level:
        raise ValueError(
            f"point at level {omega.level} is coarser than sampling function level {f.level}"
        )


def make_sampling(table, r: float) -> SamplingFn:
    return SamplingFn(tuple(validate_alpha(v) for v in table), float(r))


#: perturbation radii below this cannot move double-precision tables reliably
RADIUS_FLOOR = 1e-15


def perturbed_tables(f: SamplingFn, radii, rng: np.random.Generator) -> np.ndarray:
    """Coset tables of N perturbations of f, one per radius: an (N, f.period) array.

    Row i is f plus a random bump, uniform in the disk of radius radii[i], on
    every coset.  One (N, 2, period) draw gives each row its magnitudes, then
    its phases, so the rows take the generator's values exactly as N calls of
    perturb would.  A value pushed outside the disk |z| <= f.r is projected
    radially back onto its boundary.
    """
    radii = np.asarray(radii, dtype=float)
    u = rng.random((len(radii), 2, f.period))
    mag = radii[:, None] * np.sqrt(u[:, 0])
    phase = 2.0 * math.pi * u[:, 1]
    values = np.array(f.table) + mag * np.exp(1j * phase)
    # hypot, not np.abs: it matches the scalar abs to the last bit
    for i, j in zip(*np.nonzero(np.hypot(values.real, values.imag) > f.r)):
        w = values[i, j]
        scale = f.r / abs(w)
        # the rounded |w scale| can land an ulp above r
        while abs(w * scale) > f.r:
            scale = math.nextafter(scale, 0.0)
        values[i, j] = w * scale
    return values


def perturb(f: SamplingFn, radius: float, rng: np.random.Generator) -> SamplingFn:
    """f plus a random bump, uniform in the disk of the given radius, on every coset.

    This is the one-row case of perturbed_tables: the magnitudes are drawn
    first, then the phases, and a value pushed outside the disk |z| <= f.r is
    projected radially back onto its boundary.
    """
    return SamplingFn(tuple(perturbed_tables(f, [radius], rng)[0].tolist()), f.r)


def lift(f: SamplingFn, k_new: int) -> SamplingFn:
    """Re-express f at a finer level; each coset splits with an unchanged image.

    At f's own level this is f itself.
    """
    if k_new < f.level:
        raise ValueError(f"cannot lift level-{f.level} function down to level {k_new}")
    if k_new == f.level:
        return f
    size = 1 << k_new
    return SamplingFn(tuple(f.table[i % f.period] for i in range(size)), f.r)


def sup_distance(f: SamplingFn, g: SamplingFn) -> float:
    """Exact uniform distance, after lifting both tables to the finer level."""
    k = max(f.level, g.level)
    tf = lift(f, k).table
    tg = lift(g, k).table
    return max(abs(a - b) for a, b in zip(tf, tg))


def to_periodic(f: SamplingFn, omega: OdometerPoint | None = None) -> PeriodicSeq:
    """Induced periodic sequence alpha(n) = f(T^n omega), of period 2^k and at least 2.

    omega defaults to the zero point; like f itself, it must not be coarser
    than f.  The values are f's table, lifted to level 1 at least, rotated to
    start at omega.
    """
    table = lift(f, max(f.level, 1)).table
    start = 0
    if omega is not None:
        _check_level(f, omega)
        start = omega.index % len(table)
    return PeriodicSeq(table[start:] + table[:start], f.r)
