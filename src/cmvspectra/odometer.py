"""Dyadic odometer group, its finite quotients, and coset-table sampling functions.

The group is the inverse limit of Z/2^k with the +1 (add-with-carry)
translation.  A level-k sampling function is constant on the cosets of the
index-2^k subgroup, so it reads a hull point only mod 2^k; hull points are
integers here, which meet every coset.  The sequence alpha(n) = f(T^n omega)
f induces is 2^k-periodic.  Everything here is exact: tables are finite, no
function approximation is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import PeriodicSeq, check_radius, complex_from_json, validate_alpha


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
    return SamplingFn(f.table * (1 << (k_new - f.level)), f.r)


def sup_distance(f: SamplingFn, g: SamplingFn) -> float:
    """Exact uniform distance, after lifting both tables to the finer level."""
    k = max(f.level, g.level)
    tf = lift(f, k).table
    tg = lift(g, k).table
    return max(abs(a - b) for a, b in zip(tf, tg))


def to_periodic(f: SamplingFn, omega: int = 0) -> PeriodicSeq:
    """Induced periodic sequence alpha(n) = f(T^n omega), of period 2^k and at least 2.

    The values are f's table, lifted to level 1 at least, rotated to start at
    the hull point omega, an integer read mod the period.
    """
    table = lift(f, max(f.level, 1)).table
    start = omega % len(table)
    return PeriodicSeq(table[start:] + table[:start], f.r)
