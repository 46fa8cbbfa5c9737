"""Gordon criterion: checker, growth diagnostic, and approximant construction.

A two-sided coefficient sequence is Gordon-like at scale k if it almost
repeats on windows of length q_k, within the perturbation modulus
gamma(k, q_k, r) / 4.  For such sequences the four-block transfer bound rules
out decaying solutions, so the checker certifies the hypothesis of the
no-point-spectrum criterion at finitely many scales.  The constructor produces
a sampling function close to a given one that passes the checker at scales
1..K by stacking level-(N+k) perturbations whose sizes respect the gamma
budgets of all coarser scales.

A CoefficientWindow holds its values as a coefficient table, a read-only 1-D
complex128 array (`coeffs.as_table`); the checker reads each scale's
displacements from it as whole array slices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .coeffs import PeriodicSeq, as_table, check_radius, magnitudes
from .odometer import RADIUS_FLOOR, SamplingFn, lift, perturb, sup_distance, to_periodic
from .transfer import build_A_unimodular, four_block, gamma


class WindowTooShortError(ValueError):
    """The coefficient window does not cover [-2 q_k + 1, 2 q_k + 1]."""


class InfeasibleBudgetError(RuntimeError):
    """A scheduled stage's gamma budget is below the floating-point floor."""

    def __init__(self, message: str, deepest_k: int):
        super().__init__(message)
        self.deepest_k = deepest_k


@dataclass(frozen=True, eq=False)
class CoefficientWindow:
    """Finite two-sided view alpha(n_min..n_max) with a declared radius bound.

    values[i] is alpha(n_min + i), held as a table (see the module docstring);
    two windows are equal when they start at the same index and their tables
    and radii are equal.
    """

    n_min: int
    values: np.ndarray
    r: float

    def __post_init__(self):
        object.__setattr__(self, "values", as_table(self.values))
        check_radius(self.values, self.r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientWindow):
            return NotImplemented
        return (self.n_min == other.n_min and self.r == other.r
                and np.array_equal(self.values, other.values))

    __hash__ = None

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    def alpha(self, n: int) -> complex:
        if not (self.n_min <= n <= self.n_max):
            raise WindowTooShortError(f"index {n} outside window [{self.n_min}, {self.n_max}]")
        return self.values.item(n - self.n_min)

    @classmethod
    def from_periodic(cls, seq: PeriodicSeq, n_min: int, n_max: int) -> "CoefficientWindow":
        return cls(n_min, seq.values[np.arange(n_min, n_max + 1) % seq.period], seq.r)

    @classmethod
    def from_sampling(cls, f: SamplingFn, n_min: int, n_max: int) -> "CoefficientWindow":
        return cls.from_periodic(to_periodic(f), n_min, n_max)


@dataclass(frozen=True, slots=True)
class GordonCheck:
    """One scheduled scale of the criterion."""

    k: int
    q_k: int
    r_k: float  # max coefficient modulus observed on the window
    lhs: float  # max displacement |alpha(n) - alpha(n +/- q_k)|
    rhs: float  # gamma(k, q_k, r_declared) / 4
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class GordonCertificate:
    """Per-scale pass/fail trail of the almost-repetition inequality."""

    r_declared: float
    checks: tuple[GordonCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "r_declared": self.r_declared,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def check_gordon(window: CoefficientWindow, schedule: list[tuple[int, int]]) -> GordonCertificate:
    """Audit the almost-repetition inequality lhs <= gamma(k, q_k, r)/4 per scale.

    The window must cover [-2 q_k + 1, 2 q_k + 1] for every scheduled (k, q_k);
    the schedule's q_k must be even and increasing.
    """
    if not schedule:
        raise ValueError("schedule must contain at least one (k, q_k) pair")
    prev_q = 0
    for k, q_k in schedule:
        if k < 1 or q_k < 2 or q_k % 2 != 0:
            raise ValueError(f"scheduled q_k must be even and positive, got (k={k}, q_k={q_k})")
        if q_k <= prev_q:
            raise ValueError("scheduled q_k must be increasing")
        prev_q = q_k
    q_max = schedule[-1][1]
    if window.n_min > -2 * q_max + 1 or window.n_max < 2 * q_max + 1:
        raise WindowTooShortError(
            f"window [{window.n_min}, {window.n_max}] does not cover "
            f"[{-2 * q_max + 1}, {2 * q_max + 1}]"
        )
    checks = []
    for k, q_k in schedule:
        # alpha(n) for n in [-2 q_k + 1, 2 q_k + 1]; the displacements are taken
        # for n in [-q_k + 1, q_k + 1], against n - q_k and n + q_k
        span = window.values[-2 * q_k + 1 - window.n_min:2 * q_k + 2 - window.n_min]
        centre = span[q_k:3 * q_k + 1]
        d = np.concatenate((centre - span[:2 * q_k + 1], centre - span[2 * q_k:]))
        lhs, r_k = magnitudes(d).max(), magnitudes(span).max()
        rhs = gamma(k, q_k, window.r) / 4.0
        checks.append(GordonCheck(k, q_k, float(r_k), float(lhs), float(rhs), bool(lhs <= rhs)))
    return GordonCertificate(window.r, tuple(checks))


def growth_ratio(seq: PeriodicSeq, z, q_k: int) -> float:
    """max over a = +/-1, +/-2 of ||phi(a q_k + 1)|| / ||phi(1)||.

    phi is the solution with (u_1, u_2) = (1, 0), propagated by powers of the
    q_k-step monodromy (the ordered product of two-step transfer matrices over
    odd indices 1, 3, ..., q_k - 1).  When q_k is a multiple of the period the
    monodromy is unimodular and the four-block bound makes this >= 1/2 on the
    spectrum.
    """
    if q_k < 2 or q_k % 2 != 0:
        raise ValueError(f"q_k must be a positive even integer, got {q_k}")
    # the triples repeat with the period, so one period's matrices serve every step
    steps = [build_A_unimodular(seq.value_at(n), seq.value_at(n + 1), seq.value_at(n + 2), z)
             for n in range(1, min(q_k, seq.period), 2)]
    mono = np.eye(2, dtype=complex)
    for j in range(q_k // 2):
        mono = steps[j % len(steps)] @ mono
    return float(four_block(mono, np.array([1.0, 0.0], dtype=complex)))


def construct_gordon_approximant(
    f: SamplingFn, eps: float, K: int, seed: int = 0
) -> tuple[SamplingFn, GordonCertificate]:
    """Perturb f into a level-(N+K) function passing the criterion at scales 1..K.

    Scale k uses window length q_k = k * 2^(N+k) where N = level(f) (at least
    1).  The stage-j perturbation lives at level N+j and its size is damped
    below every coarser scale's budget gamma(k, q_k, r) / 8, so the triangle
    inequality bounds the scale-k displacement of the final function by
    gamma(k, q_k, r) / 4.  sup_distance(f, result) stays below eps.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    N = max(f.level, 1)
    g = lift(f, N)
    r = f.r
    rng = np.random.default_rng(seed)
    budgets = {}  # k -> half of gamma(k, q_k, r)/4
    schedule = []
    for k in range(1, K + 1):
        q_k = k * (1 << (N + k))
        schedule.append((k, q_k))
        budgets[k] = 0.5 * gamma(k, q_k, r) / 4.0
    for j in range(1, K + 1):
        delta = 0.4 * eps * 2.0 ** (-j)
        for k in range(1, j):
            delta = min(delta, 0.4 * budgets[k] * 2.0 ** (-(j - k)))
        if delta < RADIUS_FLOOR:
            raise InfeasibleBudgetError(
                f"stage {j} perturbation budget {delta:.3e} is below the "
                f"floating-point floor; deepest achievable scale is {j - 1}",
                deepest_k=j - 1,
            )
        g = perturb(lift(g, N + j), delta, rng)
    if K == 0:
        cert_schedule = [(1, 1 << (N + 1))]
    else:
        cert_schedule = schedule
    q_max = cert_schedule[-1][1]
    window = CoefficientWindow.from_sampling(g, -2 * q_max + 1, 2 * q_max + 1)
    cert = check_gordon(window, cert_schedule)
    if sup_distance(f, g) >= eps:  # pragma: no cover - damping makes this impossible
        raise AssertionError("stage budgets exceeded the requested eps")
    return g, cert
