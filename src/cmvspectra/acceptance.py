"""Acceptance suite: one function per criterion, runnable standalone or via CLI.

Each criterion returns a CriterionResult with the measured worst-case value
and its tolerance; `run_criteria` executes a filtered subset.  The functions
are deterministic (fixed seeds) and each stays well under a minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cmv import cmv_entry, diff_norm_bound_seq
from .coeffs import PeriodicSeq, constant_seq, make_periodic, rho
from .construct import ac_iterate, cantor_iterate
from .floquet import (TWO_PI, band_structure, discriminant, floquet_matrix,
                      spectrum_displacement)
from .gordon import (
    CoefficientWindow,
    check_gordon,
    construct_gordon_approximant,
    growth_ratio,
)
from .odometer import make_sampling, sup_distance, to_periodic
from .specmeasure import density, equilibrium_density, lt_integral
from .transfer import build_A, build_A_unimodular, four_block


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": float(self.measured),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


def _random_triples(rng, n, r=0.95):
    mag = r * np.sqrt(rng.uniform(0, 1, (n, 3)))
    phase = rng.uniform(0, TWO_PI, (n, 3))
    return mag * np.exp(1j * phase)


def _random_seq(rng, q, scale=0.25, r=0.8) -> PeriodicSeq:
    vals = []
    for _ in range(q):
        v = complex(rng.normal(0, scale), rng.normal(0, scale))
        if abs(v) > 0.95 * r:
            v *= 0.95 * r / abs(v)
        vals.append(v)
    return make_periodic(vals, r)


def _det2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _worst_det_defect(build, target) -> float:
    """max |det build(a0, a1, a2, z) - target(a0, a2)| on seeded random triples and circle points."""
    rng = np.random.default_rng(11)
    zs = np.exp(1j * rng.uniform(0, TWO_PI, 100))
    worst = 0.0
    for i, (a0, a1, a2) in enumerate(_random_triples(rng, 1000)):
        d = _det2(build(a0, a1, a2, zs[i % 100]))
        worst = max(worst, abs(d - target(a0, a2)))
    return worst


def transfer_determinant() -> CriterionResult:
    """det A_n = rho_n / rho_{n+2} on random triples and circle points."""
    worst = _worst_det_defect(build_A, lambda a0, a2: rho(a0) / rho(a2))
    return CriterionResult("transfer-determinant", worst < 1e-12, worst, 1e-12)


def transfer_unimodular() -> CriterionResult:
    """det of the rescaled transfer matrix is exactly 1."""
    worst = _worst_det_defect(build_A_unimodular, lambda a0, a2: 1.0)
    return CriterionResult("transfer-unimodular", worst < 1e-12, worst, 1e-12)


def recurrence_consistency() -> CriterionResult:
    """Transfer-propagated vectors satisfy the CMV eigen-rows."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for q in (2, 4, 6):
        seq = _random_seq(rng, q)
        bs = band_structure(seq, compute_masses=False)
        for _ in range(20):
            band = bs.bands[rng.integers(len(bs.bands))]
            s = rng.uniform(0.2, 0.8)
            z = np.exp(1j * (band.theta_lo + s * band.width))
            u = {1: complex(rng.normal(), rng.normal()), 2: complex(rng.normal(), rng.normal())}
            n = 1
            while n + 3 <= 13:
                A = build_A(seq.value_at(n), seq.value_at(n + 1), seq.value_at(n + 2), z)
                vec = A @ np.array([u[n], u[n + 1]])
                u[n + 2], u[n + 3] = vec[0], vec[1]
                n += 2
            # rows fully supported on the propagated range [1, 12]
            for m in range(3, 11):
                lhs = sum(cmv_entry(seq.value_at, m, j) * u[j] for j in range(m - 2, m + 3))
                worst = max(worst, abs(lhs - z * u[m]) / max(1.0, abs(u[m])))
    return CriterionResult("recurrence-consistency", worst < 1e-10, worst, 1e-10)


def floquet_determinant() -> CriterionResult:
    """det(z - E_q(T)) = (prod rho) z^{q/2} [Delta(z) - 2 cos T]."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for q in (2, 4, 6, 8):
        seq = _random_seq(rng, q)
        disc = discriminant(seq)
        rp = seq.rho_product()
        for _ in range(50):
            phi = rng.uniform(0, TWO_PI)
            z = np.exp(1j * phi)
            theta = rng.uniform(0.05, math.pi - 0.05)
            if rng.uniform() < 0.5:
                theta += math.pi
            lhs = np.linalg.det(z * np.eye(q) - floquet_matrix(seq, theta))
            rhs = rp * z ** (q // 2) * (disc.eval_real(phi) - 2.0 * math.cos(theta))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    return CriterionResult("floquet-determinant", worst < 1e-9, worst, 1e-9)


def free_discriminant() -> CriterionResult:
    """alpha = 0 gives Delta(z) = z^{q/2} + z^{-q/2}."""
    worst = 0.0
    for q in (2, 4, 6, 8):
        disc = discriminant(make_periodic([0.0] * q, 0.5))
        expect = np.zeros(q + 1)
        expect[0] = expect[q] = 1.0
        worst = max(worst, float(np.max(np.abs(disc.laurent_coeffs - expect))))
    return CriterionResult("free-discriminant", worst < 1e-12, worst, 1e-12)


def band_laws() -> CriterionResult:
    """Band count q, |Delta| = 2 at edges, arcs <= 2 pi / q, masses 1/q, V >= 1/(2 pi)."""
    rng = np.random.default_rng(43)
    worst = 0.0
    for q in (2, 4, 6):
        seq = _random_seq(rng, q)
        bs = band_structure(seq)
        if len(bs.bands) != q:
            return CriterionResult("band-laws", False, float(len(bs.bands)), q,
                                   f"expected {q} bands")
        v = equilibrium_density(bs)
        for band in bs.bands:
            edge_defect = max(
                abs(abs(bs.disc.eval_real(band.theta_lo)) - 2.0),
                abs(abs(bs.disc.eval_real(band.theta_hi)) - 2.0),
            )
            arc_excess = band.width - TWO_PI / q
            mass_defect = abs(band.mass - 1.0 / q)
            interior = v(np.full(9, band.theta_lo), np.linspace(0.1, 0.9, 9) * band.width)
            v_defect = max(0.0, 1.0 / TWO_PI - float(interior.min()))
            # express every sub-check as a ratio to its own tolerance
            worst = max(
                worst,
                edge_defect / 1e-9 * 1e-6,
                arc_excess / 1e-9 * 1e-6,
                mass_defect,
                v_defect / 1e-9 * 1e-6,
            )
    return CriterionResult("band-laws", worst < 1e-6, worst, 1e-6,
                           "worst sub-check scaled to the 1e-6 mass tolerance")


def theta_union() -> CriterionResult:
    """Hausdorff distance between bands and the eigenangle union shrinks with the grid."""
    rng = np.random.default_rng(47)
    seq = _random_seq(rng, 14, scale=0.15)
    bs = band_structure(seq, compute_masses=False)

    def hausdorff(n_grid: int) -> float:
        thetas = np.linspace(0, TWO_PI, n_grid, endpoint=False)
        points = np.linalg.eigvals(floquet_matrix(seq, thetas)).ravel()
        # direction 1: every union point lies in (or at) a band
        d1 = float(np.max(bs._distance(np.angle(points[::7]) % TWO_PI)))
        # direction 2: every band point is near a union point
        d2 = 0.0
        for b in bs.bands:
            for s in np.linspace(0, 1, 48):
                z = np.exp(1j * (b.theta_lo + s * b.width))
                d2 = max(d2, float(np.min(np.abs(z - points))))
        return max(d1, d2)

    h500 = hausdorff(500)
    h1000 = hausdorff(1000)
    passed = h500 < 1e-3 and h1000 <= h500 + 1e-12
    return CriterionResult("theta-union", passed, h500, 1e-3,
                           f"grid 500: {h500:.2e}, grid 1000: {h1000:.2e}")


def constant_gap() -> CriterionResult:
    """alpha = 0.5 has the gap at theta = 0 with edges +/- pi/3, cross-checked on a Theta grid."""
    seq = constant_seq(0.5)
    bs = band_structure(seq, compute_masses=False)
    gap = min((g for g in bs.gaps if not g.closed), key=lambda g: abs(np.exp(1j * 0.5 * (g.theta_lo + g.theta_hi)) - 1.0))
    lo = gap.theta_lo % TWO_PI
    hi = gap.theta_hi % TWO_PI
    # brute-force oracle: union of eigenangles over a dense Theta grid
    thetas = np.linspace(0, TWO_PI, 4000, endpoint=False)
    angles = np.sort(np.angle(np.linalg.eigvals(floquet_matrix(seq, thetas))).ravel() % TWO_PI)
    interior = angles[(angles > 0.02) & (angles < math.pi / 3 + 0.3)]
    oracle_edge = float(interior.min())
    # the grid oracle resolves the edge only to ~ grid spacing; 1e-6 applies to
    # the band-structure edges, the oracle corroborates at its own resolution
    passed = max(abs(lo - (TWO_PI - math.pi / 3)), abs(hi - math.pi / 3)) < 1e-6 and abs(
        oracle_edge - math.pi / 3
    ) < 5e-3
    measured = max(abs(lo - (TWO_PI - math.pi / 3)), abs(hi - math.pi / 3))
    return CriterionResult("constant-gap", passed, measured, 1e-6,
                           f"grid oracle edge defect {abs(oracle_edge - math.pi/3):.2e}")


def resolvent_law() -> CriterionResult:
    """||(E_q(T) - z)^{-1}|| * dist(z, spectrum) = 1 off the spectrum."""
    rng = np.random.default_rng(53)
    worst = 0.0
    for q in (2, 4, 6):
        seq = _random_seq(rng, q)
        for _ in range(34):
            theta = rng.uniform(0, TWO_PI)
            E = floquet_matrix(seq, theta)
            eig = np.linalg.eigvals(E)
            z = (1 + rng.uniform(0.05, 1.0)) * np.exp(1j * rng.uniform(0, TWO_PI))
            dist = float(np.min(np.abs(eig - z)))
            nrm = float(np.linalg.norm(np.linalg.inv(E - z * np.eye(q)), 2))
            worst = max(worst, abs(nrm * dist - 1.0))
    return CriterionResult("resolvent-law", worst < 1e-9, worst, 1e-9)


def perturbation_laws() -> CriterionResult:
    """sup distance < eps^2/72 forces norm estimate <= eps; movement <= norm bound."""
    rng = np.random.default_rng(59)
    worst_ratio = 0.0
    for eps in (0.1, 0.3, 0.6):
        for _ in range(34):
            q = int(rng.choice([2, 4]))
            f = _random_seq(rng, q)
            bound = eps**2 / 72.0
            bump = bound * 0.99 * np.exp(1j * rng.uniform(0, TWO_PI, q)) * np.sqrt(
                rng.uniform(0, 1, q)
            )
            vals = [v + b for v, b in zip(f.values, bump)]
            vals = [v if abs(v) <= f.r else v * f.r / abs(v) for v in vals]
            g = PeriodicSeq(tuple(vals), f.r)
            est = diff_norm_bound_seq(f, g)
            worst_ratio = max(worst_ratio, est / eps)
    rng2 = np.random.default_rng(61)
    move_ok = True
    move_detail = -math.inf
    for _ in range(6):
        f = _random_seq(rng2, 4)
        bump = 1e-3 * np.exp(1j * rng2.uniform(0, TWO_PI, 4))
        vals = [v + b for v, b in zip(f.values, bump)]
        vals = [v if abs(v) <= f.r else v * f.r / abs(v) for v in vals]
        g = PeriodicSeq(tuple(vals), f.r)
        excess = spectrum_displacement(f, g) - diff_norm_bound_seq(f, g)
        move_ok = move_ok and excess <= 1e-8
        move_detail = max(move_detail, excess)
    passed = worst_ratio <= 1.0 and move_ok
    return CriterionResult("perturbation-laws", passed, worst_ratio, 1.0,
                           f"max displacement minus bound: {move_detail:.2e}")


def four_block_bound() -> CriterionResult:
    """max(|Ax|, |A^2 x|, |A^-1 x|, |A^-2 x|) >= 1/2 for invertible A."""
    rng = np.random.default_rng(67)
    worst = math.inf
    for _ in range(10_000):
        u_angle, v_angle = rng.uniform(0, TWO_PI, 2)
        U = np.array([[np.cos(u_angle), -np.sin(u_angle)], [np.sin(u_angle), np.cos(u_angle)]])
        V = np.array([[np.cos(v_angle), -np.sin(v_angle)], [np.sin(v_angle), np.cos(v_angle)]])
        s1 = 10.0 ** rng.uniform(-3, 3)
        cond = 10.0 ** rng.uniform(0, 6)
        A = (U * np.array([s1, s1 / cond])) @ V  # singular values s1, s1/cond
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        x /= np.linalg.norm(x)
        worst = min(worst, four_block(A.astype(complex), x))
    return CriterionResult("four-block", worst >= 0.5, worst, 0.5)


def gordon_loop() -> CriterionResult:
    """Periodic sequences pass the checker exactly; the K=3 approximant self-certifies."""
    rng = np.random.default_rng(71)
    seq = _random_seq(rng, 4)
    window = CoefficientWindow.from_periodic(seq, -2 * 16 + 1, 2 * 16 + 1)
    cert = check_gordon(window, [(1, 4), (2, 8), (3, 16)])
    exact = all(c.lhs == 0.0 for c in cert.checks) and cert.passed
    f = make_sampling([0.3, 0.1], 0.5)
    _, cert3 = construct_gordon_approximant(f, 0.05, 3, seed=5)
    worst_ratio = 2.0
    bs = band_structure(seq, compute_masses=False)
    count = 0
    while count < 100:
        band = bs.bands[rng.integers(len(bs.bands))]
        s = rng.uniform(0.05, 0.95)
        z = np.exp(1j * (band.theta_lo + s * band.width))
        worst_ratio = min(worst_ratio, growth_ratio(seq, z, 8))
        count += 1
    passed = exact and cert3.passed and worst_ratio >= 0.5 - 1e-9
    return CriterionResult("gordon-loop", passed, worst_ratio, 0.5 - 1e-9,
                           f"periodic lhs exact zero: {exact}; K=3 cert: {cert3.passed}")


def density_normalization() -> CriterionResult:
    """Total spectral-density mass reproduces ||u||^2."""
    rng = np.random.default_rng(73)
    worst = 0.0
    for q in (2, 4):
        seq = _random_seq(rng, q, scale=0.15, r=0.6)
        for u in ({0: 1.0 + 0.0j},
                  {n: complex(rng.normal(), rng.normal()) for n in range(-2, 3)}):
            norm2 = sum(abs(v) ** 2 for v in u.values())
            d = density(seq, u)
            worst = max(worst, abs(d.total_mass - norm2) / max(1.0, norm2))
    return CriterionResult("density-normalization", worst < 1e-4, worst, 1e-4)


def lt_finiteness() -> CriterionResult:
    """lt_integral Cauchy-converges under node doubling: its own error estimate."""
    rng = np.random.default_rng(79)
    seq = _random_seq(rng, 4, scale=0.15, r=0.6)
    bs = band_structure(seq, compute_masses=False)
    v = equilibrium_density(bs)
    worst = 0.0
    for t in (1.2, 1.5, 1.8):
        worst = max(worst, lt_integral(v, bs.bands, t)[1])
    return CriterionResult("lt-finiteness", worst < 1e-3, worst, 1e-3)


def cantor_run() -> CriterionResult:
    """K=3 stages from constant 0.3: all gaps open, ledger satisfied, deterministic."""
    f = make_sampling([0.3, 0.3], 0.6)
    eps = 0.9
    reports, final = cantor_iterate(f, eps, 3, seed=7)
    reports2, final2 = cantor_iterate(f, eps, 3, seed=7)
    problems = []
    if final.table != final2.table:
        problems.append("nondeterministic")
    for r in reports:
        if r.open_gap_count != r.period:
            problems.append(f"stage {r.stage}: {r.open_gap_count}/{r.period} gaps open")
        if not (r.s_norm < r.budget_eps):
            problems.append(f"stage {r.stage}: s_norm budget violated")
        if r.budget_move is not None and not (r.movement < r.budget_move):
            problems.append(f"stage {r.stage}: movement budget violated")
    drift = sup_distance(f, final)
    if not (drift < eps**2 / 54):
        problems.append("total drift budget violated")
    bs = band_structure(to_periodic(final), compute_masses=False)
    if not (bs.total_band_measure() > 0):
        problems.append("vanishing band measure")
    passed = not problems
    return CriterionResult("cantor-run", passed, drift, eps**2 / 54,
                           "; ".join(problems) or
                           f"min gap after stage 3: {reports[-1].min_gap_after:.2e}")


def ac_run() -> CriterionResult:
    """K=2 AC stages: density drift within 2^-k per stage, positive band measure."""
    f = make_sampling([0.3, 0.3], 0.6)
    t = 1.5
    reports, final = ac_iterate(f, 0.9, 2, {0: 1.0}, t, seed=7)
    worst = 0.0
    problems = []
    for r in reports[1:]:
        ratio = (r.density_drift ** (1.0 / t)) / 2.0 ** (-r.stage)
        worst = max(worst, ratio)
        if ratio > 1.0:
            problems.append(f"stage {r.stage} drift cap violated")
    bs = band_structure(to_periodic(final), compute_masses=False)
    if not (bs.total_band_measure() > 0):
        problems.append("vanishing band measure")
    passed = not problems
    return CriterionResult("ac-run", passed, worst, 1.0,
                           "; ".join(problems) or "drift^(1/t) / cap, worst stage")


CRITERIA: list[tuple[str, Callable[[], CriterionResult]]] = [
    ("transfer-determinant", transfer_determinant),
    ("transfer-unimodular", transfer_unimodular),
    ("recurrence-consistency", recurrence_consistency),
    ("floquet-determinant", floquet_determinant),
    ("free-discriminant", free_discriminant),
    ("band-laws", band_laws),
    ("theta-union", theta_union),
    ("constant-gap", constant_gap),
    ("resolvent-law", resolvent_law),
    ("perturbation-laws", perturbation_laws),
    ("four-block", four_block_bound),
    ("gordon-loop", gordon_loop),
    ("density-normalization", density_normalization),
    ("lt-finiteness", lt_finiteness),
    ("cantor-run", cantor_run),
    ("ac-run", ac_run),
]


def run_criteria(filter_substr: str | None = None) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if filter_substr and filter_substr not in name:
            continue
        results.append(fn())
    return results
