"""Budgeted construction iterations: gap opening, Cantor stages, AC stages.

Each stage doubles the sampling level (so the induced period doubles) and adds
a random coset-table perturbation under two budgets: the drift budget
``(eps/2^k)^2 / 72`` on the coefficient sup norm, and a movement budget
``(1/2^k) B_k / 3`` on the certified operator-norm bound between consecutive
stages, where B_k is the running minimum gap chord.  The movement budget keeps
the cumulative spectrum displacement past stage k below B_{k+1}/3, so the
middle third of every gap present at stage k stays free of spectrum forever
after.

Budgeting the certified movement directly (instead of converting it to a
coefficient-norm budget proportional to B_k^2) matters numerically: freshly
opened gaps have width proportional to the perturbation that opened them, so
a B_k^2 schedule collapses below the floating-point floor after one stage,
while the linear schedule decays geometrically and keeps multi-stage runs
above the gap-detection threshold.

The AC variant additionally keeps the spectral-density drift of a chosen
vector below 2^{-k} per stage.  Every stage emits a report from which the
budget ledger is auditable without re-running the construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .cmv import diff_norm_bound_seq
from .coeffs import PeriodicSeq
from .floquet import BandStructure, band_structure, min_gap
from .odometer import SamplingFn, lift, perturb, sup_distance, to_periodic
from .specmeasure import density_distance

#: perturbation radii below this cannot move double-precision tables reliably
_RADIUS_FLOOR = 1e-15

#: candidates per stage search; the radius halves every _HALVING_PERIOD attempts
_MAX_ATTEMPTS = 48
_HALVING_PERIOD = 12


class GapOpeningError(RuntimeError):
    """No candidate within the attempt cap opened every gap and passed the stage gates.

    best is the candidate with the fewest closed gaps (closed_gaps lists them);
    trail holds the reports of the stages completed before the failure.
    """

    def __init__(self, message: str, best: SamplingFn, closed_gaps: list,
                 trail: Sequence[StageReport] = ()):
        super().__init__(message)
        self.best = best
        self.closed_gaps = closed_gaps
        self.trail = list(trail)


class DensityConstraintError(GapOpeningError):
    """Candidates passed every other gate of a stage, but none met the density-drift cap.

    best is the widest-gap one of them, and closed_gaps is empty.
    """


@dataclass(frozen=True)
class StageReport:
    """Auditable record of one construction stage."""

    stage: int
    period: int
    s_norm: float
    budget_eps: float  # (eps/2^k)^2 / 72, bounds s_norm
    budget_move: float | None  # (1/2^k) B_k / 3, bounds movement; None at stage 0
    movement: float | None  # certified operator-norm bound between stages
    min_gap_before: float | None  # B_k (running minimum), None at stage 0
    min_gap_after: float  # minimal open-gap chord after the stage
    open_gap_count: int
    band_measure: float
    density_drift: float | None = None  # integral |g_{k-1} - g_k|^t, ac mode only

    def to_json(self) -> dict:
        return asdict(self)


class _Candidate(NamedTuple):
    f: SamplingFn
    seq: PeriodicSeq
    bs: BandStructure
    measured: tuple  # what the gate measured; () without a gate


def _search_candidates(
    f: SamplingFn,
    radius_cap: float,
    rng: np.random.Generator,
    gate: Callable[[SamplingFn, PeriodicSeq], tuple | None] | None = None,
) -> list[_Candidate]:
    """Perturbations of f that open every gap and pass the gate, widest minimal gap first.

    f itself is tried before any draw and, if it passes, is the only candidate
    (the zero-perturbation case).  Otherwise _MAX_ATTEMPTS random candidates
    are drawn on a halving radius ladder; ties in the minimal gap go to the
    earlier draw.  The gate sees a candidate only once all its gaps are open,
    and returns the values it measured, or None to reject it.  Raises
    GapOpeningError carrying the least-closed candidate seen if none passes.
    """
    passing: list[_Candidate] = []
    best, best_closed = None, None
    for attempt in range(-1, _MAX_ATTEMPTS):  # attempt -1 is f itself
        if attempt < 0:
            cand = f
        else:
            radius = radius_cap * 0.5 ** (attempt // _HALVING_PERIOD)
            if radius < _RADIUS_FLOOR:
                break
            cand = perturb(f, radius, rng)
        seq = to_periodic(cand)
        bs = band_structure(seq, compute_masses=False)
        closed = [g for g in bs.gaps if g.closed]
        if best is None or len(closed) < len(best_closed):
            best, best_closed = cand, closed
        if closed:
            continue
        measured = () if gate is None else gate(cand, seq)
        if measured is None:
            continue
        passing.append(_Candidate(cand, seq, bs, measured))
        if attempt < 0:
            return passing
    if not passing:
        raise GapOpeningError(
            f"no perturbation within radius {radius_cap:.3e} opened every gap within "
            f"budget in {_MAX_ATTEMPTS} attempts ({len(best_closed)} still closed)",
            best=best,
            closed_gaps=best_closed,
        )
    return sorted(passing, key=lambda c: -min_gap(c.bs))


def open_all_gaps(f: SamplingFn, eps: float, seed: int = 0) -> SamplingFn:
    """Return f-hat with sup_distance(f, f-hat) < eps and every gap open.

    If f already has all gaps open it is returned unchanged.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    rng = np.random.default_rng(seed)
    return _search_candidates(f, 0.5 * eps, rng)[0].f


def _run_stages(
    f: SamplingFn,
    eps: float,
    K: int,
    rng: np.random.Generator,
    density: tuple[Mapping[int, complex], float] | None = None,
) -> tuple[list[StageReport], SamplingFn]:
    """Stages 0..K; density = (u, t) adds the ac mode's density-drift cap."""
    reports: list[StageReport] = []
    current, prev_seq, b_k = f, None, None
    for k in range(K + 1):
        budget_eps = (eps / 2.0**k) ** 2 / 72.0
        if k == 0:
            base, budget_move, radius = f, None, 0.5 * budget_eps
        else:
            base = lift(current, current.level + 1)
            budget_move = (1.0 / 2.0**k) * b_k / 3.0
            # the movement bound scales like a small multiple of the sup distance,
            # so a radius a quarter of the movement budget keeps most candidates
            # inside it; the halving ladder covers tighter cases
            radius = min(0.8 * budget_eps, 0.25 * budget_move)

        def gate(cand: SamplingFn, seq: PeriodicSeq):
            s_norm = sup_distance(base, cand)
            if s_norm >= budget_eps:
                return None
            if prev_seq is None:
                return s_norm, None
            movement = diff_norm_bound_seq(prev_seq, seq)
            return (s_norm, movement) if movement < budget_move else None

        try:
            passing = _search_candidates(base, radius, rng, gate)
        except GapOpeningError as exc:
            raise GapOpeningError(
                f"stage {k}: {exc}", exc.best, exc.closed_gaps, trail=reports
            ) from None
        cand, drift = passing[0], None
        if density is not None and prev_seq is not None:
            u, t = density
            for cand in passing:
                drift = density_distance(prev_seq, cand.seq, u, t)
                if drift ** (1.0 / t) <= 2.0**-k:
                    break
            else:
                raise DensityConstraintError(
                    f"stage {k}: none of the {len(passing)} candidates within the sup-norm "
                    f"and movement budgets met the density-drift cap 2^-{k}",
                    best=passing[0].f,
                    closed_gaps=[],
                    trail=reports,
                )
        s_norm, movement = cand.measured
        gap = min_gap(cand.bs)
        reports.append(
            StageReport(
                stage=k,
                period=max(cand.f.period, 2),
                s_norm=s_norm,
                budget_eps=budget_eps,
                budget_move=budget_move,
                movement=movement,
                min_gap_before=b_k,
                min_gap_after=gap,
                open_gap_count=cand.bs.open_gap_count(),
                band_measure=cand.bs.total_band_measure(),
                density_drift=drift,
            )
        )
        current, prev_seq = cand.f, cand.seq
        b_k = gap if b_k is None else min(b_k, gap)
    return reports, current


def cantor_iterate(
    f: SamplingFn, eps: float, K: int, seed: int = 0
) -> tuple[list[StageReport], SamplingFn]:
    """Run K budgeted period-doubling stages after the base gap opening.

    Stage 0 opens all gaps of f within eps^2/72.  Stage k >= 1 lifts to the
    next level and perturbs so that the coefficient drift stays below
    (eps/2^k)^2/72, the certified spectrum movement stays below
    (1/2^k) B_k / 3, and every gap of the doubled period is open.  Total
    coefficient drift stays below eps^2/54 (geometric sum of stage budgets).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    rng = np.random.default_rng(seed)
    return _run_stages(f, eps, K, rng)


def ac_iterate(
    f: SamplingFn,
    eps: float,
    K: int,
    u: Mapping[int, complex],
    t: float,
    seed: int = 0,
) -> tuple[list[StageReport], SamplingFn]:
    """cantor_iterate with the per-stage spectral-density drift cap 2^{-k}.

    The drift of stage k is density_distance(f_{k-1}, f_k, u, t); its 1/t
    power must stay below 2^{-k}.  The cap is checked on the stage's gated
    candidates in descending-gap order and the first that meets it wins, which
    is feasible because the drift vanishes with the perturbation size; if none
    meets it, DensityConstraintError carries the completed stages.
    """
    if not (1.0 < t < 2.0):
        raise ValueError("t must lie strictly in (1, 2)")
    if not u:
        raise ValueError("source vector must have nonempty support")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if K < 0:
        raise ValueError("K must be nonnegative")
    u = {int(n): complex(v) for n, v in u.items()}
    rng = np.random.default_rng(seed)
    return _run_stages(f, eps, K, rng, density=(u, t))
