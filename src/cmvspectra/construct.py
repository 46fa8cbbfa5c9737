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
vector below 2^{-k} per stage.  Each sequence a stage reads gets one band
structure, which also carries its spectral density to the next stage.  Every
stage emits a report from which the budget ledger is auditable without
re-running the construction.

Before any stage runs, every stage up to K is checked for a drift budget
that rounds to 0 or, from stage 1 on, leaves a radius ladder wholly below
odometer.RADIUS_FLOOR; such a run fails at once with InfeasibleStageError,
which names the deepest stage within reach.

A stage handles its candidates as one complex (N, q) array of coset tables
from start to finish: one draw (odometer.perturbed_tables), a stacked gap
screen (floquet.band_arcs, one eigensolve of both phases, then
floquet.gap_chords, with floquet.gap_is_closed deciding which gaps are
closed) per rung of the radius ladder, and the drift and movement gates as
row-wise array operations (cmv.diff_norm_bound_seq takes the stack).  A base
that is a lifted period, as every base from stage 1 on is, has every new gap
closed exactly, so it is not screened as a candidate; it is screened only
for the report of a stage that fails.  The rungs are
screened lazily, largest radius first, and the stage takes the widest
minimal gap within the first rung that has a passing row; a later rung is
screened only if no row of the earlier ones passed (or, in ac mode, none of
them met the density-drift cap).  Sampling functions and periodic sequences
are built only for the stage winner, for the candidates the density-drift cap
actually tries, and for the least-closed candidate a GapOpeningError carries.
A candidate's band structure is built from the (cuts, band, rising) arcs
its screen already labelled, so no candidate is solved twice, and a failure
lists its closed gaps (floquet.arc_gaps) from the same arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .cmv import diff_norm_bound_seq
from .coeffs import magnitudes
from .floquet import (_structure_of_arcs, arc_gaps, band_arcs, gap_chords, gap_is_closed,
                      min_gap)
# unused here; perfbench/tests asserts that the span tracer patches this binding
from .floquet import band_structure  # noqa: F401
from .odometer import RADIUS_FLOOR, SamplingFn, lift, perturbed_tables, to_periodic
from .specmeasure import SpectralDensity, _check_exponent, _source_vector, density_distance

#: candidates per stage search; the radius halves every _HALVING_PERIOD attempts, and
#: each such rung of the ladder is screened in turn
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


class InfeasibleStageError(GapOpeningError):
    """A stage's budget cannot be met in double precision, found before any candidate is screened.

    deepest_k is the deepest stage that can still be met, -1 if not even
    stage 0 can; best is the input f, closed_gaps is empty and trail is empty.
    """

    def __init__(self, message: str, best: SamplingFn, deepest_k: int):
        super().__init__(message, best, [])
        self.deepest_k = deepest_k


class DensityConstraintError(GapOpeningError):
    """Candidates passed every other gate of a stage, but none met the density-drift cap.

    best is the first of them the cap tried: the widest-gap one within the
    first rung that had a passing row.  closed_gaps is empty.
    """


@dataclass(frozen=True, slots=True)
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


def _search_candidates(
    f: SamplingFn,
    radius_cap: float,
    rng: np.random.Generator,
    gate: Callable[[np.ndarray], tuple[np.ndarray, tuple]],
) -> Iterator[tuple[SamplingFn, tuple, tuple]]:
    """Perturbations of f that open every gap and pass the gate, one radius rung at a time.

    f itself is tried before any draw and, if it passes, is the only candidate
    (the zero-perturbation case), unless its table repeats its first half.
    Such a lifted table has the discriminant Delta_p^2 - 2 of its half period
    p, so every gap new at the doubled period is closed exactly (Simon, OPUC
    Part 2, ch. 11) and f cannot pass; it is screened only if the search
    fails, for the failure report.  Otherwise _MAX_ATTEMPTS random candidates
    are drawn at once on a radius ladder that halves every _HALVING_PERIOD
    draws, skipping radii below RADIUS_FLOOR, as one (N, q) array of coset
    tables.  The ladder's rungs are screened lazily, largest radius first: a
    rung's arcs (floquet.band_arcs) and gap chords come from one stacked
    eigensolve of both phases, and the gate takes the rung's rows too: it
    returns a boolean array of the rows it accepts and a tuple of arrays of
    the values it measured.  A row passes when all its gaps are open and the
    gate accepts it.  Each rung's passing rows are yielded widest minimal gap
    first, ties to the earlier draw, so the first candidate is the widest
    within the first rung that has a passing row, and the next rung is
    screened only when the consumer asks for more.  f has level >= 1, so its
    table is the period it induces.  Each candidate comes as (sampling
    function, its row's arcs, what the gate measured): the consumer builds
    the candidate's band structure from those arcs rather than solving it
    again, and a sampling function is built only for a candidate the
    consumer asks for.  Raises GapOpeningError carrying the least-closed row
    seen, f included and first, ties to the earlier row, and that row's
    closed gaps, once every rung is screened and no row passed.
    """
    ladder = (radius_cap * 0.5 ** (attempt // _HALVING_PERIOD) for attempt in range(_MAX_ATTEMPTS))
    radii = [radius for radius in ladder if radius >= RADIUS_FLOOR]
    # one record per screen: (values, cuts, band, rising, closed gaps per row)
    screens = []

    def screen(values: np.ndarray) -> tuple[tuple, list[tuple[int, tuple]]]:
        """The arcs of values, and its passing rows with what the gate measured, widest
        minimal gap first."""
        arcs = band_arcs(values)
        chords = gap_chords(*arcs[:2])
        n_closed = np.count_nonzero(gap_is_closed(chords), axis=-1)
        passed, measured = n_closed == 0, ()
        if passed.any():
            accepted, measured = gate(values)
            passed &= accepted
        screens.append((values, *arcs, n_closed))
        min_gaps = chords.min(axis=-1)
        order = np.flatnonzero(passed)[np.argsort(-min_gaps[passed], kind="stable")]
        return arcs, [(i, tuple(float(m[i]) for m in measured)) for i in order]

    half = len(f.table) // 2
    lifted = np.array_equal(f.table[:half], f.table[half:])
    # f alone first, so that a passing f draws nothing
    if not lifted:
        arcs, passing = screen(f.table[None])
        if passing:
            yield f, tuple(a[0] for a in arcs), passing[0][1]
            return
    drawn = perturbed_tables(f, radii, rng) if radii else None
    passed_any = False
    # the floor drops whole rungs, so every rung is a slice of the draws
    for start in range(0, len(radii), _HALVING_PERIOD):
        rung = drawn[start:start + _HALVING_PERIOD]
        arcs, passing = screen(rung)
        for i, measured in passing:
            passed_any = True
            # a row's arcs are taken only when it is yielded: the consumer usually stops at
            # the first row; the sampling function copies its row, so it does not hold the rung
            yield SamplingFn(rung[i], f.r), tuple(a[i] for a in arcs), measured
    if passed_any:
        return
    if lifted:
        # its closed gaps keep it from passing; its row goes first, as when it is screened first
        screen(f.table[None])
        screens.insert(0, screens.pop())
    values, cuts, band, _, closed = map(np.concatenate, zip(*screens))
    best = int(np.argmin(closed))
    # the least-closed row's gaps, from its screened arcs: no discriminant is needed to list them
    closed_gaps = [g for g in arc_gaps(cuts[best], band[best]) if g.closed]
    if closed_gaps:
        why = (f"opened every gap within budget in {len(radii)} attempts "
               f"({len(closed_gaps)} still closed)")
    else:
        why = (f"passed the stage's drift or movement gate in {len(radii)} attempts "
               f"({np.count_nonzero(closed == 0)} of {len(closed)} candidates opened every gap)")
    raise GapOpeningError(
        f"no perturbation within radius {radius_cap:.3e} {why}",
        best=SamplingFn(values[best], f.r) if best else f,
        closed_gaps=closed_gaps,
    )


def _run_stages(
    f: SamplingFn,
    eps: float,
    K: int,
    rng: np.random.Generator,
    density: tuple[Mapping[int, complex], float] | None = None,
) -> tuple[list[StageReport], SamplingFn]:
    """Stages 0..K; density = (u, t) adds the ac mode's density-drift cap.

    Stage 0 works at level max(f.level, 1), the level of the sequence f induces.
    A stage up to K that cannot be met raises InfeasibleStageError before any
    stage runs.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if K < 0:
        raise ValueError("K must be nonnegative")
    for k in range(K + 1):
        budget_eps = (eps / 2.0**k) ** 2 / 72.0
        if budget_eps == 0.0:
            why = "rounds to 0, which no candidate meets"
        elif k and 0.8 * budget_eps < RADIUS_FLOOR:
            # a lifted base cannot pass, and the whole radius ladder lies below the floor
            why = (f"leaves a radius cap of at most {0.8 * budget_eps:.3e}, below the floor "
                   f"{RADIUS_FLOOR:g}, so no candidate can be drawn")
        else:
            continue
        reach = f"the deepest stage within reach is {k - 1}" if k else "no stage is within reach"
        raise InfeasibleStageError(
            f"stage {k}: the drift budget (eps/2^{k})^2/72 = {budget_eps:.3e} {why}; {reach}",
            best=f, deepest_k=k - 1,
        )
    reports: list[StageReport] = []
    current, prev_seq, prev_density, b_k = lift(f, max(f.level, 1)), None, None, None
    for k in range(K + 1):
        budget_eps = (eps / 2.0**k) ** 2 / 72.0
        if k == 0:
            base, budget_move, radius = current, None, 0.5 * budget_eps
        else:
            base = lift(current, current.level + 1)
            budget_move = (1.0 / 2.0**k) * b_k / 3.0
            # the movement bound scales like a small multiple of the sup distance,
            # so a radius a quarter of the movement budget keeps most candidates
            # inside it; the halving ladder covers tighter cases
            radius = min(0.8 * budget_eps, 0.25 * budget_move)

        def gate(values: np.ndarray):
            d = values - base.table
            s_norm = magnitudes(d).max(axis=-1)
            if prev_seq is None:
                return s_norm < budget_eps, (s_norm,)
            movement = diff_norm_bound_seq(prev_seq, values)
            return (s_norm < budget_eps) & (movement < budget_move), (s_norm, movement)

        # only the candidates read here become sampling functions, sequences and
        # band structures, one each; a rung whose rows all miss the density-drift
        # cap lets the search screen the next rung
        drift = stage_density = winner = None
        tried = []
        try:
            for g, arcs, measured in _search_candidates(base, radius, rng, gate):
                tried.append(g)
                seq = to_periodic(g)
                bs = _structure_of_arcs(seq, arcs, compute_masses=False)
                if density is not None:
                    u, t = density
                    stage_density = SpectralDensity(seq, u, bs)
                if stage_density is not None and prev_density is not None:
                    drift = density_distance(prev_density, stage_density, t)
                    if drift ** (1.0 / t) > 2.0**-k:
                        continue
                winner = measured
                break
        except GapOpeningError as exc:
            raise GapOpeningError(
                f"stage {k}: {exc}", exc.best, exc.closed_gaps, trail=reports
            ) from None
        if winner is None:
            raise DensityConstraintError(
                f"stage {k}: none of the {len(tried)} candidates within the sup-norm "
                f"and movement budgets met the density-drift cap 2^-{k}",
                best=tried[0],
                closed_gaps=[],
                trail=reports,
            )
        gap = min_gap(bs)
        reports.append(
            StageReport(
                stage=k,
                period=g.period,
                s_norm=winner[0],
                budget_eps=budget_eps,
                budget_move=budget_move,
                movement=winner[1] if k else None,
                min_gap_before=b_k,
                min_gap_after=gap,
                open_gap_count=bs.open_gap_count(),
                band_measure=bs.total_band_measure(),
                density_drift=drift,
            )
        )
        current, prev_seq, prev_density = g, seq, stage_density
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

    The drift of stage k is the density_distance between the spectral
    densities of u for f_{k-1} and f_k; its 1/t power must stay below 2^{-k}.
    The cap is checked on the stage's gated candidates one radius rung at a
    time, largest radius first and each rung's rows widest minimal gap first,
    and the first that meets it wins, which is feasible because the drift
    vanishes with the perturbation size; if none on the whole ladder meets it,
    DensityConstraintError carries the completed stages.
    """
    _check_exponent(t)
    u = _source_vector(u)
    rng = np.random.default_rng(seed)
    return _run_stages(f, eps, K, rng, density=(u, t))
