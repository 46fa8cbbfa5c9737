import json
import math
from pathlib import Path

import numpy as np
import pytest

from cmvspectra import construct, floquet
from cmvspectra.cmv import diff_norm_bound_seq
from cmvspectra.construct import (
    DensityConstraintError,
    GapOpeningError,
    InfeasibleStageError,
    ac_iterate,
    cantor_iterate,
)
from cmvspectra.floquet import band_structure
from cmvspectra.odometer import (lift, make_sampling, perturb, perturbed_tables, sup_distance,
                                 to_periodic)


def test_stage_zero_opens_every_gap_of_the_free_case():
    f = make_sampling((0.0, 0.0), 0.5)  # all gaps closed
    eps = 0.2
    _, g = cantor_iterate(f, eps, 0, seed=1)
    assert sup_distance(f, g) < eps**2 / 72
    bs = band_structure(to_periodic(g), compute_masses=False)
    assert bs.open_gap_count() == bs.q


def test_stage_zero_short_circuits_when_already_open():
    f = make_sampling((0.3, 0.0), 0.6)  # both gaps already open
    assert cantor_iterate(f, 0.1, 0, seed=3)[1] is f


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("run", [
    lambda f, eps: cantor_iterate(f, eps, K=1),
    lambda f, eps: ac_iterate(f, eps, 1, u={0: 1.0}, t=1.5),
], ids=["cantor_iterate", "ac_iterate"])
def test_constructions_reject_eps_that_is_not_finite(run, eps):
    with pytest.raises(ValueError, match="eps"):
        run(make_sampling((0.3, 0.0), 0.6), eps)


def test_level_zero_table_is_lifted_before_stage_zero():
    # a level-0 table induces a constant sequence, whose period-2 gap at z = -1
    # stays closed under every level-0 perturbation
    f0 = make_sampling((0.3,), 0.6)
    f1 = make_sampling((0.3, 0.3), 0.6)
    _, g = cantor_iterate(f0, 0.2, 0, seed=1)
    assert g.level == 1 and sup_distance(f0, g) < 0.2**2 / 72
    assert band_structure(to_periodic(g), compute_masses=False).open_gap_count() == 2
    for run in (lambda f: cantor_iterate(f, 0.9, K=1, seed=7),
                lambda f: ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)):
        reports, final = run(f0)
        assert [r.period for r in reports] == [2, 4]
        assert [r.open_gap_count for r in reports] == [2, 4]
        # the same draws as from the level-1 table with the same values
        assert np.array_equal(final.table, run(f1)[1].table)


def test_cantor_stage_budgets_hold():
    f = make_sampling((0.3, 0.0), 0.6)
    eps = 0.9
    reports, final = cantor_iterate(f, eps, K=2, seed=7)
    assert len(reports) == 3
    prev = None
    for r in reports:
        assert r.s_norm <= r.budget_eps
        assert r.open_gap_count == r.period  # every gap open at every stage
        if r.stage > 0:
            assert r.period == 2 * prev.period
            assert r.movement is not None and r.movement < r.budget_move
            assert r.min_gap_before is not None
        prev = r
    assert final.period == 8
    # total coefficient drift below the geometric-sum bound eps^2/54
    assert sup_distance(f, final) < eps * eps / 54.0


def test_cantor_min_gap_stays_above_detection_threshold():
    f = make_sampling((0.3, 0.0), 0.6)
    reports, _ = cantor_iterate(f, 0.9, K=3, seed=7)
    for r in reports:
        assert r.min_gap_after > 1e-9


def test_cantor_movement_matches_certified_bound():
    f = make_sampling((0.3, 0.0), 0.6)
    reports, final = cantor_iterate(f, 0.9, K=1, seed=7)
    # replay stage 0 with the same seed to recover the intermediate sequence,
    # then recompute the certified stage-1 movement independently
    _, stage0 = cantor_iterate(f, 0.9, K=0, seed=7)
    expected = diff_norm_bound_seq(to_periodic(stage0), to_periodic(final))
    assert reports[1].movement == pytest.approx(expected, rel=1e-9)


def test_cantor_deterministic_under_seed():
    f = make_sampling((0.3, 0.0), 0.6)
    _, a = cantor_iterate(f, 0.9, K=2, seed=11)
    _, b = cantor_iterate(f, 0.9, K=2, seed=11)
    _, c = cantor_iterate(f, 0.9, K=2, seed=12)
    assert np.array_equal(a.table, b.table)
    assert not np.array_equal(a.table, c.table)


def test_cantor_validates_arguments():
    f = make_sampling((0.3, 0.0), 0.6)
    with pytest.raises(ValueError):
        cantor_iterate(f, -1.0, K=1)
    with pytest.raises(ValueError):
        cantor_iterate(f, 0.5, K=-1)


def test_ac_iterate_enforces_drift_cap():
    f = make_sampling((0.3, 0.0), 0.6)
    t = 1.5
    reports, final = ac_iterate(f, 0.9, K=2, u={0: 1.0}, t=t, seed=7)
    for r in reports:
        if r.stage > 0:
            assert r.density_drift is not None
            assert r.density_drift ** (1.0 / t) <= 2.0**-r.stage + 1e-12
    assert final.period == 8


def test_ac_iterate_validates_arguments():
    f = make_sampling((0.3, 0.0), 0.6)
    with pytest.raises(ValueError):
        ac_iterate(f, 0.9, 1, u={0: 1.0}, t=2.5, seed=0)
    with pytest.raises(ValueError):
        ac_iterate(f, 0.9, 1, u={}, t=1.5, seed=0)


def test_stage_reports_serialize():
    f = make_sampling((0.3, 0.0), 0.6)
    reports, _ = cantor_iterate(f, 0.9, K=1, seed=7)
    for r in reports:
        obj = r.to_json()
        assert obj["stage"] == r.stage
        assert obj["period"] == r.period


#: stage reports and final tables of the seed-7 acceptance runs, recorded
#: before the candidate search was restructured; the cantor stage-3 band
#: measure and the ac density drifts were re-recorded when band edges became
#: the unpolished eigenangles, and every moved value again when the eigenangles
#: came from the Cayley-transformed Hermitian eigensolve (same winners, relative
#: moves up to 2.1e-10)
LEDGERS = json.loads((Path(__file__).parent / "data" / "seed7_ledgers.json").read_text())


@pytest.mark.parametrize("mode", ["cantor", "ac"])
def test_seed7_ledger_is_unchanged(mode):
    ledger = LEDGERS[mode]
    p = ledger["params"]
    f = make_sampling(p["table"], p["r"])
    if mode == "cantor":
        reports, final = cantor_iterate(f, p["eps"], p["K"], seed=p["seed"])
    else:
        reports, final = ac_iterate(f, p["eps"], p["K"], p["u"], p["t"], seed=p["seed"])
    assert len(reports) == len(ledger["stages"])
    for report, want in zip(reports, ledger["stages"]):
        got = report.to_json()
        assert got.keys() == want.keys()
        for key, value in want.items():
            if value is None or key in ("stage", "period", "open_gap_count"):
                assert got[key] == value, (report.stage, key)
            else:
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0), (report.stage, key)
    got = final.to_json()
    assert got["level"] == ledger["final"]["level"]
    assert got["r"] == ledger["final"]["r"]
    flat = [x for v in got["table"] for x in v]
    want = [x for v in ledger["final"]["table"] for x in v]
    assert flat == pytest.approx(want, rel=1e-12, abs=0)


def test_ac_drift_cap_failure_keeps_completed_stages(monkeypatch):
    monkeypatch.setattr(construct, "density_distance", lambda *args: 1.0)
    f = make_sampling((0.3, 0.0), 0.6)
    with pytest.raises(DensityConstraintError) as info:
        ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert isinstance(info.value, GapOpeningError)
    assert str(info.value).startswith("stage 1:")
    assert [r.stage for r in info.value.trail] == [0]


def test_ac_gap_opening_failure_is_not_a_density_error(monkeypatch):
    drifts = []
    monkeypatch.setattr(construct, "diff_norm_bound_seq", lambda *args: math.inf)
    monkeypatch.setattr(construct, "density_distance", lambda *args: drifts.append(1) or 0.0)
    f = make_sampling((0.3, 0.0), 0.6)
    with pytest.raises(GapOpeningError) as info:
        ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert type(info.value) is GapOpeningError
    assert str(info.value).startswith("stage 1:")
    assert [r.stage for r in info.value.trail] == [0]
    assert drifts == []  # the drift cap never ran


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_screens(monkeypatch) -> list:
    """Record the number of rows of every gap screen the construction runs."""
    screened = []
    band_arcs = construct.band_arcs

    def screen(values):
        screened.append(len(values))
        return band_arcs(values)

    monkeypatch.setattr(construct, "band_arcs", screen)
    return screened


def _count_stage_work(monkeypatch, run) -> dict:
    """Run the construction and count its band structures, discriminants, sequences and screens."""
    counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (construct, "_structure_of_arcs"), (floquet, "discriminant"), (construct, "to_periodic"))}
    counts["screened"] = _count_screens(monkeypatch)
    counts["reports"] = run(make_sampling([0.3, 0.3], 0.6))[0]
    return counts


def test_candidate_search_builds_a_band_structure_only_for_stage_winners(monkeypatch):
    counts = _count_stage_work(monkeypatch, lambda f: cantor_iterate(f, 0.9, 3, seed=7))
    assert len(counts["reports"]) == 4
    assert len(counts["_structure_of_arcs"]) == 4 and len(counts["discriminant"]) == 4
    # every base is lifted (stage 0's from the constant [0.3]), so every stage screens
    # only the first rung of its draws, and only its winner becomes a sequence
    assert counts["screened"] == [12] * 4
    assert len(counts["to_periodic"]) == 4


def test_ac_stages_build_one_band_structure_per_sequence(monkeypatch):
    # the drift gate compares the densities the stages carry; it rebuilds no band structure
    counts = _count_stage_work(
        monkeypatch, lambda f: ac_iterate(f, 0.9, 2, {0: 1.0}, 1.5, seed=7))
    assert [r.density_drift is not None for r in counts["reports"]] == [False, True, True]
    assert len(counts["_structure_of_arcs"]) == 3 and len(counts["discriminant"]) == 3
    assert counts["screened"] == [12] * 3
    assert len(counts["to_periodic"]) == 3


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_ac_iterate_rejects_a_source_that_is_not_finite(monkeypatch, value):
    screens = _count_calls(monkeypatch, construct, "gap_chords")
    with pytest.raises(ValueError, match="finite"):
        ac_iterate(make_sampling([0.3, 0.1], 0.6), 0.9, 2, {0: value}, 1.5, seed=7)
    assert screens == []  # rejected before any candidate is screened


def _accept_all(values):
    return np.ones(len(values), bool), ()


def test_a_passing_f_draws_nothing():
    f = make_sampling((0.3, 0.0), 0.6)  # both gaps already open
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert [g for g, _, _ in construct._search_candidates(f, 0.1, rng, _accept_all)] == [f]
    assert rng.bit_generator.state == state


def test_a_gate_that_rejects_the_first_rung_takes_the_second_rungs_widest_row(monkeypatch):
    f = make_sampling((0.0, 0.0), 0.5)  # lifted, both gaps closed: the search draws
    screened = _count_screens(monkeypatch)
    gated = []

    def gate(values):
        # every row of the first rung is rejected, every later row accepted
        gated.append(len(values))
        return np.full(len(values), len(gated) > 1), ()

    g, arcs, _ = next(construct._search_candidates(f, 0.1, np.random.default_rng(1), gate))
    assert screened == [12, 12] and gated == [12, 12]
    ladder = [0.1 * 0.5 ** (i // construct._HALVING_PERIOD) for i in range(construct._MAX_ATTEMPTS)]
    second = perturbed_tables(f, ladder, np.random.default_rng(1))[12:24]
    second_arcs = floquet.band_arcs(second)
    widest = np.argmax(floquet.gap_chords(*second_arcs[:2]).min(axis=-1))
    assert np.array_equal(g.table, second[widest])
    # the candidate carries its own row of the rung's arcs
    assert all(np.array_equal(a, b[widest]) for a, b in zip(arcs, second_arcs))


def test_a_candidate_owns_its_table_rather_than_viewing_its_rung(retained_kib):
    # a lifted base of period 64 draws a rung of 12 rows, 12 KiB; its winner keeps 1 KiB
    rng = np.random.default_rng(9)
    v = 0.3 * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(2j * np.pi * rng.uniform(0, 1, 8))
    base = lift(make_sampling(list(v), 0.6), 6)

    def winner():
        rng = np.random.default_rng(1)
        return next(construct._search_candidates(base, 1e-3, rng, _accept_all))[0]

    g = winner()
    assert g.period == 64 and g != base
    assert g.table.base is None and g.table.flags.owndata and not g.table.flags.writeable
    assert retained_kib(winner) <= 2
    _, final = cantor_iterate(make_sampling((0.3, 0.0), 0.6), 0.9, K=2, seed=7)
    assert final.table.base is None and final.table.flags.owndata


def test_a_search_without_a_passing_row_screens_every_rung(monkeypatch):
    f = make_sampling((0.0, 0.0), 0.5)
    screened = _count_screens(monkeypatch)
    reject = lambda values: (np.zeros(len(values), bool), ())  # noqa: E731
    with pytest.raises(GapOpeningError, match="in 48 attempts"):
        next(construct._search_candidates(f, 0.1, np.random.default_rng(1), reject))
    # the lifted f is screened last, for the failure report only
    assert screened == [12, 12, 12, 12, 1]


def test_a_density_cap_that_rejects_a_rung_moves_the_search_to_the_next(monkeypatch):
    # ac K=1: f passes stage 0 alone; stage 1 screens its draws, not its lifted f
    screened = _count_screens(monkeypatch)
    drifts = []

    def distance(*args):
        drifts.append(len(screened))
        return 1.0 if len(screened) == 2 else 0.0  # rejects stage 1's first rung

    monkeypatch.setattr(construct, "density_distance", distance)
    f = make_sampling((0.3, 0.0), 0.6)
    reports, _ = ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert screened == [1, 12, 12]
    assert drifts == [2] * 12 + [3] and reports[1].density_drift == 0.0

    # a cap that rejects every row screens the whole ladder before it raises
    screened.clear()
    drifts.clear()
    monkeypatch.setattr(construct, "density_distance", lambda *args: drifts.append(1) or 1.0)
    with pytest.raises(DensityConstraintError, match="none of the 48 candidates"):
        ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert screened == [1, 12, 12, 12, 12] and len(drifts) == 48


def test_gap_opening_failure_keeps_the_first_least_closed_candidate():
    f = make_sampling((0.0, 0.0), 0.5)  # both gaps closed
    with pytest.raises(GapOpeningError) as info:
        next(construct._search_candidates(
            f, 0.1, np.random.default_rng(1), gate=lambda values: (np.zeros(len(values), bool), ())
        ))
    # every draw opens both gaps, so the first draw is the least closed, not f
    assert info.value.closed_gaps == []
    assert info.value.best == perturb(f, 0.1, np.random.default_rng(1))


def test_gap_opening_failure_lists_closed_gaps_without_a_discriminant(monkeypatch):
    # the least-closed row's gaps come from its own arcs, not from a band structure
    f = make_sampling((0.0, 0.0), 0.5)  # both gaps closed
    discriminants = _count_calls(monkeypatch, floquet, "discriminant")
    band_structures = _count_calls(monkeypatch, construct, "_structure_of_arcs")
    with pytest.raises(GapOpeningError):
        next(construct._search_candidates(
            f, 0.1, np.random.default_rng(1), gate=lambda values: (np.zeros(len(values), bool), ())
        ))
    assert discriminants == [] and band_structures == []


def test_a_budget_that_rejects_every_candidate_is_not_blamed_on_closed_gaps(monkeypatch):
    # eps^2 / 72 underflows to 0 at eps = 1e-300: f has every gap open, but no
    # candidate, f included, meets a drift budget of 0, so nothing is screened
    f = make_sampling([0.3, 0.1], 0.6)
    screened = _count_screens(monkeypatch)
    with pytest.raises(InfeasibleStageError) as info:
        cantor_iterate(f, 1e-300, 1, seed=7)
    assert str(info.value) == (
        "stage 0: the drift budget (eps/2^0)^2/72 = 0.000e+00 rounds to 0, which no "
        "candidate meets; no stage is within reach"
    )
    assert info.value.closed_gaps == [] and info.value.trail == []
    assert info.value.best == f and info.value.deepest_k == -1
    assert screened == []


@pytest.mark.parametrize("run", [
    lambda f: cantor_iterate(f, 1e-7, 3, seed=7),
    lambda f: ac_iterate(f, 1e-7, 3, u={0: 1.0}, t=1.5, seed=7),
], ids=["cantor_iterate", "ac_iterate"])
def test_a_stage_whose_ladder_lies_below_the_floor_fails_before_any_screen(monkeypatch, run):
    # stage 0 could pass on f alone, but stage 1's radius cap 0.8 (eps/2)^2/72 = 2.8e-17
    # lies below RADIUS_FLOOR, and its lifted base cannot pass
    f = make_sampling([0.3, 0.1], 0.6)
    screened = _count_screens(monkeypatch)
    with pytest.raises(InfeasibleStageError) as info:
        run(f)
    assert str(info.value) == (
        "stage 1: the drift budget (eps/2^1)^2/72 = 3.472e-17 leaves a radius cap of at "
        "most 2.778e-17, below the floor 1e-15, so no candidate can be drawn; the deepest "
        "stage within reach is 0"
    )
    assert info.value.deepest_k == 0 and info.value.trail == []
    assert screened == []
    # stage 0, within reach, still runs and passes on f alone
    assert cantor_iterate(f, 1e-7, 0, seed=7)[1] is f


def test_gap_opening_failure_counts_only_the_screened_draws():
    # every radius of the ladder lies below the floor, so nothing is drawn
    f = make_sampling((0.0, 0.0), 0.5)
    with pytest.raises(GapOpeningError, match="in 0 attempts") as info:
        next(construct._search_candidates(f, 1e-16, np.random.default_rng(1), _accept_all))
    assert info.value.best == f


#: a level-3 table that repeats four seeded values with |alpha| <= 0.3, and the failure
#: reports of its search as recorded when its base was screened before any draw: at a
#: radius cap of 1e-13 every row keeps the 4 new gaps closed, so the tie goes to the
#: base; a gate that rejects every row leaves the first draw as the least closed
_LIFTED_FAILURES = {
    "tiny": (1e-13, _accept_all,
             "no perturbation within radius 1.000e-13 opened every gap within budget in 48 "
             "attempts (4 still closed)",
             [(0.804856006614072, 0.8048560066140729, 8.671119018262734e-16),
              (2.332138663755156, 2.332138663755156, 0.0),
              (3.957787569664363, 3.957787569664365, 2.198129442157285e-15),
              (5.471588374325581, 5.471588374325581, 0.0)],
             0.11734893268815676 - 0.12512686718467347j),
    "reject": (1e-3, lambda values: (np.zeros(len(values), bool), ()),
               "no perturbation within radius 1.000e-03 passed the stage's drift or movement "
               "gate in 48 attempts (48 of 49 candidates opened every gap)",
               [], 0.11666796841980252 - 0.12534620548485162j),
}


@pytest.mark.parametrize("case", sorted(_LIFTED_FAILURES))
def test_a_lifted_base_reports_its_failure_as_when_it_was_screened_first(monkeypatch, case):
    rng = np.random.default_rng(8)
    v = 0.3 * np.sqrt(rng.uniform(0, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    base = lift(make_sampling(list(v), 0.6), 3)
    cap, gate, message, closed_gaps, best_first = _LIFTED_FAILURES[case]
    screened = _count_screens(monkeypatch)
    with pytest.raises(GapOpeningError) as info:
        next(construct._search_candidates(base, cap, np.random.default_rng(1), gate))
    exc = info.value
    assert screened == [12, 12, 12, 12, 1]
    assert str(exc) == message
    assert [(g.theta_lo, g.theta_hi, g.chord) for g in exc.closed_gaps] == closed_gaps
    assert exc.best.table[0] == best_first
    assert (exc.best == base) == (case == "tiny")


#: the stage-4 gap-opening failure of a seed-7 run, recorded before the
#: candidates of a stage were screened in one stacked eigensolve; its best table
#: was re-recorded (moves up to 1.1e-16) with the Cayley-transformed eigensolve
GAP_FAILURE = json.loads((Path(__file__).parent / "data" / "seed7_gap_failure.json").read_text())


def test_gap_opening_failure_reports_the_least_closed_candidate():
    p = GAP_FAILURE["params"]
    with pytest.raises(GapOpeningError) as info:
        cantor_iterate(make_sampling(p["table"], p["r"]), p["eps"], p["K"], seed=p["seed"])
    exc = info.value
    assert str(exc) == GAP_FAILURE["message"]
    assert len(exc.closed_gaps) == GAP_FAILURE["closed_gaps"] == 16
    assert all(g.closed for g in exc.closed_gaps)
    assert [r.stage for r in exc.trail] == GAP_FAILURE["trail_stages"]
    assert exc.best.table[0] == 0.29618556270618823 - 0.0037831324828035027j
    got = exc.best.to_json()
    assert got["level"] == GAP_FAILURE["best"]["level"]
    flat = [x for v in got["table"] for x in v]
    want = [x for v in GAP_FAILURE["best"]["table"] for x in v]
    assert flat == pytest.approx(want, rel=1e-12, abs=0)


def test_the_stage_screen_and_the_structure_read_one_closed_gap_rule(monkeypatch):
    # the seed-7 run above fails at stage 4 with 16 gaps below 1e-9; at a threshold of
    # 1e-12 the screen, Gap.closed, open_gap_count and min_gap all take them as open
    monkeypatch.setattr(floquet, "CLOSED_GAP_CHORD", 1e-12)
    reports, final = cantor_iterate(make_sampling([0.3, 0.3], 0.6), 0.9, 4, seed=7)
    assert [r.open_gap_count for r in reports] == [2, 4, 8, 16, 32]
    assert 1e-12 < reports[-1].min_gap_after < 1e-9
    bs = band_structure(to_periodic(final), compute_masses=False)
    assert bs.open_gap_count() == 32 and not any(g.closed for g in bs.gaps)
    assert floquet.min_gap(bs) == reports[-1].min_gap_after
    monkeypatch.undo()
    thin = [g.chord <= 1e-9 for g in bs.gaps]
    assert [g.closed for g in bs.gaps] == thin and 0 < sum(thin) < 32
    assert bs.open_gap_count() == 32 - sum(thin) and floquet.min_gap(bs) > 1e-9


#: exact stage ledgers and final tables, each float as its repr, of cantor_iterate (K = 3)
#: and ac_iterate (K = 2, u = delta_0, t = 1.5) on four seeded 2-entry tables with
#: |alpha| <= 0.5, r = 0.6 and eps = 0.9; recorded before a stage's candidates were
#: drawn, gated and screened as one array, and re-recorded with the Cayley-transformed
#: eigensolve, which moved edge-derived values by roundoff and kept every winner
PINS = json.loads((Path(__file__).parent / "data" / "construction_pins.json").read_text())


def _exact(value):
    if value is None:
        return None
    return int(value) if isinstance(value, (int, np.integer)) else repr(float(value))


@pytest.mark.parametrize("run", PINS["runs"], ids=lambda run: f"seed{run['seed']}")
@pytest.mark.parametrize("mode", ["cantor", "ac"])
def test_construction_is_bit_identical_to_its_pin(mode, run):
    p = PINS["params"]
    f = make_sampling([complex(*v) for v in run["table"]], p["r"])
    if mode == "cantor":
        reports, final = cantor_iterate(f, p["eps"], p["cantor_K"], seed=run["seed"])
    else:
        u = {int(n): v for n, v in p["u"].items()}
        reports, final = ac_iterate(f, p["eps"], p["ac_K"], u, p["t"], seed=run["seed"])
    got = [{k: _exact(v) for k, v in r.to_json().items()} for r in reports]
    assert got == run[mode]["stages"]
    assert [[repr(v.real), repr(v.imag)] for v in final.table.tolist()] == run[mode]["final"]
