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
    ac_iterate,
    cantor_iterate,
)
from cmvspectra.floquet import band_structure
from cmvspectra.odometer import (make_sampling, perturb, perturbed_tables, sup_distance,
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
        assert final.table == run(f1)[1].table


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
    assert a.table == b.table
    assert a.table != c.table


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
#: the unpolished eigenangles
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
    gap_chords = construct.gap_chords

    def screen(values):
        screened.append(len(values))
        return gap_chords(values)

    monkeypatch.setattr(construct, "gap_chords", screen)
    return screened


def _count_stage_work(monkeypatch, run) -> dict:
    """Run the construction and count its band structures, discriminants, sequences and screens."""
    counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (construct, "band_structure"), (floquet, "discriminant"), (construct, "to_periodic"))}
    counts["screened"] = _count_screens(monkeypatch)
    counts["reports"] = run(make_sampling([0.3, 0.3], 0.6))[0]
    return counts


def test_candidate_search_builds_a_band_structure_only_for_stage_winners(monkeypatch):
    counts = _count_stage_work(monkeypatch, lambda f: cantor_iterate(f, 0.9, 3, seed=7))
    assert len(counts["reports"]) == 4
    assert len(counts["band_structure"]) == 4 and len(counts["discriminant"]) == 4
    # every stage screens f and the first rung of its draws, and only its winner
    # becomes a sequence
    assert counts["screened"] == [1, 12] * 4
    assert len(counts["to_periodic"]) == 4


def test_ac_stages_build_one_band_structure_per_sequence(monkeypatch):
    # the drift gate compares the densities the stages carry; it rebuilds no band structure
    counts = _count_stage_work(
        monkeypatch, lambda f: ac_iterate(f, 0.9, 2, {0: 1.0}, 1.5, seed=7))
    assert [r.density_drift is not None for r in counts["reports"]] == [False, True, True]
    assert len(counts["band_structure"]) == 3 and len(counts["discriminant"]) == 3
    assert counts["screened"] == [1, 12] * 3
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
    assert [g for g, _ in construct._search_candidates(f, 0.1, rng, _accept_all)] == [f]
    assert rng.bit_generator.state == state


def test_a_gate_that_rejects_the_first_rung_takes_the_second_rungs_widest_row(monkeypatch):
    f = make_sampling((0.0, 0.0), 0.5)  # both gaps closed, so the search draws
    screened = _count_screens(monkeypatch)
    gated = []

    def gate(values):
        # every row of the first rung is rejected, every later row accepted
        gated.append(len(values))
        return np.full(len(values), len(gated) > 1), ()

    g, _ = next(construct._search_candidates(f, 0.1, np.random.default_rng(1), gate))
    assert screened == [1, 12, 12] and gated == [12, 12]
    ladder = [0.1 * 0.5 ** (i // construct._HALVING_PERIOD) for i in range(construct._MAX_ATTEMPTS)]
    second = perturbed_tables(f, ladder, np.random.default_rng(1))[12:24]
    widest = np.argmax(floquet.gap_chords(second).min(axis=-1))
    assert np.array_equal(g.table, second[widest])


def test_a_search_without_a_passing_row_screens_every_rung(monkeypatch):
    f = make_sampling((0.0, 0.0), 0.5)
    screened = _count_screens(monkeypatch)
    reject = lambda values: (np.zeros(len(values), bool), ())  # noqa: E731
    with pytest.raises(GapOpeningError, match="in 48 attempts"):
        next(construct._search_candidates(f, 0.1, np.random.default_rng(1), reject))
    assert screened == [1, 12, 12, 12, 12]


def test_a_density_cap_that_rejects_a_rung_moves_the_search_to_the_next(monkeypatch):
    # ac K=1: f passes stage 0 alone; stage 1 screens its lifted f, then its draws
    screened = _count_screens(monkeypatch)
    drifts = []

    def distance(*args):
        drifts.append(len(screened))
        return 1.0 if len(screened) == 3 else 0.0  # rejects stage 1's first rung

    monkeypatch.setattr(construct, "density_distance", distance)
    f = make_sampling((0.3, 0.0), 0.6)
    reports, _ = ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert screened == [1, 1, 12, 12]
    assert drifts == [3] * 12 + [4] and reports[1].density_drift == 0.0

    # a cap that rejects every row screens the whole ladder before it raises
    screened.clear()
    drifts.clear()
    monkeypatch.setattr(construct, "density_distance", lambda *args: drifts.append(1) or 1.0)
    with pytest.raises(DensityConstraintError, match="none of the 48 candidates"):
        ac_iterate(f, 0.9, K=1, u={0: 1.0}, t=1.5, seed=7)
    assert screened == [1, 1, 12, 12, 12, 12] and len(drifts) == 48


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
    band_structures = _count_calls(monkeypatch, construct, "band_structure")
    with pytest.raises(GapOpeningError):
        next(construct._search_candidates(
            f, 0.1, np.random.default_rng(1), gate=lambda values: (np.zeros(len(values), bool), ())
        ))
    assert discriminants == [] and band_structures == []


def test_a_budget_that_rejects_every_candidate_is_not_blamed_on_closed_gaps():
    # eps^2 / 72 underflows to 0 at eps = 1e-300: f has every gap open, but no
    # candidate, f included, meets a drift budget of 0
    f = make_sampling([0.3, 0.1], 0.6)
    with pytest.raises(GapOpeningError) as info:
        cantor_iterate(f, 1e-300, 1, seed=7)
    assert str(info.value) == (
        "stage 0: no perturbation within radius 0.000e+00 passed the stage's drift or "
        "movement gate in 0 attempts (1 of 1 candidates opened every gap)"
    )
    assert info.value.closed_gaps == []
    assert info.value.best == f


def test_gap_opening_failure_counts_only_the_screened_draws():
    # every radius of the ladder lies below the floor, so nothing is drawn
    f = make_sampling((0.0, 0.0), 0.5)
    with pytest.raises(GapOpeningError, match="in 0 attempts") as info:
        next(construct._search_candidates(f, 1e-16, np.random.default_rng(1), _accept_all))
    assert info.value.best == f


#: the stage-4 gap-opening failure of a seed-7 run, recorded before the
#: candidates of a stage were screened in one stacked eigensolve
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
    assert exc.best.table[0] == 0.29618556270618823 - 0.0037831324828035075j
    got = exc.best.to_json()
    assert got["level"] == GAP_FAILURE["best"]["level"]
    flat = [x for v in got["table"] for x in v]
    want = [x for v in GAP_FAILURE["best"]["table"] for x in v]
    assert flat == pytest.approx(want, rel=1e-12, abs=0)


#: exact stage ledgers and final tables, each float as its repr, of cantor_iterate (K = 3)
#: and ac_iterate (K = 2, u = delta_0, t = 1.5) on four seeded 2-entry tables with
#: |alpha| <= 0.5, r = 0.6 and eps = 0.9; recorded before a stage's candidates were
#: drawn, gated and screened as one array
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
    assert [[repr(v.real), repr(v.imag)] for v in final.table] == run[mode]["final"]
