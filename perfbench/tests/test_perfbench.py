"""Tests of the benchmark's own code.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import cmvspectra as cs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False]


def test_self_time_of_nested_spans():
    recorded = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("c", 6.0, 8.5, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.5, 2.0, 1.0, 1.0, 2.5])


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert spans.covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert spans.covered_length([], 0.0, 1.0) == 0.0


def _namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "cmvspectra" or name.startswith("cmvspectra."))
    }


def test_tracer_wraps_every_binding_and_restores_all():
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = set(tracer.patched_names())
        # the library binds names at import, so each importing namespace is patched
        for name in (
            "cmvspectra.construct.band_structure",
            "cmvspectra.specmeasure.band_structure",
            "cmvspectra.floquet.band_structure",
            "cmvspectra.band_structure",
            "cmvspectra.construct.diff_norm_bound_seq",
            "cmvspectra.specmeasure.floquet_matrix",
            "cmvspectra.gordon.gamma",
            "cmvspectra.gordon.build_A_unimodular",
            "cmvspectra.transfer.estimate_lipschitz",
        ):
            assert name in patched
        cs.band_structure(cs.make_periodic([0.3, 0.2j], 0.6), compute_masses=False)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "floquet.band_structure"
    assert "floquet.discriminant" in names and "floquet.floquet_matrix" in names
    assert all(s[spans.PARENT] == 0 for s in tracer.spans[1:] if s[spans.NAME] == "floquet.discriminant")
    metrics = spans.layer_metrics(tracer, stages_completed=0)
    assert metrics["floquet.band_structure.calls"] == 1
    assert metrics["cmv.diff_norm_bound_seq.calls"] == 0


def test_uninstall_restores_after_an_exception_in_a_traced_call():
    original = cs.specmeasure.floquet_solution
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(cs.EdgeProximityError):
            # z = 1 lies on a band edge of the free sequence
            cs.specmeasure.floquet_solution(cs.make_periodic([0.0, 0.0], 0.5), 1.0)
    finally:
        tracer.uninstall()
    assert cs.specmeasure.floquet_solution is original
    metrics = spans.layer_metrics(tracer, stages_completed=0)
    assert metrics["specmeasure.floquet_solution.retry_ratio"] == 1.0


def _report(**kw):
    base = dict(
        stage=1, period=4, s_norm=1e-4, budget_eps=1e-3, budget_move=1e-2, movement=1e-3,
        min_gap_before=0.1, min_gap_after=0.05, open_gap_count=4, band_measure=3.0,
    )
    base.update(kw)
    return cs.StageReport(**base)


def _stage0():
    return _report(stage=0, period=2, budget_move=None, movement=None, open_gap_count=2)


def test_clean_ledger_passes():
    assert workloads.ledger_failures([_stage0(), _report()], K=1) == []


@pytest.mark.parametrize(
    "bad, check",
    [
        (dict(movement=1e-2), "movement_budget"),  # movement == budget is a violation
        (dict(movement=None), "movement_budget"),
        (dict(s_norm=2e-3), "s_norm_budget"),
        (dict(open_gap_count=3), "open_gaps"),
    ],
)
def test_corrupted_ledger_is_a_failure(bad, check):
    found = workloads.ledger_failures([_stage0(), _report(**bad)], K=1)
    assert [name for name, _ in found] == [check]


def test_corrupted_results_count_as_failed_operations():
    f = cs.make_sampling([0.3, 0.3], 0.6)
    far = cs.make_sampling([0.3, -0.3], 0.6)
    op = workloads.cantor_round(1, 0)[0]
    params = dict(op.params, f=f, K=1)
    found = workloads.check_cantor(params, ([_stage0(), _report()], far))
    assert [name for name, _ in found] == ["total_drift"]

    bs = cs.band_structure(cs.make_periodic([0.3, 0.1, -0.2, 0.05], 0.6))
    shifted = type(bs)(bs.q, tuple(b.__class__(b.theta_lo, b.theta_hi, b.increasing, b.mass + 1e-5)
                                   for b in bs.bands), bs.gaps, bs.disc)
    assert workloads.check_bands({"seq": cs.make_periodic([0.3, 0.1, -0.2, 0.05], 0.6),
                                  "masses": True}, shifted)[0][0] == "band_mass"

    broken = workloads.Op("x", {}, run=lambda p: 1, check=lambda p, r: r.missing)
    assert workloads.run_checks(broken, None)[0][0] == "check_raised"


def test_raised_exception_is_recorded_not_propagated():
    def boom(p):
        raise cs.GapOpeningError("no gap", best=None, closed_gaps=[])

    (op, seconds, result, exc), = run_ops([workloads.Op("x", {}, boom, lambda p, r: [])])
    assert result is None and isinstance(exc, cs.GapOpeningError) and seconds >= 0.0


def _fingerprint(ops):
    return [(op.kind, repr(sorted(op.params.items()))) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    make_round, _ = workloads.WORKLOADS[name]
    first = _fingerprint(make_round(5, 0))
    assert first == _fingerprint(make_round(5, 0))
    assert first != _fingerprint(make_round(6, 0))
    assert first != _fingerprint(make_round(5, 1))


def test_gordon_radii_are_distinct_across_rounds_and_repeat_within_one():
    radii = [op.params["f"].r for i in range(40) for op in workloads.gordon_round(3, i)]
    per_round = [radii[8 * i:8 * i + 8] for i in range(40)]
    assert all(len(set(r)) == 2 for r in per_round)
    assert len(set(radii)) == 80


def test_round_medians_ignore_a_burst_and_the_round_count():
    from run import ops_per_second

    # rounds of three operations of different kinds; one burst slows round 2
    three = [0.1, 1.0, 3.0, 0.1, 9.0, 3.0, 0.1, 1.0, 3.0]
    assert ops_per_second(three, 3) == pytest.approx(3 / 4.1)
    assert ops_per_second(three + [0.1, 1.0, 3.0], 3) == pytest.approx(3 / 4.1)
    # the p50 weights the kinds near the middle, whatever the round count
    from run import harrell_davis_median, op_seconds_p50

    assert op_seconds_p50(three, 3) == pytest.approx(harrell_davis_median([0.1, 1.0, 3.0]))
    assert op_seconds_p50(three + [0.1, 1.0, 3.0], 3) == pytest.approx(op_seconds_p50(three, 3))


def test_harrell_davis_median():
    from run import harrell_davis_median

    assert harrell_davis_median([2.5]) == pytest.approx(2.5)
    assert harrell_davis_median([1.0, 2.0, 3.0]) == pytest.approx(2.0)
    assert harrell_davis_median([3.0, 1.0, 2.0, 4.0]) == pytest.approx(2.5)
    # a weighted mean of order statistics that weights the middle most
    skewed = [1.0, 2.0, 3.0, 4.0, 10.0]
    assert 3.0 < harrell_davis_median(skewed) < 4.0
    assert harrell_davis_median(skewed) < sum(skewed) / len(skewed)


def test_thin_band_probe_is_seeded_and_separate_from_the_workload(monkeypatch):
    monkeypatch.setattr(workloads, "THIN_Q", 8)
    monkeypatch.setattr(workloads, "THIN_PROBES", 2)
    defect = workloads.thin_band_mass_defect(5)
    assert 0.0 <= defect < 1.0
    assert defect == workloads.thin_band_mass_defect(5)
    assert workloads.BANDS_AMAX < workloads.THIN_AMAX
