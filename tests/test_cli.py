import dataclasses
import json

import numpy as np
import pytest

from cmvspectra import cli
from cmvspectra.cli import main
from cmvspectra.coeffs import make_periodic
from cmvspectra.construct import StageReport
from cmvspectra.floquet import AllGapsClosedError, BandDiagnosticError, band_structure
from cmvspectra.specmeasure import EdgeProximityError
from cmvspectra.transfer import step_coeffs


@pytest.fixture
def seq_file(tmp_path):
    p = tmp_path / "seq.json"
    p.write_text(json.dumps({"values": [[0.3, 0.0], [0.0, 0.2]], "r": 0.6}))
    return str(p)


@pytest.fixture
def samp_file(tmp_path):
    p = tmp_path / "samp.json"
    p.write_text(json.dumps({"level": 1, "table": [[0.3, 0.0], [0.0, 0.2]], "r": 0.6}))
    return str(p)


def test_bands_writes_tables_and_svg(tmp_path, seq_file, capsys):
    out = tmp_path / "out"
    rc = main(["bands", "--input", seq_file, "--out", str(out), "--json"])
    assert rc == 0
    for name in ("bands.csv", "gaps.csv", "discriminant.csv", "bands.svg", "bands.json"):
        assert (out / name).exists()
    header, *rows = (out / "bands.csv").read_text().strip().splitlines()
    assert header.startswith("band_index,")
    assert len(rows) == 2  # period-2 sequence has 2 bands
    report = json.loads((out / "bands.json").read_text())
    assert report["period"] == 2
    assert (out / "bands.svg").read_text().startswith("<svg")


def test_discriminant_grid_size(tmp_path, seq_file):
    out = tmp_path / "out"
    rc = main(["discriminant", "--input", seq_file, "--out", str(out), "--grid", "32", "--json"])
    assert rc == 0
    rows = (out / "discriminant.csv").read_text().strip().splitlines()
    assert len(rows) == 33  # header + grid
    report = json.loads((out / "discriminant.json").read_text())
    assert len(report["laurent_coeffs"]) == 3
    assert report["rho_product"] == pytest.approx((1 - 0.3**2) ** 0.5 * (1 - 0.2**2) ** 0.5)


def test_discriminant_csv_is_within_1e9_of_a_50_digit_trace_on_a_near_constant_period(
        tmp_path, mp_trace):
    """The near-constant period of 64 that CI runs `bands` on: its largest Laurent
    coefficient is 1.3e14, and the Laurent sum misses Delta by up to 0.97 there.  Both
    commands write discriminant.csv from the transfer product: every value is within
    1e-9 of the same steps multiplied to 50 digits, relative to max(1, |Delta|), as
    |Delta| reaches 1.9e15 in the gaps."""
    mpmath = pytest.importorskip("mpmath")
    n = np.random.default_rng(64).standard_normal((2, 64))
    values = ([0.5, 0.0] + 1e-3 * n.T).tolist()
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"values": values, "r": 0.99}))
    seq = make_periodic([complex(*v) for v in values], 0.99)
    steps = [[[mpmath.mpc(complex(x)) for x in c[:, i, j]] for i, j in np.ndindex(2, 2)]
             for c in step_coeffs(seq.values)]
    thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    with mpmath.workdps(50):
        exact = np.array([float(mp_trace(mpmath, steps, mpmath.mpf(t))) for t in thetas])
    for cmd in ("bands", "discriminant"):
        assert main([cmd, "--input", str(path), "--out", str(tmp_path / cmd)]) == 0
        table = np.loadtxt(tmp_path / cmd / "discriminant.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.array([float(f"{t:.12g}") for t in thetas]))
        assert np.all(np.abs(table[:, 1] - exact) <= 1e-9 * np.maximum(1.0, np.abs(exact)))


def test_density_outputs_and_mass(tmp_path, seq_file):
    out = tmp_path / "out"
    rc = main(["density", "--input", seq_file, "--out", str(out), "--u", '{"0": 1.0}'])
    assert rc == 0
    report = json.loads((out / "density.json").read_text())
    assert report["mass"] == pytest.approx(1.0, abs=1e-4)
    # an n-versus-n/2 difference, reported as an estimate rather than a tolerance
    assert "tolerance" not in report
    assert 0.0 <= report["error_estimate"] < 1e-4


def test_density_rows_follow_the_printed_angle(tmp_path):
    # seed 70 draws a period-4 sequence one of whose bands runs across 2 pi
    rng = np.random.default_rng(70)
    vals = 0.4 * np.sqrt(rng.uniform(0, 1, 4)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    p = tmp_path / "seq.json"
    p.write_text(json.dumps({"values": [[v.real, v.imag] for v in vals], "r": 0.5}))
    bands = band_structure(make_periodic(list(vals), 0.5), compute_masses=False).bands
    assert any(b.theta_hi > 2 * np.pi for b in bands)
    out = tmp_path / "out"
    assert main(["density", "--input", str(p), "--out", str(out)]) == 0
    _, *rows = (out / "density.csv").read_text().strip().splitlines()
    thetas = [float(row.split(",")[0]) for row in rows]
    assert len(thetas) == 4 * 2 * 64
    assert thetas == sorted(thetas)
    assert 0.0 <= thetas[0] and thetas[-1] < 2 * np.pi


def test_gordon_check_periodic_passes(tmp_path, seq_file):
    out = tmp_path / "out"
    rc = main(["gordon-check", "--input", seq_file, "--out", str(out), "--stages", "2"])
    assert rc == 0
    cert = json.loads((out / "gordon.json").read_text())
    assert cert["passed"] is True
    assert [c["lhs"] for c in cert["checks"]] == [0.0, 0.0]


def test_construct_cantor_deterministic(tmp_path, samp_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = main(["construct", "--input", samp_file, "--out", str(out),
                   "--mode", "cantor", "--eps", "0.9", "--stages", "1", "--seed", "7"])
        assert rc == 0
    assert (out_a / "trail.json").read_bytes() == (out_b / "trail.json").read_bytes()
    trail = json.loads((out_a / "trail.json").read_text())
    assert len(trail["stages"]) == 2
    assert (out_a / "stages.csv").exists()
    assert (out_a / "nested_bands.svg").exists()


def test_construct_ac_mode(tmp_path, samp_file):
    out = tmp_path / "out"
    rc = main(["construct", "--input", samp_file, "--out", str(out), "--mode", "ac",
               "--eps", "0.9", "--stages", "1", "--seed", "7", "--t", "1.5",
               "--u", '{"0": 1.0}'])
    assert rc == 0
    trail = json.loads((out / "trail.json").read_text())
    assert trail["stages"][1]["density_drift"] is not None


def test_stages_csv_has_one_column_per_stage_report_field(tmp_path, samp_file):
    out = tmp_path / "out"
    rc = main(["construct", "--input", samp_file, "--out", str(out), "--mode", "ac",
               "--eps", "0.9", "--stages", "2", "--seed", "7"])
    assert rc == 0
    header, *rows = (out / "stages.csv").read_text().strip().splitlines()
    names = [f.name for f in dataclasses.fields(StageReport)]
    assert header.split(",") == names
    stages = json.loads((out / "trail.json").read_text())["stages"]
    assert len(rows) == len(stages) == 3
    for row, stage in zip(rows, stages):
        cells = dict(zip(names, row.split(",")))
        assert list(stage) == names
        for name, value in stage.items():
            if value is None:
                assert cells[name] == ""
            else:
                assert float(cells[name]) == pytest.approx(value, rel=1e-11, abs=0)


def test_construct_ac_drift_failure_writes_completed_stages(tmp_path, samp_file, monkeypatch,
                                                          capsys):
    monkeypatch.setattr("cmvspectra.construct.density_distance", lambda *args: 1.0)
    out = tmp_path / "out"
    rc = main(["construct", "--input", samp_file, "--out", str(out), "--mode", "ac",
               "--eps", "0.9", "--stages", "1", "--seed", "7"])
    assert rc == 1
    trail = json.loads((out / "trail.json").read_text())
    assert [s["stage"] for s in trail["stages"]] == [0]
    assert "density-drift cap" in trail["error"]
    assert "construction failed" in capsys.readouterr().err


def test_construct_with_a_budget_below_the_floor_fails_before_any_screen(tmp_path, samp_file,
                                                                           capsys):
    out = tmp_path / "out"
    rc = main(["construct", "--input", samp_file, "--out", str(out),
               "--eps", "1e-300", "--stages", "1", "--seed", "7"])
    assert rc == 1
    trail = json.loads((out / "trail.json").read_text())
    assert trail["stages"] == [] and trail["error"].startswith("stage 0: the drift budget")
    assert "construction failed: stage 0:" in capsys.readouterr().err


def test_nested_bands_draws_input_and_final_stage(tmp_path, samp_file):
    out = tmp_path / "out"
    rc = main(["construct", "--input", samp_file, "--out", str(out),
               "--eps", "0.9", "--stages", "1", "--seed", "7"])
    assert rc == 0
    assert (out / "nested_bands.svg").read_text().count("<circle") == 2


def test_periodic_input_accepts_plain_reals(tmp_path):
    p = tmp_path / "seq.json"
    p.write_text(json.dumps({"values": [0.3, 0.2], "r": 0.6}))
    out = tmp_path / "out"
    assert main(["bands", "--input", str(p), "--out", str(out), "--json"]) == 0
    assert json.loads((out / "bands.json").read_text())["period"] == 2


def test_sampling_input_accepts_plain_reals(tmp_path):
    p = tmp_path / "samp.json"
    p.write_text(json.dumps({"table": [0.3, [0.3, 0.0]], "r": 0.6}))
    out = tmp_path / "out"
    rc = main(["construct", "--input", str(p), "--out", str(out), "--stages", "0",
               "--seed", "7"])
    assert rc == 0
    trail = json.loads((out / "trail.json").read_text())
    assert trail["final"]["level"] == 1


def test_u_file_accepts_plain_reals_and_pairs(tmp_path, seq_file):
    u = tmp_path / "u.json"
    u.write_text(json.dumps({"0": 1.0, "1": [0.0, 0.5]}))
    out = tmp_path / "out"
    assert main(["density", "--input", seq_file, "--out", str(out), "--u", f"@{u}"]) == 0
    report = json.loads((out / "density.json").read_text())
    assert report["u"] == {"0": [1.0, 0.0], "1": [0.0, 0.5]}


def test_gamma_json(capsys):
    rc = main(["gamma", "--k", "2", "--q", "8", "--r", "0.5", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["gamma"] > 0


@pytest.mark.parametrize("r", ["1e-7", "0.9999996"])
def test_gamma_at_radii_near_either_end_of_the_disk_exits_0(r, capsys):
    assert main(["gamma", "--r", r]) == 0
    assert "gamma(1, 2, " in capsys.readouterr().out


@pytest.mark.parametrize("r", ["1e-10", "0.9999999999999999"])
def test_gamma_at_a_radius_it_cannot_sample_exits_2_naming_it(r, capsys):
    assert main(["gamma", "--r", r]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: r = " + r) and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_verify_single_criterion(capsys):
    rc = main(["verify", "--filter", "free-discriminant"])
    assert rc == 0
    assert "PASS free-discriminant" in capsys.readouterr().out


def test_missing_input_exits_2(tmp_path, capsys):
    rc = main(["bands", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["bands", "--input", str(bad)]) == 2


@pytest.mark.parametrize("text", ['"table"', '["values"]', "3"])
def test_json_that_is_not_an_object_exits_2(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["bands", "--input", str(bad)]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_alpha_outside_disk_exits_2_without_partial_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": [[1.5, 0.0], [0.0, 0.2]], "r": 0.6}))
    out = tmp_path / "out"
    assert main(["bands", "--input", str(bad), "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_construct_requires_sampling_input(tmp_path, seq_file):
    rc = main(["construct", "--input", seq_file, "--out", str(tmp_path / "o"),
               "--mode", "cantor", "--eps", "0.5", "--stages", "1"])
    assert rc == 2


def test_bad_u_mapping_exits_2(tmp_path, seq_file):
    rc = main(["density", "--input", seq_file, "--out", str(tmp_path / "o"),
               "--u", "{broken"])
    assert rc == 2


def test_u_that_is_not_a_mapping_exits_2(tmp_path, seq_file, capsys):
    rc = main(["density", "--input", seq_file, "--out", str(tmp_path / "o"), "--u", "[1.0]"])
    assert rc == 2
    assert "invalid --u mapping" in capsys.readouterr().err


def test_verify_unknown_filter_exits_2():
    assert main(["verify", "--filter", "no-such-criterion"]) == 2


def test_grid_zero_exits_2_without_output(tmp_path, seq_file, capsys):
    out = tmp_path / "out"
    assert main(["bands", "--input", seq_file, "--out", str(out), "--grid", "0"]) == 2
    assert "--grid" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_density_grid_one_exits_2_without_output(tmp_path, seq_file, capsys):
    # the error estimate halves the node count, so one node per half-band is too few
    out = tmp_path / "out"
    assert main(["density", "--input", seq_file, "--out", str(out), "--grid", "1"]) == 2
    err = capsys.readouterr().err
    assert "--grid must be at least 2" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_gordon_check_stages_zero_exits_2(tmp_path, seq_file, capsys):
    rc = main(["gordon-check", "--input", seq_file, "--out", str(tmp_path / "o"),
               "--stages", "0"])
    assert rc == 2
    assert "--stages" in capsys.readouterr().err


def test_gordon_check_rejects_a_nan_value(tmp_path, capsys):
    # NaN once passed every check here: lhs read 0 and each scale passed
    p = tmp_path / "nan.json"
    p.write_text('{"values": [NaN, 0.2], "r": 0.6}')
    assert main(["gordon-check", "--input", str(p), "--out", str(tmp_path / "o"),
                 "--stages", "2"]) == 2
    assert "input error" in capsys.readouterr().err


def test_a_table_that_is_not_a_power_of_two_exits_2_naming_its_length(tmp_path, capsys):
    # no level field is written, so none is reported as disagreeing
    p = tmp_path / "samp3.json"
    p.write_text(json.dumps({"table": [0.3, 0.2, 0.1], "r": 0.6}))
    rc = main(["construct", "--input", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "power of two" in err and "level" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["construct", "--stages", "-1"], "--stages"),
    (["gamma", "--k", "0"], "--k"),
    (["gamma", "--r", "1.5"], "--r"),
], ids=["construct-stages", "gamma-k", "gamma-r"])
def test_out_of_range_counts_and_radii_exit_2(tmp_path, samp_file, argv, flag, capsys):
    if argv[0] == "construct":
        argv = argv + ["--input", samp_file, "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("input error: " + flag)

@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_construct_eps_that_is_not_finite_and_positive_exits_2(tmp_path, samp_file, eps,
                                                               capsys):
    rc = main(["construct", "--input", samp_file, "--out", str(tmp_path / "o"),
               "--eps", eps])
    assert rc == 2
    assert "--eps" in capsys.readouterr().err


def test_nan_u_value_exits_2(tmp_path, seq_file, capsys):
    rc = main(["density", "--input", seq_file, "--out", str(tmp_path / "o"),
               "--u", '{"0": NaN}'])
    assert rc == 2
    assert "invalid --u mapping" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(1, 7))
def test_construct_on_a_table_at_its_radius(tmp_path, seed):
    # the stage-0 draws are projected back onto |alpha| = r, which once rounded
    # above r and made this valid input exit 2 for each of these seeds
    p = tmp_path / "edge.json"
    p.write_text('{"table": [0.6, 0.6], "r": 0.6}')
    out = tmp_path / "out"
    rc = main(["construct", "--input", str(p), "--out", str(out), "--eps", "0.9",
               "--stages", "1", "--seed", str(seed)])
    assert rc == 0
    trail = json.loads((out / "trail.json").read_text())
    assert [s["open_gap_count"] for s in trail["stages"]] == [2, 4]


def test_defaults_are_the_parsers():
    parse = cli.build_parser().parse_args
    args = parse(["construct", "--input", "f.json"])
    assert (args.eps, args.stages, args.mode, args.t, args.u, args.seed) == (
        0.5, 2, "cantor", 1.5, '{"0": 1.0}', 0)
    assert parse(["gordon-check", "--input", "f.json"]).stages == 3
    args = parse(["gamma"])
    assert (args.k, args.q, args.r) == (1, 2, 0.5)
    assert [parse([cmd, "--input", "f.json"]).grid
            for cmd in ("bands", "discriminant", "density")] == [720, 720, 64]


def test_length_one_table_is_level_zero(tmp_path):
    p = tmp_path / "samp0.json"
    p.write_text(json.dumps({"table": [[0.3, 0.0]], "r": 0.6}))
    out = tmp_path / "out"
    assert main(["bands", "--input", str(p), "--out", str(out), "--json"]) == 0
    assert json.loads((out / "bands.json").read_text())["period"] == 2


def test_construct_accepts_a_level_zero_table(tmp_path):
    p = tmp_path / "samp0.json"
    p.write_text(json.dumps({"table": [0.3], "r": 0.6}))
    out = tmp_path / "out"
    rc = main(["construct", "--input", str(p), "--out", str(out),
               "--eps", "0.9", "--stages", "1", "--seed", "7"])
    assert rc == 0
    trail = json.loads((out / "trail.json").read_text())
    assert [s["period"] for s in trail["stages"]] == [2, 4]


@pytest.mark.parametrize(
    "error", [BandDiagnosticError, AllGapsClosedError, EdgeProximityError]
)
def test_library_errors_exit_1_with_one_line(tmp_path, seq_file, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("diagnostic failed")

    monkeypatch.setattr(cli, "band_structure", broken)
    rc = main(["bands", "--input", seq_file, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "diagnostic failed" in err


def test_edges_the_eigensolve_cannot_resolve_exit_1_naming_the_cause(
    tmp_path, capsys, thin_band_values
):
    p = tmp_path / "thin.json"
    p.write_text(json.dumps({"values": [[v.real, v.imag] for v in thin_band_values], "r": 0.7}))
    rc = main(["bands", "--input", str(p), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "thinner than the eigensolve resolves" in err


def test_density_grid_below_sixteen_is_kept(tmp_path, seq_file):
    out = tmp_path / "out"
    assert main(["density", "--input", seq_file, "--out", str(out), "--grid", "5"]) == 0
    rows = (out / "density.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 2 * 5  # header + 2 bands x 2 halves x 5 nodes
    thetas = [float(r.split(",")[0]) for r in rows[1:]]
    assert thetas == sorted(thetas)


@pytest.mark.parametrize(
    "argv",
    [
        ["gordon-check", "--json"],
        ["gordon-check", "--seed", "1"],
        ["bands", "--seed", "1"],
        ["density", "--json"],
        ["construct", "--grid", "8"],
    ],
)
def test_flags_a_command_does_not_read_exit_2(tmp_path, seq_file, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--input", seq_file, "--out", str(tmp_path / "o")] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
