"""Command-line interface tests: every subcommand driven through main(),
plus output files, error paths, and the module entry point."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypertraffic import cli, harness
from hypertraffic.harness import OFFLINE_FIELDS, SUCCESS_FIELDS, TIMING_FIELDS
from hypertraffic.scenario import success_study_scenario

ROOT = Path(__file__).resolve().parents[1]

CONFIG_DOC = """
horizon: 20
ts: 0.1
noise_std: 0.02
road:
  lane_count: 2
  lane_width: 4.0
limits:
  v_max: 15.0
  delta_min_deg: -20.0
  delta_max_deg: 20.0
vehicles:
  - id: 0
    is_hv: true
    style: comfort_oriented
    behavior: {kind: straight}
    initial: {x: -3.0, y: 6.0, v: 10.0}
  - id: 1
    style: velocity_consistent
    behavior: {kind: lane_change, source_lane: 0, target_lane: 1, start_x: 2.0, transition_length: 15.0}
    initial: {x: 0.0, y: 2.0, v: 10.0, psi_deg: 0.0}
    weights_true: [1.0, 1.0, 4.0, 1.0, 1.0, 1.0]
"""


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0].split(","), lines[1:]


def test_parse_stds_forms():
    assert cli._parse_stds("0.1:0.4:0.1") == [0.1, 0.2, 0.3, 0.4]
    assert cli._parse_stds("0.0,0.05") == [0.0, 0.05]
    assert cli._parse_stds("0.2") == [0.2]


def test_parse_stds_takes_a_range_up_to_the_level_bound():
    levels = cli._parse_stds("0:9999:1")
    assert len(levels) == 10_000 and levels[-1] == 9999.0


@pytest.mark.parametrize("stds", ["0:1:1e-6", "0:10000:1"])
def test_a_range_of_too_many_noise_levels_is_a_usage_error(capsys, stds):
    # Parsed only: a parser that accepted the range would not run the sweep.
    with pytest.raises(SystemExit) as excinfo:
        cli.build_parser().parse_args(["sweep-noise", "--stds", stds, "--out", "sweep.csv"])
    assert excinfo.value.code == 2
    assert "argument --stds: range gives more than 10000 noise levels" in capsys.readouterr().err


@pytest.mark.parametrize("stds", ["0.4:0.1:0.1", "", ","])
def test_sweep_noise_refuses_stds_without_a_noise_level(tmp_path, capsys, stds):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-noise", "--stds", stds, "--reps", "1", "--out", str(out)]) == 1
    assert "gives no noise level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["interpret-offline", "run-online", "success-rate"])
@pytest.mark.parametrize("reps", ["0", "-2", "two"])
def test_reps_below_one_is_a_usage_error(capsys, command, reps):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--reps", reps])
    assert excinfo.value.code == 2
    assert "argument --reps" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "solve --seed 3", "solve --reps 2", "gap-sweep --seed 3", "gap-sweep --reps 7",
    "gap-sweep --out gap.csv", "sweep-noise", "timing",
])
def test_options_a_command_does_not_read_are_usage_errors(tmp_path, monkeypatch, capsys,
                                                          command):
    # An option the command would ignore is refused, and so is a missing --out
    # where the CSV is the command's only output.
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert (argv[1] if len(argv) > 1 else "--out") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_solve_writes_trajectory_csv(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert cli.main(["solve", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "converged=True" in captured
    assert "player 0:" in captured
    assert "degraded:" not in captured
    header, rows = _read_csv(out)
    assert header == ["player", "step", "p_x", "p_y", "v", "psi"]
    # Four vehicles, 35 decision steps each.
    assert len(rows) == 4 * 35
    first = rows[0].split(",")
    assert first[0] == "0"
    # Step 1 is the fixed initial state; the first decision point is step 2.
    assert first[1] == "2"
    assert rows[34].split(",")[1] == "36"


def test_solve_names_the_row_that_degraded_a_game(monkeypatch, capsys):
    # With true weights the success study's human cannot enforce its
    # keep-out row against player 3 at the last decision point from round 2
    # on, so the game stalls unconverged and `solve` exits 1.
    monkeypatch.setattr(cli, "default_offline_scenario", success_study_scenario)
    assert cli.main(["solve"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "degraded:" in line] == [
        "player 0 degraded: infeasible at collision(3), decision point 36, rounds 2, 3"
    ]
    assert lines[-1].startswith("player 0 degraded:")


OVERLAPPING_STARTS = """
horizon: 36
vehicles:
  - id: 0
    is_hv: true
    style: comfort_oriented
    behavior: {kind: straight}
    initial: {x: 0.0, y: 2.0, v: 10.0}
  - id: 1
    style: comfort_oriented
    behavior: {kind: straight}
    initial: {x: 1.0, y: 2.0, v: 10.0}
"""


def test_overlapping_starts_name_the_player_the_family_and_the_step(tmp_path, capsys):
    # Two vehicles 1 m apart in one lane overlap from the start: neither can
    # enforce its keep-out row against the other at the first decision
    # point, so round 1 moves nothing and the game stops unconverged.
    config = tmp_path / "overlap.yaml"
    config.write_text(OVERLAPPING_STARTS, encoding="utf-8")
    assert cli.main(["solve", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert [line for line in captured.out.splitlines() if "degraded:" in line] == [
        "player 0 degraded: infeasible at collision(1), decision point 2, rounds 1",
        "player 1 degraded: infeasible at collision(0), decision point 2, rounds 1",
    ]
    assert captured.err.splitlines() == [
        'error kind=RuntimeError msg="best-response iteration did not converge"'
    ]


def test_solve_accepts_scenario_config(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(CONFIG_DOC, encoding="utf-8")
    assert cli.main(["solve", "--config", str(config)]) == 0
    captured = capsys.readouterr().out
    assert "converged=True" in captured
    assert "player 1:" in captured


def test_the_readme_scenario_file_is_the_checked_in_example_and_solves(capsys):
    example = ROOT / "examples" / "scenario.yaml"
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Scenario files"):]
    block = section[section.index("```yaml\n") + len("```yaml\n"):]
    assert block[:block.index("```")] == example.read_text(encoding="utf-8")
    assert cli.main(["solve", "--config", str(example)]) == 0
    assert capsys.readouterr().out.startswith("converged=True ")


def test_solve_reads_the_config_solver_settings(tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(CONFIG_DOC + "solver: {max_iterations: 1}\n", encoding="utf-8")
    cli.main(["solve", "--config", str(config)])
    assert "iterations=1 " in capsys.readouterr().out


def test_solve_trace_writes_the_session_and_changes_no_output(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    assert cli.main(["solve", "--out", str(plain)]) == 0
    plain_stdout = capsys.readouterr().out
    traced = tmp_path / "traced.csv"
    trace = tmp_path / "session.jsonl"
    assert cli.main(["solve", "--out", str(traced), "--trace", str(trace)]) == 0
    traced_stdout = capsys.readouterr().out
    assert traced_stdout == plain_stdout.replace(str(plain), str(traced))
    assert traced.read_bytes() == plain.read_bytes()
    rows = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    summary = rows[-1]
    assert summary["record"] == "summary" and summary["mode"] == "distributed"
    iterations = int(plain_stdout.split("iterations=")[1].split()[0])
    assert summary["rounds"] == iterations
    broadcasts = [r for r in rows if r.get("kind") == "strategy_broadcast"]
    assert len(broadcasts) == 4 * iterations
    assert summary["messages"] == sum(r["record"] == "message" for r in rows)
    events = [r for r in rows if r["record"] == "event"]
    assert {r["status"] for r in events if r["kind"] == "best_response"} == {"optimal"}


def test_interpret_offline_noise_free(tmp_path, capsys):
    out = tmp_path / "offline.csv"
    rc = cli.main([
        "interpret-offline", "--reps", "1", "--noise-std", "0.0",
        "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "median_parameter_error=0.000000" in captured
    header, rows = _read_csv(out)
    assert header == list(OFFLINE_FIELDS)
    assert len(rows) == 1


def test_run_online_reports_stage_medians(capsys):
    assert cli.main(["run-online", "--reps", "1"]) == 0
    captured = capsys.readouterr().out
    for stage in (1, 2, 3, 4, 5):
        assert f"stage {stage}:" in captured


def test_sweep_noise_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = cli.main([
        "sweep-noise", "--stds", "0.0,0.05", "--reps", "1",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == list(OFFLINE_FIELDS)
    assert len(rows) == 2
    assert [float(line.split(",")[0]) for line in rows] == [0.0, 0.05]


def test_success_rate_both_modes(tmp_path, capsys):
    out = tmp_path / "success.csv"
    rc = cli.main([
        "success-rate", "--mode", "random_cognition", "--reps", "2",
        "--out", str(out),
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "mode=random_cognition" in captured
    assert "success_rate=0.0000" in captured
    header, rows = _read_csv(out)
    assert header == list(SUCCESS_FIELDS)

    rc = cli.main(["success-rate", "--mode", "with_interpretation", "--reps", "1"])
    assert rc == 0
    assert "success_rate=1.0000" in capsys.readouterr().out


def test_timing_writes_rows(tmp_path):
    out = tmp_path / "timing.csv"
    assert cli.main(["timing", "--reps", "1", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == list(TIMING_FIELDS)
    # Five stages, a row for each deployment model.
    assert len(rows) == 10


def test_a_failing_timing_repetition_keeps_the_finished_rows(tmp_path, monkeypatch):
    # predict_hv raises in the second repetition only. The first's rows are
    # written as a one-repetition run writes them, outside *_seconds; the
    # second's carry only their keys and the failure.
    once = tmp_path / "once.csv"
    assert cli.main(["timing", "--reps", "1", "--out", str(once)]) == 0
    reps = []
    original_rep, original_predict = harness._online_rep, harness.predict_hv

    def tracking_rep(scenario, seed, rep):
        reps.append(rep)
        return original_rep(scenario, seed, rep)

    def predict(*args, **kwargs):
        if reps[-1] == 1:
            raise ValueError("boom")
        return original_predict(*args, **kwargs)

    monkeypatch.setattr(harness, "_online_rep", tracking_rep)
    monkeypatch.setattr(harness, "predict_hv", predict)
    out = tmp_path / "t.csv"
    assert cli.main(["timing", "--reps", "2", "--out", str(out)]) == 0
    assert reps == [0, 1]
    header, rows = _read_csv(out)
    assert header == list(TIMING_FIELDS)
    cells = [row.split(",") for row in rows]
    assert [c[0] for c in cells] == ["0"] * 10 + ["1"] * 10
    kept = [i for i, name in enumerate(TIMING_FIELDS) if not name.endswith("_seconds")]
    want = [row.split(",") for row in _read_csv(once)[1]]
    assert [[c[i] for i in kept] for c in cells[:10]] == [[c[i] for i in kept] for c in want]
    assert all(c[-1] == "" for c in cells[:10])
    assert [c[1:3] for c in cells[10:]] == [[str(t), mode] for t in range(1, 6)
                                           for mode in ("centralized", "distributed")]
    assert all(c[3:] == [""] * 6 + ["ValueError: boom"] for c in cells[10:])


@pytest.mark.parametrize("mode, target", [
    ("with_interpretation", "interpret_offline"),
    ("random_cognition", "make_game"),
])
def test_a_failing_success_repetition_counts_in_no_bin(tmp_path, monkeypatch, capsys, mode,
                                                       target):
    # `target` is called once per repetition and raises in the second
    # repetition of each run. The
    # bins and the overall row are those of a one-repetition run; the failure
    # gets a row of its own just before the overall row.
    scenario = success_study_scenario()
    once = harness.run_success_rate(scenario, mode, 1, 0)
    original, calls = getattr(harness, target), []

    def second_call_raises(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2 == 0:
            raise ValueError("need step 130, have 101")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, target, second_call_raises)
    failure = "ValueError: need step 130, have 101"
    rows = harness.run_success_rate(scenario, mode, 2, 0)
    assert rows == once[:-1] + [{"mode": mode, "rep": 1, "failure": failure}] + once[-1:]

    # The CLI writes the comma in the message inside one quoted cell.
    out = tmp_path / "success.csv"
    assert cli.main(["success-rate", "--mode", mode, "--reps", "2", "--out", str(out)]) == 0
    assert f"mode={mode} reps=1 " in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert header == list(SUCCESS_FIELDS)
    assert all(len(row) == len(header) for row in cells)
    assert cells[-2] == [mode] + [""] * 5 + ["1", failure]
    assert [row[-2:] for row in cells[:-2] + cells[-1:]] == [["", ""]] * (len(cells) - 1)


def test_gap_sweep_prints_regression(capsys):
    assert cli.main(["gap-sweep"]) == 0
    captured = capsys.readouterr().out
    assert captured.count("eps_c=") == 5
    assert "slope=" in captured
    # Without mismatch the human's gap is zero up to round-off: the profile
    # comes from warm-started best responses, the check from cold ones.
    first = captured.splitlines()[0]
    assert first.startswith("eps_c=0.000000 hv_gap=")
    assert abs(float(first.split("hv_gap=")[1])) <= 1e-9


def test_missing_config_reports_error(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "absent.yaml")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error kind=" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["interpret-offline", "--noise-std", "nan"], "--noise-std"),
        (["interpret-offline", "--noise-std", "inf"], "--noise-std"),
        (["sweep-noise", "--stds", "0.1,nan"], "--stds"),
        (["sweep-noise", "--stds", "0.1:0.2:inf"], "--stds"),
        (["sweep-noise", "--stds", "0.1:inf:0.1"], "--stds"),
    ],
)
def test_non_finite_noise_levels_are_usage_errors(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--reps", "1", "--out", str(tmp_path / "out.csv")])
    assert excinfo.value.code == 2
    assert f"argument {option}: not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, target", [
    (["interpret-offline"], "interpret_offline"),
    (["run-online"], "predict_hv"),
    (["sweep-noise", "--stds", "0.05,0.1"], "interpret_offline"),
    (["timing"], "predict_hv"),
    (["success-rate", "--mode", "with_interpretation"], "interpret_offline"),
    (["success-rate", "--mode", "random_cognition"], "make_game"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_every_repetition_failing_exits_nonzero(tmp_path, monkeypatch, capsys, argv, target):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(harness, target, fail)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--reps", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == 'error kind=RuntimeError msg="all repetitions failed: ValueError: boom"\n'
    # The failure rows are still written.
    _, rows = _read_csv(out)
    assert rows and all(line.endswith(",ValueError: boom") for line in rows)


def test_invalid_mode_exits_with_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["success-rate", "--mode", "oracle"])
    assert excinfo.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hypertraffic.cli", "solve"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "converged=True" in proc.stdout
