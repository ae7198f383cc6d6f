"""End-to-end command line checks, run in-process through dispatch()."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpcp
from dpcp import cli, geometry, harness, rsgm, solver
from dpcp.dataset import DataMatrix, load_csv, save_csv
from dpcp.serialize import to_json


def run_cli(argv, capsys):
    code = cli.dispatch(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    code = cli.dispatch(["gen", "--D", "8", "--d", "6", "--N", "200", "--M", "50",
                         "--seed", "5", "--out", str(path)])
    assert code == 0
    return str(path)


def test_gen_writes_labeled_unit_dataset(dataset, tmp_path, capsys):
    m = load_csv(dataset)
    assert m.ambient_dim == 8 and m.n_points == 250
    assert m.labels is not None and int(m.inlier_mask().sum()) == 200
    assert m.unit_normalized
    # same seed, same bytes
    again = tmp_path / "again.csv"
    code, out, _ = run_cli(["gen", "--D", "8", "--d", "6", "--N", "200", "--M", "50",
                            "--seed", "5", "--out", str(again)], capsys)
    assert code == 0 and "seed=5" in out
    assert again.read_bytes() == Path(dataset).read_bytes()


def test_gen_reports_a_parseable_auto_seed(tmp_path, capsys):
    code, out, _ = run_cli(["gen", "--D", "4", "--d", "2", "--N", "10", "--M", "5",
                            "--out", str(tmp_path / "d.csv")], capsys)
    assert code == 0
    seed_line = out.splitlines()[0]
    assert seed_line.startswith("seed=")
    assert int(seed_line.split("=", 1)[1]) >= 0


def test_solve_recovers_codim_and_writes_outputs(dataset, tmp_path, capsys):
    basis = tmp_path / "basis.csv"
    report = tmp_path / "report.json"
    code, out, _ = run_cli(["solve", "--in", dataset, "--cprime", "4", "--seed", "7",
                            "--schedule", "pgd", "--mu0", "auto", "--beta", "0.5",
                            "--K0", "500", "--Kstar", "5", "--max-iters", "2000",
                            "--stop-tol", "1e-12", "--out-basis", str(basis),
                            "--out-report", str(report)], capsys)
    assert code == 0
    assert "seed=7" in out and "estimated_codim=2" in out
    b = load_csv(str(basis))
    assert b.points.shape == (8, 4)
    doc = json.loads(report.read_text())
    assert doc["estimated_codim"] == 2
    assert doc["outlier_f1"] == 1.0
    assert len(doc["singular_values"]) == 4


def test_solve_writes_each_instance_trace(dataset, tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    code, out, _ = run_cli(["solve", "--in", dataset, "--cprime", "3", "--seed", "7",
                            "--trace", str(trace_dir)], capsys)
    assert code == 0 and f"wrote 3 traces to {trace_dir}" in out
    assert sorted(os.listdir(trace_dir)) == ["trace_0.csv", "trace_1.csv", "trace_2.csv"]
    config = solver.SolverConfig(c_prime=3, max_iters=1000, seed=7)
    expected = solver.psgm_multi(load_csv(dataset), config).traces[1]
    lines = (trace_dir / "trace_1.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,step"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == expected.n_iterations + 1
    assert [float(r[1]) for r in rows] == expected.objective.tolist()
    assert [float(r[2]) for r in rows[:-1]] == expected.step.tolist()
    assert rows[-1][2] == "" and all(len(r) == 3 for r in rows)


def test_rsgm_at_true_codim(dataset, capsys):
    code, out, _ = run_cli(["rsgm", "--in", dataset, "--cprime", "2",
                            "--schedule", "pgd", "--mu0", "0.05", "--beta", "0.5",
                            "--K0", "50", "--Kstar", "5", "--max-iters", "500"], capsys)
    assert code == 0
    assert out.startswith("seed=deterministic")
    assert "estimated_codim=2" in out


def test_geometry_emits_stats_kv_and_json(dataset, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code, out, _ = run_cli(["geometry", "--in", dataset, "--seed", "1",
                            "--out", str(stats)], capsys)
    assert code == 0
    keys = {line.split("=")[0] for line in out.splitlines() if "=" in line}
    assert {"c_X_min", "c_X_max", "c_O_min", "c_O_max", "eta_X", "eta_O",
            "c_d", "c_D"} <= keys
    raw = json.loads(stats.read_text())
    loaded = geometry.GeometryStats(**raw)  # roundtrips through the dataclass
    assert loaded.c_d == pytest.approx(geometry.hemisphere_height(6))


@pytest.fixture(scope="module")
def limit_stats(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "limit.json"
    path.write_text(to_json(geometry.continuous_limit_stats(16, 16)))
    return str(path)


def test_theory_exit_zero_when_condition_holds(limit_stats, tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(["theory", "--stats", limit_stats, "--N", "100", "--M", "100",
                            "--D", "16", "--cprime", "4", "--mu0", "1e-4",
                            "--beta", "0.5", "--K0", "10", "--Kstar", "10",
                            "--out", str(path)], capsys)
    assert code == 0
    assert "condition_holds=true" in out
    assert "margin=0.25" in out and "delta_bound=0" in out
    assert f"wrote report to {path}" in out
    doc = json.loads(path.read_text())
    assert doc["condition_holds"] is True and doc["margin"] == 0.25 and doc["delta_bound"] == 0.0


def test_theory_exit_three_when_condition_fails(limit_stats, capsys):
    code, out, _ = run_cli(["theory", "--stats", limit_stats, "--N", "100", "--M", "100",
                            "--D", "16", "--cprime", "12", "--mu0", "1e-4",
                            "--beta", "0.5", "--K0", "10", "--Kstar", "10"], capsys)
    assert code == 3
    assert "condition_holds=false" in out


def test_theory_exit_three_on_infeasible_step(limit_stats, capsys):
    code, _, err = run_cli(["theory", "--stats", limit_stats, "--N", "100", "--M", "100",
                            "--D", "16", "--cprime", "4", "--mu0", "10"], capsys)
    assert code == 3
    assert "condition failed during evaluation" in err


@pytest.mark.parametrize("flags, message", [
    ((), None),
    (("--theta0", "2.0"), "--theta0 must lie in [0, pi/2]"),
    (("--theta0", "-0.1"), "--theta0 must lie in [0, pi/2]"),
    (("--cprime", "0"), "need 1 <= --cprime <= --D"),
    (("--cprime", "300"), "need 1 <= --cprime <= --D"),
    (("--N", "-1500"), "--N and --M must be >= 0"),
])
def test_theory_rejects_bad_flags_before_the_evaluation(tmp_path, flags, message, capsys):
    # a bad flag is an error (exit 2), not a condition that fails (exit 3);
    # a repeated flag overrides the baseline's
    stats = tmp_path / "limit.json"
    stats.write_text(to_json(geometry.continuous_limit_stats(195, 200)))
    base = ["theory", "--stats", str(stats), "--N", "1500", "--M", "1500", "--D", "200",
            "--cprime", "5", "--mu0", "1e-4", "--theta0", "0.8"]
    code, _, err = run_cli(base + list(flags), capsys)
    assert code == (0 if message is None else 2), err
    if message is not None:
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["geometry", "theory"])
def test_stats_from_data_reject_an_empty_inlier_class(dataset, command, tmp_path, capsys):
    m = load_csv(dataset)
    path = tmp_path / "outliers.csv"
    save_csv(DataMatrix(points=m.points, labels=np.full(m.n_points, "outlier"),
                        unit_normalized=True), str(path))
    extra = ["--D", "8", "--cprime", "2"] if command == "theory" else []
    code, _, err = run_cli([command, "--in", str(path), "--seed", "3"] + extra, capsys)
    assert code == 2
    assert "the inlier class is empty" in err


def test_theory_stats_path_requires_counts(limit_stats, capsys):
    code, _, err = run_cli(["theory", "--stats", limit_stats, "--D", "16",
                            "--cprime", "4"], capsys)
    assert code == 2
    assert "--N and --M are required" in err


def test_theory_stats_rejects_unknown_keys(limit_stats, tmp_path, capsys):
    with open(limit_stats) as fh:
        stats = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(stats, eta=0.1)))
    code, _, err = run_cli(["theory", "--stats", str(bad), "--N", "10", "--M", "10",
                            "--D", "16", "--cprime", "4"], capsys)
    assert code == 2
    assert "unknown keys ['eta'] for GeometryStats" in err


@pytest.mark.parametrize("key, value", [("c_X_min", "0.5"), ("c_D", True), ("c_d", [0.5]),
                                        ("estimation_meta", 3)])
def test_theory_stats_rejects_mistyped_values(limit_stats, tmp_path, key, value, capsys):
    with open(limit_stats) as fh:
        stats = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(stats, **{key: value})))
    code, _, err = run_cli(["theory", "--stats", str(bad), "--N", "10", "--M", "10",
                            "--D", "16", "--cprime", "4"], capsys)
    assert code == 2
    assert err.startswith("error: ") and f"{key} must be" in err


def test_theory_from_data_prints_its_seed(dataset, capsys):
    code, out, _ = run_cli(["theory", "--in", dataset, "--seed", "3", "--D", "8",
                            "--cprime", "2", "--mu0", "1e-4"], capsys)
    assert code in (0, 3)
    assert out.splitlines()[0] == "seed=3"


@pytest.fixture(scope="module")
def scaled_dataset(dataset, tmp_path_factory):
    paths = []
    m = load_csv(dataset)
    for scale in (3.0, 0.3):
        path = tmp_path_factory.mktemp("cli") / f"scaled{scale}.csv"
        save_csv(DataMatrix(points=scale * m.points, labels=m.labels), str(path))
        paths.append(str(path))
    return paths


def test_theory_from_data_rejects_non_unit_columns(scaled_dataset, capsys):
    for path in scaled_dataset:
        code, _, err = run_cli(["theory", "--in", path, "--seed", "3", "--D", "8",
                                "--cprime", "2"], capsys)
        assert code == 2
        assert "pass --normalize" in err


def test_theory_from_data_normalizes_on_request(scaled_dataset, capsys):
    code, out, err = run_cli(["theory", "--in", scaled_dataset[0], "--normalize",
                              "--seed", "3", "--D", "8", "--cprime", "2"], capsys)
    assert code != 2, err
    assert out.splitlines()[0] == "seed=3"


def test_continuous_command_table_and_plotdata(tmp_path, capsys):
    out_csv = tmp_path / "cont.csv"
    plot = tmp_path / "cont.tsv"
    code, out, _ = run_cli(["continuous", "--D", "8", "--d", "5", "--p", "0.6",
                            "--cprime", "4", "--trials", "2", "--seed", "9",
                            "--mu0", "0.5", "--K0", "300", "--Kstar", "10",
                            "--max-iters", "2000", "--stop-tol", "1e-14",
                            "--out", str(out_csv), "--plotdata", str(plot)], capsys)
    assert code == 0 and "seed=9" in out
    table = harness.load_results(str(out_csv))
    assert table.kind == "continuous_check" and len(table.rows) == 2
    assert all(r.report["spans_complement"] for r in table.rows)
    header = plot.read_text().splitlines()[0]
    assert header.split("\t")[0] == "trial"


def test_grid_command_runs_config_and_rejects_kind_mismatch(tmp_path, capsys):
    cfg = harness.ExperimentConfig(kind="phase_transition", D=6, d=4, c_prime=3,
                                   N_grid=(40,), M_grid=(10,), methods=("psgm",),
                                   trials=1, seed=2, max_iters=150)
    cfg_path = tmp_path / "phase.json"
    harness.config_to_json(cfg, str(cfg_path))
    out_csv = tmp_path / "phase.csv"
    plot = tmp_path / "phase.tsv"
    code, out, _ = run_cli(["phase", "--config", str(cfg_path), "--out", str(out_csv),
                            "--plotdata", str(plot)], capsys)
    assert code == 0 and "seed=2" in out
    assert len(harness.load_results(str(out_csv)).rows) == 1
    assert plot.read_text().startswith("N\tM\tmethod")
    code, _, err = run_cli(["codim", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert "does not match the codim command" in err
    raw = json.loads(cfg_path.read_text())
    bad_configs = [(dict(raw, workers=2), "unknown keys ['workers']"),
                   (dict(raw, rsgm_known_c=2), "unknown keys ['rsgm_known_c']"),
                   ({k: v for k, v in raw.items() if k != "kind"}, "missing keys ['kind']")]
    for doc, message in bad_configs:
        cfg_path.write_text(json.dumps(doc))
        code, _, err = run_cli(["codim", "--config", str(cfg_path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and message in err


def test_grid_seed_flag_overrides_the_config_and_failed_cells_reach_stderr(tmp_path, capsys):
    # rsgm_over at c' = 8 > D = 6 fails its rows; psgm runs on
    cfg = harness.ExperimentConfig(kind="phase_transition", D=6, d=4, c_prime=8,
                                   N_grid=(40,), M_grid=(10,), methods=("psgm", "rsgm_over"),
                                   trials=1, seed=2, max_iters=50)
    cfg_path = tmp_path / "phase.json"
    harness.config_to_json(cfg, str(cfg_path))
    out_csv = tmp_path / "phase.csv"
    code, out, err = run_cli(["phase", "--config", str(cfg_path), "--seed", "11",
                              "--out", str(out_csv)], capsys)
    assert code == 0 and "seed=11" in out
    want = harness.run_experiment(dataclasses.replace(cfg, seed=11))
    assert harness.load_results(str(out_csv)).sorted_rows() == [
        dataclasses.replace(r, wall_time=0.0) for r in want.sorted_rows()]
    assert err.startswith("1 of 2 cells failed; first: invalid dimensions")


@pytest.mark.parametrize("command", ["phase", "continuous"])
def test_table_commands_write_wall_time_only_with_timing(command, tmp_path, capsys):
    if command == "phase":
        cfg = harness.ExperimentConfig(kind="phase_transition", D=6, d=4, c_prime=3,
                                       N_grid=(40,), M_grid=(10, 20), methods=("psgm",),
                                       trials=1, seed=2, max_iters=150)
        harness.config_to_json(cfg, str(tmp_path / "phase.json"))
        argv = ["phase", "--config", str(tmp_path / "phase.json")]
    else:
        argv = ["continuous", "--D", "6", "--d", "4", "--p", "0.5", "--cprime", "2",
                "--trials", "2", "--seed", "3", "--mu0", "0.5"]
    tables = {}
    for name, extra in (("a", []), ("b", []), ("timed", ["--timing"])):
        path = tmp_path / f"{name}.csv"
        code, _, err = run_cli(argv + ["--out", str(path)] + extra, capsys)
        assert code == 0, err
        tables[name] = path
    assert tables["a"].read_bytes() == tables["b"].read_bytes()
    default, timed = (harness.load_results(str(tables[k])) for k in ("a", "timed"))
    assert all(r.wall_time == 0.0 for r in default.rows)
    assert all(r.wall_time > 0.0 for r in timed.rows)
    assert ([dataclasses.replace(r, wall_time=0.0) for r in timed.sorted_rows()]
            == default.sorted_rows())


_CODIM_DOC = {"kind": "codim_sweep", "D": 6, "N": 40, "codim_grid": [2], "r_grid": [0.5],
              "c_prime": 3, "max_iters": 20}


@pytest.mark.parametrize("key, value", [
    ("D", "20"), ("mu0", [0.1, 0.2]), ("codim_grid", 2), ("max_iters", 20.5),
    ("trials", True), ("r_grid", [0.5, "0.6"]), ("codim_grid", [2.0]), ("methods", "psgm"),
])
def test_grid_config_rejects_mistyped_values(tmp_path, key, value, capsys):
    cfg_path = tmp_path / "codim.json"
    cfg_path.write_text(json.dumps(dict(_CODIM_DOC, **{key: value})))
    code, _, err = run_cli(["codim", "--config", str(cfg_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and f"{key} must be" in err


def test_grid_config_takes_ints_as_floats_and_lists_as_tuples(tmp_path):
    cfg_path = tmp_path / "codim.json"
    cfg_path.write_text(json.dumps(dict(_CODIM_DOC, mu0=1, d=None, methods=["psgm"])))
    cfg = harness.config_from_json(str(cfg_path))
    assert cfg.mu0 == 1 and cfg.codim_grid == (2,) and cfg.methods == ("psgm",)


_SOLVE_STEPS = dict(schedule="mbls", mu0=None, beta=0.6, K0=30, K_star=10, max_iters=1000,
                    stop_tol=1e-8)


@pytest.mark.parametrize("argv, defaults", [
    (["solve", "--in", "d.csv", "--cprime", "2"], _SOLVE_STEPS),
    (["rsgm", "--in", "d.csv", "--cprime", "2"], _SOLVE_STEPS),
    (["theory", "--D", "4", "--cprime", "2"], dict(mu0=None, beta=0.6, K0=30, K_star=10)),
    (["continuous", "--D", "4", "--d", "2", "--p", "0.5", "--cprime", "2"],
     dict(mu0=None, beta=0.5, K0=50, K_star=5, max_iters=1000, stop_tol=1e-14)),
])
def test_step_flag_defaults_per_command(argv, defaults):
    args = vars(cli.build_parser().parse_args(argv))
    assert {k: args[k] for k in defaults} == defaults
    assert not (set(_SOLVE_STEPS) - set(defaults)) & set(args)  # flags it does not declare


def test_solve_settings_default_to_the_solver_settings():
    # SolverConfig holds the limits and ScheduleParams the step rule's numbers;
    # every other default reads them, so `dpcp solve --cprime c --seed s` runs
    # psgm_multi(m, SolverConfig(c_prime=c, seed=s)), and `dpcp rsgm --cprime c`
    # runs rsgm_run(m, c, MBLS())
    limits = {n: getattr(solver.SolverConfig, n) for n in ("max_iters", "stop_tol")}
    steps = {n: getattr(solver.ScheduleParams, n) for n in ("beta", "K0", "K_star")}
    assert limits == dict(max_iters=1000, stop_tol=1e-8)
    assert steps == dict(beta=0.6, K0=30, K_star=10)
    config = {f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)}
    sources = [vars(cli.build_parser().parse_args([command, "--in", "d.csv", "--cprime", "2"]))
               for command in ("solve", "rsgm")] + [dict(config, schedule=config["schedule_kind"])]
    for s in sources:
        assert {n: s[n] for n in {**limits, **steps}} == {**limits, **steps}
        assert solver.schedule_from(s["schedule"], s["mu0"], s["beta"], s["K0"],
                                    s["K_star"]) == solver.SolverConfig().schedule
    params = inspect.signature(rsgm.rsgm_run).parameters
    assert {n: params[n].default for n in limits} == limits


def test_table_commands_reject_broken_solver_settings_before_the_run(tmp_path, capsys):
    cfg = harness.ExperimentConfig(kind="codim_sweep", D=6, N=40, c_prime=3,
                                   codim_grid=(2,), r_grid=(0.2,))
    cfg_path = tmp_path / "codim.json"
    harness.config_to_json(cfg, str(cfg_path))
    cfg_path.write_text(json.dumps(dict(json.loads(cfg_path.read_text()), max_iters=0)))
    for argv in (["codim", "--config", str(cfg_path)],
                 ["continuous", "--D", "4", "--d", "2", "--p", "0.5", "--cprime", "2",
                  "--max-iters", "0"]):
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "t.csv")], capsys)
        assert code == 2 and "invalid solver limits" in err
        assert "cells failed" not in err and not (tmp_path / "t.csv").exists()


def test_table_commands_reject_a_bad_out_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    cfg_path = tmp_path / "codim.json"
    cfg_path.write_text(json.dumps(_CODIM_DOC))
    out = str(tmp_path / "table.json")
    for argv in (["codim", "--config", str(cfg_path)],
                 ["continuous", "--D", "4", "--d", "2", "--p", "0.5", "--cprime", "2"]):
        code, _, err = run_cli(argv + ["--out", out], capsys)
        assert code == 2
        assert "result tables are .csv" in err


def test_dispatch_usage_and_runtime_exit_codes(dataset, tmp_path, capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, _ = run_cli(["solve", "--cprime", "2"], capsys)  # missing --in
    assert code == 1
    code, _, err = run_cli(["solve", "--in", dataset, "--cprime", "2",
                            "--schedule", "const"], capsys)
    assert code == 2
    assert "needs a numeric --mu0" in err
    code, _, err = run_cli(["solve", "--in", dataset, "--cprime", "2", "--mu0", "abc"], capsys)
    assert code == 1 and "expected a number or 'auto', got 'abc'" in err
    for argv, unread in ((["solve", "--schedule", "mbls", "--beta", "1.5"], "['beta']"),
                         (["rsgm", "--schedule", "const", "--mu0", "0.1", "--Kstar", "3"],
                          "['K_star']")):
        code, _, err = run_cli(argv + ["--in", dataset, "--cprime", "2"], capsys)
        assert code == 2 and f"schedule {argv[2]!r} does not read {unread}" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,zap\n")
    code, _, err = run_cli(["solve", "--in", str(bad), "--cprime", "2"], capsys)
    assert code == 2
    assert "error:" in err and "'zap'" in err
    unlabeled = tmp_path / "unlabeled.csv"
    save_csv(DataMatrix(points=load_csv(dataset).points, unit_normalized=True), str(unlabeled))
    for argv, message in (
        (["geometry", "--in", str(unlabeled)], "need a labeled dataset"),
        (["geometry", "--in", dataset, "--d", "8"], "invalid inlier dimension 8"),
        (["theory", "--D", "8", "--cprime", "2"], "pass --stats stats.json or --in data.csv"),
        (["rsgm", "--in", dataset, "--cprime", "2", "--stop-tol", "-1"],
         "invalid solver limits: need max_iters >= 1 and stop_tol >= 0, got 1000 and -1.0"),
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err.startswith("error: ") and message in err, (argv, err)


def test_dispatch_turns_only_input_errors_into_exit_two(monkeypatch, capsys):
    def fail_with(exc):
        def fail(args):
            raise exc
        return fail

    argv = ["gen", "--D", "4", "--d", "2", "--N", "10", "--M", "5", "--out", "d.csv"]
    for exc in (ValueError("bad value"), OSError("no disk")):
        monkeypatch.setattr(cli, "_cmd_gen", fail_with(exc))
        code, _, err = run_cli(argv, capsys)
        assert code == 2 and err == f"error: {exc}\n"
    monkeypatch.setattr(cli, "_cmd_gen", fail_with(KeyError("max_iters")))
    with pytest.raises(KeyError, match="max_iters"):
        cli.dispatch(argv)


def test_module_entry_point_runs_a_command(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(dpcp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "d.csv"
    proc = subprocess.run([sys.executable, "-m", "dpcp.cli", "gen", "--D", "4", "--d", "2",
                           "--N", "10", "--M", "5", "--seed", "1", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("seed=1")
    assert load_csv(str(out)).n_points == 15
