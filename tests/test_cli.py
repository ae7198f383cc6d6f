"""End-to-end command line checks, run in-process through dispatch()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpcp
from dpcp import cli, geometry, harness
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


def test_theory_exit_zero_when_condition_holds(limit_stats, capsys):
    code, out, _ = run_cli(["theory", "--stats", limit_stats, "--N", "100", "--M", "100",
                            "--D", "16", "--cprime", "4", "--mu0", "1e-4",
                            "--beta", "0.5", "--K0", "10", "--Kstar", "10"], capsys)
    assert code == 0
    assert "condition_holds=true" in out
    assert "margin=0.25" in out and "delta_bound=0" in out


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


def test_dispatch_usage_and_runtime_exit_codes(dataset, tmp_path, capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 1
    code, _, _ = run_cli(["solve", "--cprime", "2"], capsys)  # missing --in
    assert code == 1
    code, _, err = run_cli(["solve", "--in", dataset, "--cprime", "2",
                            "--schedule", "const"], capsys)
    assert code == 2
    assert "needs a numeric --mu0" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1\n1.0,zap\n")
    code, _, err = run_cli(["solve", "--in", str(bad), "--cprime", "2"], capsys)
    assert code == 2
    assert "error:" in err and "'zap'" in err


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
