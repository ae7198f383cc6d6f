"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from dpcp.dataset import DataMatrix, generate_dataset, sample_haar_subspace, save_csv  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "codim_r06", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


# --- each check rejects a deliberately corrupted output ----------------------

D, C = 12, 4


@pytest.fixture
def model():
    return sample_haar_subspace(D, D - C, 11)


def _rotate_into_S(b, model, angle):
    s = model.basis_S[:, 0]
    return np.cos(angle) * b + np.sin(angle) * s


def _psgm_case(model):
    rng = np.random.default_rng(0)
    B = model.basis_Sperp @ rng.standard_normal((C, 6))
    B /= np.linalg.norm(B, axis=0)
    traces = [SimpleNamespace(n_iterations=50, objective=np.linspace(10.0, 1.0, 51))
              for _ in range(6)]
    report = {"estimated_codim": C,
              "projection_distance": checks.projector_distance(
                  checks.leading_directions(B, C), model.basis_Sperp)}
    return B, traces, report


def test_psgm_basis_check_accepts_a_recovered_basis(model):
    B, traces, report = _psgm_case(model)
    assert checks.psgm_basis(B, traces, 1000, model, report) == []


def test_psgm_basis_check_rejects_a_column_rotated_into_S(model):
    B, traces, report = _psgm_case(model)
    B[:, 2] = _rotate_into_S(B[:, 2], model, 1e-3)
    report["projection_distance"] = checks.projector_distance(
        checks.leading_directions(B, C), model.basis_Sperp)
    bad = checks.psgm_basis(B, traces, 1000, model, report)
    assert len(bad) == 1 and "instance 2" in bad[0]
    # the same column is allowed to be off when its instance hit max_iters
    traces[2].n_iterations = 1000
    assert checks.psgm_basis(B, traces, 1000, model, report) == []


def test_psgm_basis_check_rejects_a_column_off_unit_norm(model):
    B, traces, report = _psgm_case(model)
    B[:, 0] *= 1 + 1e-7
    assert any("norm" in m for m in checks.psgm_basis(B, traces, 1000, model, report))


def test_psgm_basis_check_rejects_a_wrong_reported_distance(model):
    B, traces, report = _psgm_case(model)
    report["projection_distance"] += 1e-6
    assert any("projection distance" in m
               for m in checks.psgm_basis(B, traces, 1000, model, report))


def test_psgm_basis_check_rejects_a_rising_objective(model):
    B, traces, report = _psgm_case(model)
    traces[4].objective[7] = traces[4].objective[6] * (1 + 1e-9)
    assert any("instance 4: objective rises" in m
               for m in checks.psgm_basis(B, traces, 1000, model, report))


def _row(**kw):
    base = dict(cell={"c": 10, "r": 0.6}, method="psgm", trial=0, error=None,
                report={"estimated_codim": 10, "projection_distance": 1e-6,
                        "outlier_f1": 1.0})
    base.update(kw)
    return SimpleNamespace(**base)


def test_codim_row_check():
    assert checks.codim_row(_row(), 30) == []
    assert checks.codim_row(_row(report={"estimated_codim": 11,
                                         "projection_distance": 1e-6}), 30)
    assert checks.codim_row(_row(report={"estimated_codim": 10,
                                         "projection_distance": 0.02}), 30)
    assert checks.codim_row(_row(report={"estimated_codim": 0}), 30)
    assert checks.codim_row(_row(report={"estimated_codim": 31}), 30)
    assert checks.codim_row(_row(error="degenerate step"), 30)


def test_f1_check():
    assert checks.f1_at_least(_row(), "psgm") == []
    assert checks.f1_at_least(_row(report={"outlier_f1": 0.947}), "psgm")
    assert checks.f1_at_least(_row(report={"outlier_f1": None}), "psgm")


def test_rsgm_over_check(model):
    off = np.column_stack([model.basis_Sperp[:, :1], model.basis_S[:, :5]])
    assert checks.rsgm_over_basis(off, model) == []
    skewed = off.copy()
    skewed[:, 1] = (off[:, 1] + 1e-6 * off[:, 2]) / np.linalg.norm(off[:, 1] + 1e-6 * off[:, 2])
    assert any("orthonormal" in m for m in checks.rsgm_over_basis(skewed, model))


def test_rsgm_over_check_rejects_too_few_columns_off_the_complement(model):
    q = np.column_stack([model.basis_Sperp, model.basis_S[:, :2]])
    assert any("only 2 columns" in m for m in checks.rsgm_over_basis(q, model))


def test_outlier_score_check(model):
    matrix = generate_dataset(model, 40, 20, 3)
    is_out = matrix.labels == "outlier"
    assert checks.outlier_scores_separate(model.basis_Sperp, matrix.points, is_out, C, "x") == []
    flipped = is_out.copy()
    flipped[np.flatnonzero(~is_out)[0]] = True
    assert checks.outlier_scores_separate(model.basis_Sperp, matrix.points, flipped, C, "x")


@pytest.fixture
def cli_files(tmp_path, model):
    matrix = generate_dataset(model, 60, 40, 5)
    data = tmp_path / "data.csv"
    save_csv(matrix, str(data))
    basis = tmp_path / "basis.csv"
    save_csv(DataMatrix(points=model.basis_Sperp, unit_normalized=True), str(basis))
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"estimated_codim": C}))
    return data, basis, report


def test_cli_checks_accept_correct_outputs(cli_files):
    data, basis, report = cli_files
    bad, complement = checks.generated_csv(str(data), D, D - C, 60, 40)
    assert bad == []
    assert checks.solve_outputs(str(report), str(basis), complement, C) == []


def test_generated_csv_check_rejects_corruption(cli_files, tmp_path):
    data, _, _ = cli_files
    lines = data.read_text().splitlines()
    relabeled = lines[:1] + [lines[1].rsplit(",", 1)[0] + ",out" if lines[1].endswith(",in")
                             else lines[1].rsplit(",", 1)[0] + ",in"] + lines[2:]
    bad_labels = tmp_path / "labels.csv"
    bad_labels.write_text("\n".join(relabeled) + "\n")
    assert checks.generated_csv(str(bad_labels), D, D - C, 60, 40)[0]
    values = lines[2].split(",")
    values[0] = repr(float(values[0]) * 1.001)
    scaled = tmp_path / "scaled.csv"
    scaled.write_text("\n".join(lines[:2] + [",".join(values)] + lines[3:]) + "\n")
    assert checks.generated_csv(str(scaled), D, D - C, 60, 40)[0]
    assert checks.generated_csv(str(data), D, D - C - 1, 60, 40)[0]   # wrong inlier rank


def test_solve_check_rejects_corruption(cli_files, model, tmp_path):
    data, basis, report = cli_files
    _, complement = checks.generated_csv(str(data), D, D - C, 60, 40)
    report.write_text(json.dumps({"estimated_codim": C + 1}))
    assert checks.solve_outputs(str(report), str(basis), complement, C)
    report.write_text(json.dumps({"estimated_codim": C}))
    B = model.basis_Sperp.copy()
    B[:, 1] = _rotate_into_S(B[:, 1], model, 0.05)
    rotated = tmp_path / "rotated.csv"
    save_csv(DataMatrix(points=B, unit_normalized=True), str(rotated))
    assert any("from the inlier complement" in m
               for m in checks.solve_outputs(str(report), str(rotated), complement, C))
