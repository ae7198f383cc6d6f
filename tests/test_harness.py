import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcp import harness
from dpcp.harness import (
    ExperimentConfig,
    ResultRow,
    ResultTable,
    cell_data_seeds,
    config_from_json,
    config_to_json,
    derive_seed,
    exact_recovery_rates,
    hsi_proxy,
    load_results,
    persist,
    ratio_to_counts,
    run_experiment,
    write_plotdata,
)


def _phase_config(**kw):
    base = dict(kind="phase_transition", D=8, d=6, N_grid=(60,), M_grid=(20,),
                methods=("psgm", "rsgm"), trials=2, c_prime=4, seed=11,
                max_iters=150)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(kind="grid", D=8)
    with pytest.raises(ValueError, match="invalid config"):
        _phase_config(D=1)
    with pytest.raises(ValueError, match="unknown schedule kind"):
        _phase_config(schedule_kind="adam")
    with pytest.raises(ValueError, match="phase grid"):
        ExperimentConfig(kind="phase_transition", D=8, d=6, N_grid=(60,))
    with pytest.raises(ValueError, match="unknown methods"):
        _phase_config(methods=("psgm", "irls"))
    with pytest.raises(ValueError, match="needs N"):
        ExperimentConfig(kind="codim_sweep", D=10, codim_grid=(2,), r_grid=(0.2,))
    with pytest.raises(ValueError, match="c_prime must cover"):
        ExperimentConfig(kind="codim_sweep", D=10, N=50, codim_grid=(2, 6),
                         r_grid=(0.2,), c_prime=4)
    with pytest.raises(ValueError, match="needs ratios"):
        ExperimentConfig(kind="outlier_pursuit", D=6, r_grid=(1.0,))
    with pytest.raises(ValueError, match="invalid ratio"):
        ExperimentConfig(kind="continuous_check", D=8, d=5, c_prime=4)
    with pytest.raises(ValueError, match="at least the codimension"):
        ExperimentConfig(kind="continuous_check", D=8, d=5, p=0.5, c_prime=2)
    for bad, message in (
        (lambda: _phase_config(N_grid=(0,)), "invalid grid: every N >= 1 and M >= 0"),
        (lambda: _phase_config(M_grid=(-1,)), "invalid grid: every N >= 1 and M >= 0"),
        (lambda: _phase_config(d=8), "phase grid needs 1 <= d < D"),
        (lambda: ExperimentConfig(kind="codim_sweep", D=10, N=50, r_grid=(0.2,)),
         "codim sweep needs codim_grid and r_grid"),
        (lambda: ExperimentConfig(kind="codim_sweep", D=10, N=50, codim_grid=(10,),
                                  r_grid=(0.2,)), "invalid grid: every codimension in [1, D)"),
        (lambda: ExperimentConfig(kind="codim_sweep", D=10, N=50, codim_grid=(2,),
                                  r_grid=(1.0,)), "invalid ratio: every r in (0, 1)"),
        (lambda: ExperimentConfig(kind="outlier_pursuit", D=6, proxy_inlier_dim=6,
                                  r_grid=(0.5,)), "invalid proxy dimensions"),
        (lambda: ExperimentConfig(kind="continuous_check", D=8, d=8, p=0.5, c_prime=4),
         "continuous check needs 1 <= d < D"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            bad()
    # a kind that runs one method names only that one
    codim = dict(kind="codim_sweep", D=6, N=40, codim_grid=(2,), r_grid=(0.2,))
    with pytest.raises(ValueError, match=r"unknown methods \['bogus', 'rsgm'\]"):
        ExperimentConfig(**codim, methods=("rsgm", "bogus"))
    with pytest.raises(ValueError, match=r"unknown methods \['psgm'\]"):
        ExperimentConfig(kind="continuous_check", D=8, d=5, p=0.5, c_prime=4,
                         methods=("psgm",))
    assert ExperimentConfig(**codim, methods=("psgm",)).methods == ("psgm",)
    assert ExperimentConfig(**codim).methods == ()
    # default method lists fill in
    assert ExperimentConfig(kind="outlier_pursuit", D=6, proxy_inlier_dim=3,
                            r_grid=(0.5,)).methods == ("psgm", "rsgm", "rsgm_known")


@pytest.mark.parametrize("kind, bad, message", [
    ("phase_transition", dict(max_iters=0), "invalid solver limits"),
    ("phase_transition", dict(stop_tol=-1.0), "invalid solver limits"),
    ("phase_transition", dict(mu0=-1.0), "mu_init must be > 0"),
    ("phase_transition", dict(schedule_kind="const"), "needs a numeric --mu0"),
    ("phase_transition", dict(schedule_kind="pgd", beta=1.5), "invalid decay"),
    ("phase_transition", dict(schedule_kind="pgd", K0=0), "need K0 >= 1"),
    ("continuous_check", dict(max_iters=0), "invalid solver limits"),
    ("continuous_check", dict(mu0=-1.0), "every mu0 must be > 0"),
])
def test_config_rejects_broken_solver_settings(kind, bad, message):
    # checked before any run, not left to fail every row of the grid
    base = (dict(N_grid=(60,), M_grid=(20,)) if kind == "phase_transition"
            else dict(p=0.5))
    ExperimentConfig(kind=kind, D=8, d=5, c_prime=4, **base)
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(kind=kind, D=8, d=5, c_prime=4, **base, **bad)


@pytest.mark.parametrize("n_columns", [0, -3])
def test_pursuit_config_rejects_an_empty_proxy(n_columns):
    # checked before any run, not left to fail every row of the grid
    with pytest.raises(ValueError, match=f"n_columns >= 1, got {n_columns}"):
        ExperimentConfig(kind="outlier_pursuit", D=4, proxy_inlier_dim=3, r_grid=(0.5,),
                         n_columns=n_columns)


def test_config_json_roundtrip(tmp_path):
    cfg = _phase_config()
    p = tmp_path / "cfg.json"
    config_to_json(cfg, str(p))
    assert config_from_json(str(p)) == cfg


def test_derive_seed_stable_and_sensitive():
    a = derive_seed(7, "phase_transition", 100, 200, 0)
    assert a == derive_seed(7, "phase_transition", 100, 200, 0)
    assert a != derive_seed(8, "phase_transition", 100, 200, 0)
    assert a != derive_seed(7, "phase_transition", 100, 200, 1)
    assert 0 <= a < 2**64
    # float parts hash by value, not by formatting accident
    assert derive_seed(7, 0.7) == derive_seed(7, 0.7)
    assert derive_seed(7, 0.7) != derive_seed(7, 0.6999999)


def test_cell_data_seeds_ignore_method():
    cfg_a = _phase_config(methods=("psgm",))
    cfg_b = _phase_config(methods=("rsgm",))
    assert cell_data_seeds(cfg_a, 60, 20, 0) == cell_data_seeds(cfg_b, 60, 20, 0)
    assert cell_data_seeds(cfg_a, 60, 20, 0) != cell_data_seeds(cfg_a, 60, 20, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=10, max_value=5000),
       st.floats(min_value=0.05, max_value=0.95))
def test_ratio_to_counts_hits_requested_fraction(N, r):
    M = ratio_to_counts(N, r)
    assert M >= 0
    assert abs(M / (M + N) - r) <= 1.0 / (M + N)


def test_hsi_proxy_structure():
    model, matrix = hsi_proxy(D=6, inlier_dim=3, n_columns=300, seed=4)
    assert matrix.points.shape == (6, 300)
    assert matrix.unit_normalized
    assert np.all(matrix.labels == "inlier")
    resid = np.linalg.norm(model.basis_Sperp.T @ matrix.points, axis=0)
    assert resid.max() < 0.02  # columns hug the subspace up to the noise
    again = hsi_proxy(D=6, inlier_dim=3, n_columns=300, seed=4)[1]
    assert np.array_equal(matrix.points, again.points)


def test_run_phase_transition_smoke():
    table = run_experiment(_phase_config())
    assert table.kind == "phase_transition"
    assert len(table.rows) == 4  # 1 cell x 2 methods x 2 trials
    for row in table.rows:
        assert row.error is None
        assert row.wall_time > 0
        assert row.report["true_codim"] == 2
    psgm_rows = [r for r in table.rows if r.method == "psgm"]
    assert all(r.report["estimated_codim"] == 2 for r in psgm_rows)
    rates = exact_recovery_rates(table)
    assert rates[(20, 60, "psgm")] == 1.0


def test_phase_subgrid_reproduces_rows():
    small = run_experiment(_phase_config(methods=("psgm",), trials=1))
    big = run_experiment(_phase_config(methods=("psgm",), trials=1,
                                       M_grid=(20, 40)))
    small_row = small.rows[0]
    match = [r for r in big.rows if r.cell == {"N": 60, "M": 20}]
    assert len(match) == 1
    assert match[0].report == small_row.report
    assert match[0].seed == small_row.seed


def test_run_codim_sweep_smoke():
    cfg = ExperimentConfig(kind="codim_sweep", D=10, N=80, codim_grid=(2, 3),
                           r_grid=(0.2,), c_prime=5, trials=1, seed=3,
                           max_iters=200)
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    rates = exact_recovery_rates(table)
    assert rates[(2, 0.2, "psgm")] == 1.0
    assert rates[(3, 0.2, "psgm")] == 1.0


def test_run_outlier_pursuit_smoke():
    cfg = ExperimentConfig(kind="outlier_pursuit", D=6, proxy_inlier_dim=3,
                           n_columns=400, r_grid=(0.5,),
                           methods=("psgm", "rsgm_known"), c_prime=6, trials=1,
                           seed=5, max_iters=200)
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    by_method = {r.method: r for r in table.rows}
    assert by_method["psgm"].report["outlier_f1"] > 0.95
    assert by_method["rsgm_known"].report["outlier_f1"] > 0.95
    assert "true_codim" not in by_method["psgm"].report  # proxy has no model


def test_run_continuous_check_smoke():
    cfg = ExperimentConfig(kind="continuous_check", D=8, d=5, p=0.5, c_prime=4,
                           trials=2, seed=9, mu0=0.5, K0=300, K_star=10,
                           max_iters=2000, stop_tol=1e-14)
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    for row in table.rows:
        assert row.error is None
        assert row.report["spans_complement"] is True
        assert row.report["estimated_codim"] == 3
        assert row.report["max_fixed_point_angle_error"] < 1e-6
    tagged = run_experiment(ExperimentConfig(kind="continuous_check", D=4, d=2,
                                             p=1.0, c_prime=2, trials=1, seed=1))
    assert "tag" in tagged.rows[0].report


def test_run_cell_turns_only_value_errors_into_error_rows(monkeypatch):
    cfg = _phase_config(M_grid=(20, 10))

    def fail_with(exc):
        def fail(*args, **kwargs):
            raise exc
        return fail

    # a failing build fails every method of its cell, a failing solve only its own row
    monkeypatch.setattr(harness, "generate_dataset", fail_with(ValueError("singular")))
    rows = run_experiment(cfg).rows
    assert len(rows) == 8 and all(r.error == "singular" and r.report == {} for r in rows)
    monkeypatch.undo()
    monkeypatch.setattr(harness.rsgm, "rsgm_run", fail_with(ValueError("no polar")))
    rows = run_experiment(cfg).rows
    assert all((r.error == "no polar") == (r.method == "rsgm") for r in rows)
    assert all(r.report for r in rows if r.method == "psgm")
    monkeypatch.setattr(harness, "generate_dataset", fail_with(TypeError("bug")))
    with pytest.raises(TypeError, match="bug"):
        run_experiment(cfg)


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_cell_builds_its_data_once_for_all_its_methods(monkeypatch):
    calls = _count_calls(monkeypatch, "generate_dataset")
    table = run_experiment(_phase_config(M_grid=(20, 10)))  # 2 cells, 2 methods, 2 trials
    assert len(table.rows) == 8 and len(calls) == 4
    assert len({args[3] for args in calls}) == 4  # one data seed per (cell, trial)
    proxies = _count_calls(monkeypatch, "hsi_proxy")
    table = run_experiment(ExperimentConfig(
        kind="outlier_pursuit", D=6, proxy_inlier_dim=3, n_columns=200, r_grid=(0.25, 0.5),
        methods=("rsgm", "rsgm_known"), c_prime=4, trials=1, seed=5, max_iters=30))
    assert len(table.rows) == 4 and len(proxies) == 1


@pytest.mark.parametrize("kind, base, foreign", [
    ("phase_transition", dict(d=6, N_grid=(60,), M_grid=(20,)),
     dict(N=50, r_grid=(0.2,), n_columns=50)),
    ("codim_sweep", dict(N=60, codim_grid=(2,), r_grid=(0.2,)),
     dict(d=3, N_grid=(5,), M_grid=(7,), p=0.3)),
    ("outlier_pursuit", dict(r_grid=(0.5,), proxy_inlier_dim=3),
     dict(d=3, N=40, codim_grid=(2,))),
    ("continuous_check", dict(d=5, p=0.5), dict(proxy_inlier_dim=2, schedule_kind="pgd")),
])
def test_config_rejects_fields_its_kind_never_reads(kind, base, foreign):
    ExperimentConfig(kind=kind, D=8, c_prime=4, **base)
    message = f"a {kind} config does not read {list(foreign)}"  # in field order
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(kind=kind, D=8, c_prime=4, **base, **foreign)


def test_config_rejects_step_fields_its_rule_never_reads():
    codim = dict(kind="codim_sweep", D=6, N=40, c_prime=3, codim_grid=(2,), r_grid=(0.2,))
    with pytest.raises(ValueError, match=re.escape(
            "schedule 'mbls' does not read ['beta', 'K0', 'K_star']")):
        ExperimentConfig(**codim, beta=1.5, K0=0, K_star=-4)
    with pytest.raises(ValueError, match=re.escape("schedule 'const' does not read ['K0']")):
        ExperimentConfig(**codim, schedule_kind="const", mu0=0.1, K0=5)
    pgd = ExperimentConfig(**codim, schedule_kind="pgd", beta=0.5, K0=5, K_star=2)
    assert (pgd.beta, pgd.K0, pgd.K_star) == (0.5, 5, 2)
    assert ExperimentConfig(kind="continuous_check", D=8, d=5, p=0.5, c_prime=4,
                            beta=0.5, K0=50, K_star=5).K0 == 50  # a continuous check runs pgd


def _tiny_table():
    rows = [
        ResultRow(cell={"c": 2, "r": 0.2}, method="psgm", trial=t, seed=t,
                  report={"estimated_codim": 2 if t == 0 else 3,
                          "projection_distance": 0.1 * t},
                  wall_time=0.37)
        for t in range(2)
    ]
    return ResultTable(kind="codim_sweep", rows=rows)


def test_exact_recovery_rates_counts_misses_and_errors():
    table = _tiny_table()
    assert exact_recovery_rates(table) == {(2, 0.2, "psgm"): 0.5}
    table.rows.append(ResultRow(cell={"c": 2, "r": 0.2}, method="psgm", trial=2,
                                seed=2, report={"estimated_codim": 2},
                                wall_time=0.0, error="boom"))
    assert exact_recovery_rates(table) == {(2, 0.2, "psgm"): 1.0 / 3.0}


def test_persist_roundtrip_and_determinism(tmp_path):
    table = _tiny_table()
    table.rows.append(ResultRow(cell={"c": 2, "r": 0.2}, method="psgm", trial=2, seed=2,
                                report={}, wall_time=0.37, error="\n"))
    p1 = tmp_path / "t1.csv"
    p2 = tmp_path / "t2.csv"
    persist(table, p1)
    back = load_results(p1)
    assert back.kind == "codim_sweep"
    assert len(back.rows) == len(table.rows)
    for orig, got in zip(table.sorted_rows(), back.rows):
        assert got.cell == orig.cell
        assert got.method == orig.method and got.trial == orig.trial
        assert got.seed == orig.seed and got.report == orig.report
        assert got.error == orig.error
        assert got.wall_time == 0.0  # timing is volatile, not persisted
    persist(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    timed = tmp_path / "timed.csv"
    persist(table, timed, include_timing=True)
    assert load_results(timed).rows[0].wall_time == 0.37
    for suffix in ("parquet", "json"):
        with pytest.raises(ValueError, match="unknown format"):
            persist(table, tmp_path / f"t.{suffix}")


def test_load_results_infers_kind(tmp_path):
    cases = [
        ({"N": 10, "M": 5}, "phase_transition"),
        ({"c": 2, "r": 0.5}, "codim_sweep"),
        ({"r": 0.5}, "outlier_pursuit"),
        ({"trial_cell": 0}, "continuous_check"),
    ]
    for cell, kind in cases:
        t = ResultTable(kind=kind, rows=[ResultRow(cell=cell, method="m", trial=0,
                                                   seed=1, report={}, wall_time=0.0)])
        p = tmp_path / f"{kind}.csv"
        persist(t, p)
        assert load_results(p).kind == kind


def test_load_results_rejects_unknown_cell_columns(tmp_path):
    unknown = tmp_path / "unknown.csv"
    unknown.write_text('cell_q,method,trial,seed,wall_time,error,report\n1,m,0,1,0,,{}\n')
    with pytest.raises(ValueError, match=r"cell columns \['q'\] name no table kind"):
        load_results(unknown)
    empty = tmp_path / "empty.csv"
    persist(ResultTable(kind="codim_sweep"), empty)
    back = load_results(empty)
    assert back.kind == "codim_sweep" and back.rows == []


def test_load_results_rejects_truncated_rows(tmp_path):
    p = tmp_path / "codim.csv"
    persist(_tiny_table(), p)
    lines = p.read_text().splitlines()
    # the second row stops after its wall_time: no error and no report field
    lines[2] = ",".join(lines[2].split(",")[:6])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 3 has 6 fields, the header has 8"):
        load_results(p)


def test_write_plotdata_headers(tmp_path):
    table = _tiny_table()
    # an error row counts as a miss even when its report names the right codimension
    table.rows.append(ResultRow(cell={"c": 2, "r": 0.2}, method="psgm", trial=2, seed=2,
                                report={"estimated_codim": 2}, wall_time=0.0, error="boom"))
    p = tmp_path / "plot.tsv"
    write_plotdata(table, str(p))
    lines = p.read_text().splitlines()
    assert lines == ["c\tr\texact_fraction\tn", "2\t0.20000000000000001\t0.33333333333333331\t3"]
    phase = ResultTable(kind="phase_transition", rows=[
        ResultRow(cell={"N": 10, "M": 5}, method="psgm", trial=0, seed=0,
                  report={"projection_distance": 0.25}, wall_time=0.0)])
    write_plotdata(phase, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "N\tM\tmethod\tmean_projection_distance\tn"
    assert lines[1] == "10\t5\tpsgm\t0.25\t1"


def test_write_plotdata_pursuit_means_and_continuous_listing(tmp_path):
    def row(cell, method, trial, report, error=None):
        return ResultRow(cell=cell, method=method, trial=trial, seed=trial, report=report,
                         wall_time=0.0, error=error)

    p = tmp_path / "plot.tsv"
    pursuit = ResultTable(kind="outlier_pursuit", rows=[
        row({"r": 0.5}, "psgm", 0, {"outlier_f1": 0.9}),
        row({"r": 0.5}, "psgm", 1, {"outlier_f1": 0.8}),
        row({"r": 0.5}, "rsgm_known", 0, {"outlier_f1": 1.0}),
        row({"r": 0.5}, "rsgm_known", 1, {"outlier_f1": 0.0}, error="boom"),
        row({"r": 0.75}, "psgm", 0, {"outlier_f1": 0.7}),
    ])
    write_plotdata(pursuit, str(p))
    assert p.read_text() == ("r\tmethod\tmean_f1\tn\n"
                             "0.5\tpsgm\t0.85000000000000009\t2\n"
                             "0.5\trsgm_known\t1\t1\n"
                             "0.75\tpsgm\t0.69999999999999996\t1\n")
    continuous = ResultTable(kind="continuous_check", rows=[
        row({"trial_cell": 0}, "continuous", 0, {"max_fixed_point_angle_error": 1e-10,
                                                 "estimated_codim": 3,
                                                 "spans_complement": True}),
        row({"trial_cell": 1}, "continuous", 1, {"tag": "span check skipped"}),
        row({"trial_cell": 2}, "continuous", 2, {}, error="boom"),
    ])
    write_plotdata(continuous, str(p))
    assert p.read_text() == ("trial\tmax_fixed_point_angle_error\testimated_codim"
                             "\tspans_complement\n0\t1e-10\t3\t1\n")
