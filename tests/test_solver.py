import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpcp
from dpcp.analysis import principal_angles
from dpcp.dataset import (
    DataMatrix,
    generate_dataset,
    sample_haar_subspace,
    unit_sphere_columns,
)
from dpcp.geometry import ScheduleParams
from dpcp.solver import (
    MBLS,
    PANEL_WIDTH,
    Constant,
    DualBasis,
    SolverConfig,
    Trace,
    average_terms,
    descend,
    objective,
    psgm_multi,
    psgm_single,
    schedule_from,
    step_size,
    subgradient,
    trace_to_csv,
)
from dpcp.solver import _sphere_retract

from helpers import (
    brute_objective,
    count_products,
    default_mu0,
    panel_value_and_grad,
    rand_unit,
)


def test_schedule_validation():
    with pytest.raises(ValueError, match="invalid step"):
        Constant(mu=0.0)
    with pytest.raises(ValueError, match="invalid step"):
        MBLS(mu_init=-1.0)


def test_step_size_piecewise_geometric():
    sched = ScheduleParams(mu0=0.3, beta=0.5, K0=3, K_star=2)
    mus = [step_size(sched, k) for k in range(8)]
    assert mus == [0.3, 0.3, 0.3, 0.15, 0.15, 0.075, 0.075, 0.0375]
    assert step_size(Constant(0.7), 123) == 0.7
    assert step_size(MBLS(), 0) is None
    per_inst = ScheduleParams(mu0=(0.1, 0.4), beta=0.5, K0=1, K_star=1)
    assert step_size(per_inst, 0, instance=1) == 0.4
    assert step_size(per_inst, 1, instance=1) == 0.2
    unresolved = ScheduleParams(mu0=None, beta=0.5, K0=1, K_star=1)
    with pytest.raises(ValueError, match="unresolved"):
        step_size(unresolved, 0)
    with pytest.raises(TypeError, match="unknown schedule"):
        step_size(object(), 0)


def test_objective_matches_brute_force():
    rng = np.random.default_rng(2)
    pts = unit_sphere_columns(rng, 5, 17)
    B = unit_sphere_columns(rng, 5, 3)
    m = DataMatrix(points=pts)
    assert abs(objective(m, B) - brute_objective(pts, B)) < 1e-10
    assert abs(objective(m, B[:, 0]) - brute_objective(pts, B[:, :1])) < 1e-10
    with pytest.raises(ValueError, match="dimension mismatch"):
        objective(m, np.ones((4, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_objective_invariant_under_column_permutations(seed):
    rng = np.random.default_rng(seed)
    pts = unit_sphere_columns(rng, 4, 12)
    B = unit_sphere_columns(rng, 4, 3)
    f = objective(DataMatrix(points=pts), B)
    fp = objective(DataMatrix(points=pts[:, rng.permutation(12)]), B[:, rng.permutation(3)])
    assert abs(f - fp) < 1e-9


def test_subgradient_formula_and_zero_convention():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])  # e1, e2
    m = DataMatrix(points=pts)
    b = np.array([1.0, 0.0])
    # e2 is orthogonal to b: contributes 0 under the sgn(0) = 0 convention
    assert np.allclose(subgradient(m, b), [1.0, 0.0])
    with pytest.raises(ValueError, match="unit norm"):
        subgradient(m, np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="ambient"):
        subgradient(m, np.ones(3) / math.sqrt(3))


def test_average_terms_recompose_subgradient():
    model = sample_haar_subspace(6, 4, seed=0)
    data = generate_dataset(model, N=40, M=25, seed=1)
    b = rand_unit(np.random.default_rng(3), 6)
    x_avg, o_avg = average_terms(data, b)
    g = subgradient(data, b)
    assert np.allclose(40 * x_avg + 25 * o_avg, g, atol=1e-12)
    with pytest.raises(ValueError, match="labeled"):
        average_terms(DataMatrix(points=data.points), b)


def test_default_mu0_matches_objective_over_subgradient():
    # the width-16 reference agrees with the matrix-vector formulas up to rounding
    model = sample_haar_subspace(5, 3, seed=2)
    data = generate_dataset(model, N=30, M=20, seed=3)
    b0 = rand_unit(np.random.default_rng(0), 5)
    g = subgradient(data, b0)
    ref = objective(data, b0) / float(g @ g)
    assert abs(default_mu0(data, b0) - ref) <= 1e-14 * ref


def _line_dataset(n=50):
    # all points on +-e1: S = span(e1) in the plane, complement = span(e2)
    rng = np.random.default_rng(0)
    signs = np.where(rng.standard_normal(n) > 0, 1.0, -1.0)
    return DataMatrix(points=np.vstack([signs, np.zeros(n)]))


def test_psgm_single_converges_on_line():
    data = _line_dataset()
    b0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    # constant steps stall in a mu-sized neighborhood; the geometric decay
    # drives the iterate all the way onto the complement
    sched = ScheduleParams(mu0=0.01, beta=0.5, K0=5, K_star=5)
    cfg = SolverConfig(schedule=sched, max_iters=400, stop_tol=1e-15)
    b, trace = psgm_single(data, b0, cfg)
    assert abs(abs(b[1]) - 1.0) < 1e-8  # lands on the complement +-e2
    assert trace.objective[-1] < trace.objective[0]
    assert len(trace.objective) == trace.n_iterations + 1
    stalled, _ = psgm_single(data, b0, SolverConfig(schedule=Constant(0.005),
                                                    max_iters=500, stop_tol=1e-14))
    assert abs(abs(stalled[1]) - 1.0) > 1e-4  # the constant step keeps oscillating


def test_psgm_single_mbls_monotone_decrease():
    model = sample_haar_subspace(8, 6, seed=4)
    data = generate_dataset(model, N=200, M=80, seed=5)
    b0 = rand_unit(np.random.default_rng(1), 8)
    cfg = SolverConfig(schedule=MBLS(), max_iters=300, stop_tol=1e-12, record_iterates=True)
    b, trace = psgm_single(data, b0, cfg)
    assert np.all(np.diff(trace.objective) <= 1e-9)
    assert trace.backtracks is not None and np.all(trace.backtracks >= 0)
    angle = principal_angles(trace.iterates.T, model)
    assert angle[-1] < angle[0]
    assert angle[-1] < 1e-4  # single instance finds a normal direction


def test_psgm_single_trace_shapes_and_auto_mu0():
    data = _line_dataset(20)
    b0 = np.array([0.6, 0.8])
    auto = ScheduleParams(mu0=None, beta=0.5, K0=5, K_star=5)
    cfg = SolverConfig(schedule=auto, max_iters=30, stop_tol=0.0, record_iterates=True)
    b, trace = psgm_single(data, b0, cfg)
    assert trace.n_iterations == 30
    assert trace.iterates.shape == (31, 2)
    assert np.allclose(np.linalg.norm(trace.iterates, axis=1), 1.0, atol=1e-12)
    assert abs(trace.step[0] - default_mu0(data, b0)) < 1e-15
    assert trace.step[29] == trace.step[0] * 0.5 ** ((29 - 5) // 5 + 1)


def test_psgm_single_validation_and_early_stop():
    data = _line_dataset(10)
    cfg = SolverConfig(schedule=Constant(0.1))
    with pytest.raises(ValueError, match="unit norm"):
        psgm_single(data, np.array([3.0, 0.0]), cfg)
    with pytest.raises(ValueError, match="ambient"):
        psgm_single(data, np.ones(3) / math.sqrt(3.0), cfg)
    b0 = np.array([0.6, 0.8])
    lazy = SolverConfig(schedule=Constant(1e-9), max_iters=500, stop_tol=1.0)
    _, trace = psgm_single(data, b0, lazy)
    assert trace.n_iterations == 1  # first movement is below stop_tol


def test_degenerate_constant_step_raises():
    # b - mu g = e1 - e1 = 0: no direction is left to normalize; MBLS's
    # automatic first step f/||g||^2 = 1 lands there too, and does not
    # backtrack past it
    data = DataMatrix(points=np.array([[1.0], [0.0]]))
    for schedule in (Constant(1.0), MBLS()):
        with pytest.raises(ValueError, match="degenerate step"):
            psgm_single(data, np.array([1.0, 0.0]), SolverConfig(schedule=schedule))


def test_trace_stop_reason():
    data = _line_dataset(20)
    b0 = np.array([0.6, 0.8])
    sched = ScheduleParams(mu0=0.01, beta=0.5, K0=5, K_star=5)
    _, capped = psgm_single(data, b0, SolverConfig(schedule=sched, max_iters=3, stop_tol=0.0))
    assert capped.stop_reason == "max_iters" and capped.n_iterations == 3
    _, done = psgm_single(data, b0, SolverConfig(schedule=sched, max_iters=400, stop_tol=1e-12))
    assert done.stop_reason == "converged" and done.n_iterations < 400
    # at the minimizer (-1, 2)/sqrt(5) no step descends: all 50 backtracks
    # fail, and the tiny rejected step then ends the run
    corner = DataMatrix(points=np.array([[1.0, 1.0], [0.0, 0.5]]))
    _, failed = psgm_single(corner, np.array([0.0, 1.0]), SolverConfig(schedule=MBLS()))
    assert failed.stop_reason == "backtracks_exhausted"
    assert failed.backtracks.tolist() == [0, MBLS.max_backtracks]


def test_psgm_multi_prefix_and_reproducibility():
    model = sample_haar_subspace(6, 4, seed=7)
    data = generate_dataset(model, N=100, M=40, seed=8)
    big = psgm_multi(data, SolverConfig(c_prime=4, seed=42, max_iters=50))
    small = psgm_multi(data, SolverConfig(c_prime=2, seed=42, max_iters=50))
    again = psgm_multi(data, SolverConfig(c_prime=4, seed=42, max_iters=50))
    assert np.array_equal(big.columns[:, :2], small.columns)
    assert np.array_equal(big.columns, again.columns)
    assert big.n_instances == 4 and big.ambient_dim == 6
    assert len(big.traces) == 4


def test_psgm_multi_recovers_complement():
    model = sample_haar_subspace(10, 7, seed=9)
    data = generate_dataset(model, N=300, M=100, seed=10)
    basis = psgm_multi(data, SolverConfig(c_prime=6, seed=0, max_iters=400,
                                          stop_tol=1e-12))
    from dpcp.analysis import recovery_report
    rep = recovery_report(basis, model=model, matrix=data)
    assert rep.estimated_codim == 3
    assert rep.projection_distance < 1e-4
    assert rep.outlier_f1 == 1.0


def test_psgm_multi_per_instance_mu0():
    data = _line_dataset(30)
    sched = ScheduleParams(mu0=(0.2, 0.05), beta=0.5, K0=2, K_star=1)
    basis = psgm_multi(data, SolverConfig(c_prime=2, seed=3, max_iters=5, stop_tol=0.0,
                                          schedule=sched))
    assert basis.traces[0].step[0] == 0.2
    assert basis.traces[1].step[0] == 0.05


def test_psgm_multi_rejects_per_instance_mu0_of_wrong_length():
    data = _line_dataset(30)
    for mu0 in ((0.1, 0.2), (0.1, 0.2, 0.3, 0.4)):
        sched = ScheduleParams(mu0=mu0, beta=0.5, K0=2, K_star=1)
        with pytest.raises(ValueError, match=f"{len(mu0)} entries for c_prime = 3"):
            psgm_multi(data, SolverConfig(c_prime=3, max_iters=5, schedule=sched))


def test_psgm_single_mbls_products_per_iteration():
    # one A^T b at the start, then per iteration one A sgn(A^T b) and one A^T c
    # for the first trial: the automatic first step reuses the first two, and
    # a backtracking candidate is valued from the images already held
    model = sample_haar_subspace(8, 6, seed=4)
    data = generate_dataset(model, N=200, M=80, seed=5)
    b0 = rand_unit(np.random.default_rng(1), 8)
    mu0 = default_mu0(data, b0 / np.linalg.norm(b0))  # the start as psgm_single normalizes it
    products = count_products(data)
    _, trace = psgm_single(data, b0, SolverConfig(schedule=MBLS(), max_iters=300, stop_tol=1e-12))
    assert trace.n_iterations > 10 and trace.backtracks.sum() > 0
    assert products[0] == 2 * trace.n_iterations + 1
    # the first trial step is f(b0)/||g(b0)||^2, halved once per backtrack
    assert trace.step[0] == mu0 * 0.5 ** trace.backtracks[0]


def _starts(D, c_prime, seed):
    """The unit starts psgm_multi draws for its instances."""
    return [unit_sphere_columns(np.random.default_rng(child), D, 1)[:, 0]
            for child in np.random.SeedSequence(seed).spawn(c_prime)]


def _same_trace(a, b):
    return (np.array_equal(a.objective, b.objective) and np.array_equal(a.step, b.step)
            and np.array_equal(a.backtracks, b.backtracks) and a.stop_reason == b.stop_reason)


def _d30_data():
    # D=30 is a shape where the width of a product changes its bits
    model = sample_haar_subspace(30, 26, seed=11)
    return generate_dataset(model, N=240, M=160, seed=12)


def test_panel_bits_depend_only_on_the_start():
    data = _d30_data()
    n = 2 * PANEL_WIDTH + 3  # slots refill across two panel boundaries
    cfg = SolverConfig(c_prime=n, seed=5, max_iters=300)
    big = psgm_multi(data, cfg)
    assert len({tr.n_iterations for tr in big.traces}) > 1
    small = psgm_multi(data, dataclasses.replace(cfg, c_prime=3))
    assert np.array_equal(big.columns[:, :3], small.columns)
    assert all(_same_trace(a, b) for a, b in zip(big.traces, small.traces))
    starts = _starts(30, n, 5)
    for i in (0, 1, PANEL_WIDTH, n - 1):
        b, trace = psgm_single(data, starts[i], cfg)
        assert np.array_equal(b, big.columns[:, i]) and _same_trace(trace, big.traces[i])


@pytest.mark.parametrize("n", [3000, 5000])  # the gate 03 and gate 05 cells
def test_block_products_round_a_row_alike_in_every_slot(n):
    # the product-level form of the panel's bitwise contract at D=200; at
    # n=3,750 some BLAS builds break it (see the solver module docstring)
    data = generate_dataset(sample_haar_subspace(200, 190, seed=1), N=1500, M=n - 1500, seed=2)
    A = data.points
    rng = np.random.default_rng(3)
    b = unit_sphere_columns(rng, 200, 1)[:, 0]
    fill = unit_sphere_columns(rng, 200, PANEL_WIDTH).T
    fill_signs = np.sign(fill @ A)
    values, grads = [], []
    for s in range(PANEL_WIDTH):
        X, signs = fill.copy(), fill_signs.copy()
        X[s], signs[s] = b, np.sign(b @ A)
        values.append((X @ A)[s])
        grads.append((A @ signs.T).T[s])
    assert all(np.array_equal(v, values[0]) for v in values)
    assert all(np.array_equal(g, grads[0]) for g in grads)


_IMAGE_RTOL = 1e-14  # f of a backtracked iterate, from two images, against its own product


def test_psgm_multi_mbls_descent_on_every_accepted_step():
    data = _d30_data()
    sched = MBLS()
    cfg = SolverConfig(c_prime=PANEL_WIDTH + 4, seed=8, max_iters=50, record_iterates=True,
                       schedule=sched)
    basis = psgm_multi(data, cfg)
    checked = backtracked = 0
    for tr in basis.traces:
        for k in range(tr.n_iterations):
            if tr.backtracks[k] < sched.max_backtracks:  # stopped searching on a descent
                f, _, gn2 = panel_value_and_grad(data, tr.iterates[k])
                if k == 0 or tr.backtracks[k - 1] == 0:  # valued by a panel product
                    assert f == tr.objective[k]
                else:  # valued from the iterate's and the first trial's images
                    assert abs(tr.objective[k] - f) <= _IMAGE_RTOL * f
                    backtracked += 1
                assert tr.objective[k + 1] <= tr.objective[k] - sched.alpha * tr.step[k] * gn2
                checked += 1
        if tr.stop_reason == "max_iters":
            assert tr.n_iterations == cfg.max_iters
        else:
            assert tr.stop_reason == "converged" and tr.n_iterations < cfg.max_iters
            assert np.linalg.norm(tr.iterates[-1] - tr.iterates[-2]) < 1e-7
    assert checked > 100 and backtracked > 20
    assert {tr.stop_reason for tr in basis.traces} == {"converged", "max_iters"}


def test_backtracking_from_images_matches_valuing_each_candidate_by_product():
    # the generic path rsgm takes: every shrunk candidate is retracted and
    # valued by its own width-PANEL_WIDTH product
    data = _d30_data()
    A = data.points
    signs = np.zeros((PANEL_WIDTH, A.shape[1]))

    def value(X, rows):
        S = X @ A
        return np.abs(S[rows]).sum(axis=1), S

    def grad(X, aux, rows):
        signs[rows] = np.sign([aux[s] for s in rows])
        return (A @ signs.T).T[rows]

    cfg = SolverConfig(c_prime=PANEL_WIDTH + 4, seed=3, max_iters=200,
                       schedule=MBLS(mu_init=1e3))
    basis = psgm_multi(data, cfg)
    starts = [b / np.linalg.norm(b) for b in _starts(30, cfg.c_prime, cfg.seed)]
    ref = descend(starts, value, grad, _sphere_retract, cfg.schedule,
                  cfg.max_iters, cfg.stop_tol, width=PANEL_WIDTH)
    assert np.array_equal(basis.columns, np.column_stack([b for b, _ in ref]))
    for tr, (_, want) in zip(basis.traces, ref):
        assert np.array_equal(tr.step, want.step) and tr.stop_reason == want.stop_reason
        assert np.array_equal(tr.backtracks, want.backtracks)
        assert np.all(np.abs(tr.objective - want.objective) <= _IMAGE_RTOL * want.objective)
    backs = np.concatenate([tr.backtracks for tr in basis.traces])
    assert backs[backs > 0].size > 100 and backs.max() > 5


class _PanelRecorder(np.ndarray):
    """ndarray view that keeps a copy of the left operand of every product
    with it or with its transpose."""

    def __array_finalize__(self, obj):
        self.panels = getattr(obj, "panels", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self and self.panels is not None:
            self.panels.append(np.array(inputs[0]))
        inputs = [x.view(np.ndarray) if isinstance(x, _PanelRecorder) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_finished_and_unused_slots_stay_frozen():
    data = _d30_data()
    cfg = SolverConfig(c_prime=3, seed=5, max_iters=300)
    ref = psgm_multi(data, cfg)
    view = data.points.view(_PanelRecorder)
    view.panels = []
    object.__setattr__(data, "points", view)
    basis = psgm_multi(data, cfg)
    assert np.array_equal(basis.columns, ref.columns)
    panels = [P for P in view.panels if P.shape[1] == 30]  # the X of X @ A, not sgn(S) @ A^T
    assert all(P.shape[0] == PANEL_WIDTH and np.isfinite(P).all() for P in panels)
    assert all(not P[3:].any() for P in panels)  # slots no start reached
    iters = [tr.n_iterations for tr in basis.traces]
    last = int(np.argmax(iters))
    for i in range(3):
        if i != last:  # a finished instance's slot keeps its final iterate to the end
            assert np.array_equal(panels[-1][i], basis.columns[:, i])
    assert len(set(iters)) == 3


def test_a_converged_instance_moved_less_than_stop_tol():
    # the stop test measures the chord ||b_new - b||, which resolves moves
    # far below the 1.5e-8 an arccos of the dot product can see
    cfg = SolverConfig(c_prime=PANEL_WIDTH + 4, seed=2, max_iters=3000, stop_tol=1e-12,
                       record_iterates=True)
    traces = [tr for tr in psgm_multi(_d30_data(), cfg).traces if tr.stop_reason == "converged"]
    assert len(traces) > PANEL_WIDTH
    assert all(np.linalg.norm(tr.iterates[-1] - tr.iterates[-2]) < cfg.stop_tol for tr in traces)


def _dpcp_imports(module: str) -> set[str]:
    """The dpcp modules a source file of the package imports."""
    tree = ast.parse(Path(dpcp.__file__).with_name(f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dpcp")):
            name = node.module.removeprefix("dpcp").lstrip(".") if node.module else ""
            found |= {name.split(".")[0]} if name else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("dpcp.")}
    return found


@pytest.mark.parametrize("module, allowed", [("solver", {"dataset"}),
                                             ("rsgm", {"dataset", "solver"})])
def test_the_solver_layer_imports_only_the_data_layer(module, allowed):
    assert _dpcp_imports(module) <= allowed
    assert "dataset" in _dpcp_imports(module)


def test_descend_rejects_an_empty_iteration_budget():
    with pytest.raises(ValueError, match="max_iters >= 1"):
        descend([np.array([0.6, 0.8])], None, None, None, Constant(0.1), 0, 0.0)


@pytest.mark.parametrize("max_iters, stop_tol", [(0, 1e-8), (1000, -1.0)])
def test_one_limits_check_serves_every_descent(max_iters, stop_tol):
    message = re.escape("invalid solver limits: need max_iters >= 1 and stop_tol >= 0, "
                        f"got {max_iters} and {stop_tol}")
    with pytest.raises(ValueError, match=message):
        SolverConfig(max_iters=max_iters, stop_tol=stop_tol)
    with pytest.raises(ValueError, match=message):
        descend([np.array([0.6, 0.8])], None, None, None, Constant(0.1), max_iters, stop_tol)


def test_schedule_from_knows_three_rules_and_the_fields_each_reads():
    assert schedule_from("mbls", None, 0.6, 30, 10) == MBLS()
    assert schedule_from("const", 0.1, 0.6, 30, 10) == Constant(0.1)
    assert schedule_from("pgd", None, 0.5, 5, 2) == ScheduleParams(None, 0.5, 5, 2)
    assert ScheduleParams(0.1) == ScheduleParams(0.1, 0.6, 30, 10)
    with pytest.raises(ValueError, match="unknown schedule kind 'adam'"):
        schedule_from("adam", None, 0.6, 30, 10)
    with pytest.raises(ValueError, match=re.escape("schedule 'mbls' does not read ['K0']")):
        schedule_from("mbls", None, 0.6, 31, 10)


def test_trace_to_csv(tmp_path):
    tr = Trace(objective=np.array([3.0, 2.0, 1.5]), step=np.array([0.1, 0.05]))
    p = tmp_path / "trace.csv"
    trace_to_csv(tr, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "iteration,objective,step"
    assert len(lines) == 4
    assert lines[1] == "0,3,0.10000000000000001"
    assert lines[3] == "2,1.5,"  # no step out of the last iterate
    bare = Trace(objective=np.array([1.0]), step=np.array([]))
    trace_to_csv(bare, str(p))
    assert p.read_text().splitlines()[1] == "0,1,"


def test_dual_basis_validation():
    with pytest.raises(ValueError, match="unit norm"):
        DualBasis(columns=2.0 * np.eye(3))
    with pytest.raises(ValueError, match="unit norm"):
        DualBasis(columns=np.array([[1.0, np.nan], [0.0, np.nan]]))
    basis = DualBasis(columns=np.eye(3))
    assert not basis.columns.flags.writeable
    with pytest.raises(ValueError, match="columns"):
        DualBasis(columns=np.ones(3))
