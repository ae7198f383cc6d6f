import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dpcp.dataset import (
    INLIER,
    OUTLIER,
    CsvFormatError,
    DataMatrix,
    SubspaceModel,
    corrupt_with_outliers,
    generate_dataset,
    load_csv,
    normalize_columns,
    sample_haar_subspace,
    save_csv,
    unit_sphere_columns,
)


def test_unit_sphere_columns_norms_and_shape():
    rng = np.random.default_rng(3)
    pts = unit_sphere_columns(rng, 7, 40)
    assert pts.shape == (7, 40)
    assert np.allclose(np.linalg.norm(pts, axis=0), 1.0, atol=1e-12)


def test_unit_sphere_columns_deterministic():
    a = unit_sphere_columns(np.random.default_rng(11), 5, 9)
    b = unit_sphere_columns(np.random.default_rng(11), 5, 9)
    assert np.array_equal(a, b)


def test_sample_haar_subspace_orthonormal_and_reproducible():
    m = sample_haar_subspace(12, 9, seed=5)
    assert m.ambient_dim == 12 and m.inlier_dim == 9 and m.codim == 3
    J = np.column_stack([m.basis_S, m.basis_Sperp])
    assert np.max(np.abs(J.T @ J - np.eye(12))) < 1e-12
    m2 = sample_haar_subspace(12, 9, seed=5)
    assert np.array_equal(m.basis_S, m2.basis_S)
    assert np.array_equal(m.basis_Sperp, m2.basis_Sperp)


@pytest.mark.parametrize("d,D", [(0, 5), (5, 5), (6, 5)])
def test_sample_haar_subspace_rejects_bad_dims(d, D):
    with pytest.raises(ValueError, match="invalid dimensions"):
        sample_haar_subspace(D, d, seed=0)


def test_subspace_projectors_complementary():
    m = sample_haar_subspace(10, 6, seed=2)
    v = np.random.default_rng(0).standard_normal(10)
    assert np.allclose(m.project_S(v) + m.project_Sperp(v), v, atol=1e-12)
    assert np.allclose(m.project_S(m.project_S(v)), m.project_S(v), atol=1e-12)
    assert abs(float(m.project_S(v) @ m.project_Sperp(v))) < 1e-12


def test_subspace_model_rejects_non_orthonormal():
    D = 6
    S = np.eye(D)[:, :4]
    P = np.eye(D)[:, 3:5]  # overlaps S, joint matrix not orthonormal
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceModel(basis_S=S, basis_Sperp=P)
    with pytest.raises(ValueError, match="invalid dimensions"):
        SubspaceModel(basis_S=np.eye(D)[:, :4], basis_Sperp=np.eye(D)[:, 4:5])


def test_generate_dataset_composition():
    m = sample_haar_subspace(8, 5, seed=1)
    data = generate_dataset(m, N=30, M=20, seed=7)
    assert data.points.shape == (8, 50)
    assert data.unit_normalized
    assert int(np.sum(data.labels == INLIER)) == 30
    assert int(np.sum(data.labels == OUTLIER)) == 20
    # labels travel with the shuffled columns: inliers stay inside S
    X, O = data.split()
    assert np.max(np.linalg.norm(m.basis_Sperp.T @ X, axis=0)) < 1e-12
    assert np.min(np.linalg.norm(m.basis_Sperp.T @ O, axis=0)) > 1e-6


def test_generate_dataset_reproducible_and_pure_cases():
    m = sample_haar_subspace(6, 3, seed=4)
    a = generate_dataset(m, 10, 5, seed=9)
    b = generate_dataset(m, 10, 5, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    only_in = generate_dataset(m, 4, 0, seed=1)
    assert set(only_in.labels) == {INLIER}
    only_out = generate_dataset(m, 0, 4, seed=1)
    assert set(only_out.labels) == {OUTLIER}
    with pytest.raises(ValueError, match="empty dataset"):
        generate_dataset(m, 0, 0, seed=1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       num=st.integers(min_value=0, max_value=100))
def test_corrupt_count_is_ceiling_of_ratio(n, num):
    # ratios of the form num/denom with k = ceil(r*n) exactly, no float drift
    denom = 101
    ratio = num / denom
    base = DataMatrix(points=unit_sphere_columns(np.random.default_rng(0), 3, n),
                      unit_normalized=True)
    out = corrupt_with_outliers(base, ratio, seed=5)
    expected = math.ceil(num * n / denom - 1e-12)
    assert int(np.sum(out.labels == OUTLIER)) == expected


def test_corrupt_marks_exactly_replaced_columns():
    rng = np.random.default_rng(8)
    base = DataMatrix(points=unit_sphere_columns(rng, 5, 40), unit_normalized=True)
    out = corrupt_with_outliers(base, 0.3, seed=13)
    changed = ~np.all(out.points == base.points, axis=0)
    assert np.array_equal(changed, out.labels == OUTLIER)
    assert int(changed.sum()) == 12
    assert out.unit_normalized


def test_corrupt_ratio_validation():
    base = DataMatrix(points=np.eye(3), unit_normalized=True)
    zero = corrupt_with_outliers(base, 0.0, seed=0)
    assert not np.any(zero.labels == OUTLIER)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="invalid ratio"):
            corrupt_with_outliers(base, bad, seed=0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_normalize_columns_idempotent(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((4, 6)) * rng.uniform(0.1, 50.0)
    once = normalize_columns(DataMatrix(points=pts))
    twice = normalize_columns(once)
    assert once.unit_normalized
    assert np.allclose(np.linalg.norm(once.points, axis=0), 1.0, atol=1e-12)
    assert np.allclose(once.points, twice.points, atol=1e-15)


def test_normalize_columns_zero_column_is_error():
    pts = np.eye(3).copy()
    pts[:, 1] = 0.0
    with pytest.raises(ValueError, match="degenerate column: column 1"):
        normalize_columns(DataMatrix(points=pts))


def test_data_matrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        DataMatrix(points=np.ones(3))
    with pytest.raises(ValueError, match="empty dataset"):
        DataMatrix(points=np.empty((3, 0)))
    with pytest.raises(ValueError, match="non-finite"):
        DataMatrix(points=np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="labels length"):
        DataMatrix(points=np.eye(3), labels=np.array([INLIER]))
    with pytest.raises(ValueError, match="labels must be"):
        DataMatrix(points=np.eye(2), labels=np.array(["a", "b"]))
    with pytest.raises(ValueError, match="unit_normalized"):
        DataMatrix(points=2.0 * np.eye(3), unit_normalized=True)


def test_data_matrix_frozen_arrays():
    d = DataMatrix(points=np.eye(3), labels=np.array([INLIER, OUTLIER, INLIER]))
    assert not d.points.flags.writeable
    assert not d.labels.flags.writeable
    assert np.array_equal(d.inlier_mask(), [True, False, True])
    unlabeled = DataMatrix(points=np.eye(2))
    with pytest.raises(ValueError, match="no labels"):
        unlabeled.inlier_mask()


def test_csv_roundtrip_points_with_labels(tmp_path):
    m = sample_haar_subspace(4, 2, seed=3)
    data = generate_dataset(m, 6, 4, seed=2)
    p = tmp_path / "pts.csv"
    save_csv(data, str(p), orientation="points")
    back = load_csv(str(p), orientation="points")
    assert np.array_equal(back.points, data.points)  # 17 digits: exact
    assert np.array_equal(back.labels, data.labels)
    assert back.unit_normalized
    header = p.read_text().splitlines()[0]
    assert header == "x0,x1,x2,x3,label"


def test_csv_roundtrip_dims_orientation(tmp_path):
    pts = np.random.default_rng(1).standard_normal((3, 5))
    p = tmp_path / "dims.csv"
    save_csv(DataMatrix(points=pts), str(p), orientation="dims")
    assert len(p.read_text().splitlines()) == 3  # one row per dimension, no header
    back = load_csv(str(p), orientation="dims")
    assert np.array_equal(back.points, pts)
    assert back.labels is None


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pts=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308]),
    ),
    orientation=st.sampled_from(["points", "dims"]),
    data=st.data(),
)
def test_csv_roundtrip_bits_and_bytes(tmp_path, pts, orientation, data):
    tags = st.lists(st.sampled_from([INLIER, OUTLIER]), min_size=pts.shape[1], max_size=pts.shape[1])
    labels = data.draw(st.none() | tags.map(np.array))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_csv(DataMatrix(points=pts, labels=labels), str(first), orientation=orientation)
    back = load_csv(str(first), orientation=orientation)
    assert np.array_equal(back.points.view(np.int64), pts.view(np.int64))
    if orientation == "points" and labels is not None:
        assert np.array_equal(back.labels, labels)
    else:
        assert back.labels is None
    save_csv(back, str(second), orientation=orientation)
    assert second.read_bytes() == first.read_bytes()


def test_load_csv_huge_entries_are_not_unit(tmp_path):
    p = tmp_path / "huge.csv"
    pts = np.array([[1e154, 1.7976931348623157e308], [1e154, -1.0]])
    save_csv(DataMatrix(points=pts), str(p))
    back = load_csv(str(p))  # the column norms overflow to inf: no warning, not unit
    assert np.array_equal(back.points, pts)
    assert not back.unit_normalized


def test_load_csv_accepts_blank_lines_spaces_quotes_and_line_ends(tmp_path):
    p = tmp_path / "hand.csv"
    p.write_bytes(b'\r\n"x0", x1 ,"label"\r\n\r\n 0.6 ,"0.8", in \r\n\n"1",0,"out"\n\n')
    back = load_csv(str(p))
    assert np.array_equal(back.points, [[0.6, 1.0], [0.8, 0.0]])
    assert list(back.labels) == [INLIER, OUTLIER]
    assert back.unit_normalized


def test_load_csv_headerless_label_detection(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("1.0,0.0,in\n0.0,1.0,out\n")
    back = load_csv(str(p))
    assert back.points.shape == (2, 2)
    assert list(back.labels) == [INLIER, OUTLIER]


def test_load_csv_format_errors(tmp_path):
    p = tmp_path / "bad.csv"
    cases = [
        ("", "empty file"),
        ("x0,x1\n", "no data rows"),  # loadtxt would warn "input contained no data"
        ("1.0,2.0\n3.0\n", "from 2 to 1 at row 2"),
        ("1.0,2.0\n3.0,4.0,5.0\n", "from 2 to 3 at row 2"),
        ("1.0,zap\n", "'zap'"),
        ("1.0,2.0#3\n", "'2.0#3'"),  # '#' does not start a comment
        ("x0,label\n1.0,maybe\n", "'maybe'"),
        ("1.0,in\n2.0,out\n3.0,maybe\n", "'maybe'"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, message in cases:
            p.write_text(text)
            with pytest.raises(CsvFormatError, match=message):
                load_csv(str(p))
    with pytest.raises(ValueError, match="unknown orientation"):
        load_csv(str(p), orientation="cols")
    with pytest.raises(ValueError, match="unknown orientation"):
        save_csv(DataMatrix(points=np.eye(2)), str(p), orientation="cols")
