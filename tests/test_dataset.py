import numpy as np
import pytest

from specbounds.dataset import (
    SampleSet,
    covariance_stats,
    gen_gaussian,
    load_csv,
    load_csv_with_labels,
    load_labels,
    whitened_norm,
)
from specbounds.errors import DataError, ParseError, SingularCovarianceError


def test_load_csv_roundtrip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1,0\n0,1\n1,1\n")
    s = load_csv(str(path))
    assert (s.n, s.p) == (3, 2)
    assert np.array_equal(s.rows, [[1, 0], [0, 1], [1, 1]])
    assert s.provenance == str(path)


def test_load_csv_whitespace_and_header(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("a b\n1 2\n3 4\n")
    s = load_csv(str(path), header=True)
    assert (s.n, s.p) == (2, 2)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="n < 2"):
        load_csv(str(path))


def test_load_csv_bad_token_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,a\n2,3\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(str(path))


def test_load_csv_ragged_row_names_line(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(str(path))


def test_load_csv_rejects_nonfinite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n2,3\n")
    with pytest.raises(ParseError, match="line 1"):
        load_csv(str(path))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999", "NaN", "-Infinity"])
def test_load_csv_nonfinite_tokens_name_their_line(tmp_path, token):
    path = tmp_path / "d.csv"
    path.write_text(f"1,2\n3,4\n5,{token}\n")
    with pytest.raises(ParseError, match=f"^line 3: non-finite value {token!r}$"):
        load_csv(str(path))


def test_load_labels(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("1\n-1\n1\n")
    y = load_labels(str(path))
    assert np.array_equal(y, [1, -1, 1])
    path.write_text("1\n2\n")
    with pytest.raises(ParseError, match="line 2"):
        load_labels(str(path))


def test_load_csv_with_labels(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y,x2\n1,1,2\n3,-1,4\n")
    s, y = load_csv_with_labels(str(path), "y")
    assert (s.n, s.p) == (2, 2)
    assert np.array_equal(s.rows, [[1, 2], [3, 4]])
    assert np.array_equal(y, [1, -1])
    with pytest.raises(DataError, match="no column"):
        load_csv_with_labels(str(path), "z")


def test_gen_gaussian_deterministic():
    a = gen_gaussian(100, 1, 12345)
    b = gen_gaussian(100, 1, 12345)
    assert np.array_equal(a.rows, b.rows)
    c = gen_gaussian(100, 1, 12346)
    assert not np.array_equal(a.rows, c.rows)


def test_gen_gaussian_figure_config():
    # 100 samples in 5 dimensions, the boxplot experiment's generator shape.
    s = gen_gaussian(100, 5, 7)
    assert (s.n, s.p) == (100, 5)
    assert "gaussian" in s.provenance


def test_gen_gaussian_law_of_large_numbers():
    s = gen_gaussian(100_000, 3, 99)
    var = s.rows.var(axis=0)
    assert np.all(np.abs(var - 1.0) < 0.05)
    assert np.all(np.abs(s.rows.mean(axis=0)) < 0.05)


def test_gen_gaussian_preconditions():
    with pytest.raises(DataError):
        gen_gaussian(1, 3, 0)
    with pytest.raises(DataError):
        gen_gaussian(10, 0, 0)


def test_covariance_fixture():
    # rows {(1,0),(0,2),(-1,0),(0,-2)} uncentered: sigma = diag(1/2, 2),
    # gap = 3/2, and every whitened row has norm sqrt(2).
    s = SampleSet(rows=np.array([[1.0, 0], [0, 2], [-1, 0], [0, -2]]), provenance="fixture")
    cov = covariance_stats(s)
    assert cov.lambda_1 == pytest.approx(2.0, rel=1e-12)
    assert cov.lambda_p == pytest.approx(0.5, rel=1e-12)
    assert cov.gap_1p == pytest.approx(1.5, rel=1e-12)
    assert cov.whitened_radius == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert not cov.centered


def test_covariance_brute_force_sigma():
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((40, 4))
    s = SampleSet(rows=rows, provenance="t")
    cov = covariance_stats(s)
    naive = np.zeros((4, 4))
    for i in range(40):
        for a in range(4):
            for b in range(4):
                naive[a, b] += rows[i, a] * rows[i, b]
    naive /= 40
    assert np.max(np.abs(cov.sigma - naive)) <= 1e-10 * np.max(np.abs(naive))


def test_covariance_isotropic_gap_zero():
    # scaled standard basis: sigma = c I, so lambda_1 = lambda_p.
    s = SampleSet(rows=3.0 * np.eye(4), provenance="basis")
    cov = covariance_stats(s)
    assert cov.gap_1p == pytest.approx(0.0, abs=1e-12)


def test_covariance_p1_gap_zero():
    s = SampleSet(rows=np.array([[1.0], [2.0], [3.0]]), provenance="t")
    cov = covariance_stats(s)
    assert cov.gap_1p == 0.0


def test_covariance_permutation_invariant():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((30, 3))
    a = covariance_stats(SampleSet(rows=rows, provenance="a"))
    b = covariance_stats(SampleSet(rows=rows[::-1].copy(), provenance="b"))
    assert np.allclose(a.eigs_sigma, b.eigs_sigma, rtol=1e-10)
    assert a.whitened_radius == pytest.approx(b.whitened_radius, rel=1e-10)


def test_covariance_rotation_invariant():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((50, 4))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = covariance_stats(SampleSet(rows=rows, provenance="a"))
    b = covariance_stats(SampleSet(rows=rows @ q.T, provenance="b"))
    assert np.allclose(a.eigs_sigma, b.eigs_sigma, rtol=1e-8)
    assert a.whitened_radius == pytest.approx(b.whitened_radius, rel=1e-8)


def test_covariance_singular_error_names_lambda_p():
    rows = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    with pytest.raises(SingularCovarianceError, match="lambda_p"):
        covariance_stats(SampleSet(rows=rows, provenance="t"))


def test_covariance_centered_flag():
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((60, 3)) + 5.0
    s = SampleSet(rows=rows, provenance="t")
    uncentered = covariance_stats(s)
    centered = covariance_stats(s, centered=True)
    assert centered.centered
    # the mean shift inflates the uncentered top eigenvalue
    assert uncentered.lambda_1 > centered.lambda_1
    x = rows - rows.mean(axis=0)
    expected = (x.T @ x) / s.n
    assert np.allclose(centered.sigma, expected, rtol=1e-12)


def test_whitened_norm_matches_samples():
    rng = np.random.default_rng(23)
    rows = rng.standard_normal((20, 3))
    s = SampleSet(rows=rows, provenance="t")
    cov = covariance_stats(s)
    norms = [whitened_norm(cov, rows[i]) for i in range(s.n)]
    assert max(norms) == pytest.approx(cov.whitened_radius, rel=1e-10)


def _whitened_norm_resolving_sigma(cov, x):
    """`whitened_norm` as it was when it solved cov.sigma a second time."""
    tol = 1e-10 * max(float(cov.eigs_sigma[0]), 0.0)
    vals, vecs = np.linalg.eigh(cov.sigma)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(np.maximum(vals, tol))) @ vecs.T
    return float(np.linalg.norm(inv_sqrt @ np.asarray(x, dtype=np.float64)))


def test_whitened_norm_bits_equal_a_second_eigh():
    rng = np.random.default_rng(31)
    for trial in range(40):
        p = int(rng.integers(1, 9))
        rows = rng.standard_normal((int(rng.integers(p + 2, 40)), p)) * rng.uniform(0.1, 10.0, p)
        cov = covariance_stats(SampleSet(rows=rows, provenance="t"), centered=bool(trial % 2))
        points = [rng.standard_normal(p) * 3.0, rows[0], np.zeros(p)]
        for x in points:
            expected = np.float64(_whitened_norm_resolving_sigma(cov, x)).tobytes()
            assert np.float64(whitened_norm(cov, x)).tobytes() == expected


def test_sampleset_validation():
    with pytest.raises(DataError):
        SampleSet(rows=np.array([[1.0, np.nan]]), provenance="t")
    with pytest.raises(DataError):
        SampleSet(rows=np.array([[1.0, 2.0]]), provenance="t")  # n < 2
