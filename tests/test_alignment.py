import math

import mpmath as mp
import numpy as np
import pytest

from specbounds.alignment import _leave_one_out, kta, middle_spectrum_norm, theta_statistic, top_eigenvalue_ratio
from specbounds.bounds import (
    BoundInputs,
    c_theta,
    evaluate_bounds,
    kta_spectral_denominator,
    theorem_values,
)
from specbounds.dataset import gen_gaussian
from specbounds.errors import ConfigError, DataError, DegeneracyError
from specbounds.experiments import sample_inputs
from specbounds.kernels import GramMatrix, gaussian, gram, linear
from specbounds.spectral import eig_sym, gap_tolerance
from test_kernels import peak_square_arrays

mp.mp.dps = 50


def _gram(entries):
    return GramMatrix(entries=np.asarray(entries, dtype=float))


def _kta_bound(theorem, eps, **inputs):
    """Raw value of the registry theorem `theorem` for one sample's inputs."""
    return theorem_values(theorem, BoundInputs(**inputs), None, eps)


def _kta_report(samples, spec, y, epsilons):
    """One sample's inputs and kta report, built as the `align` command does."""
    g = gram(samples, spec)
    spectrum = eig_sym(g)
    x = sample_inputs(samples, spec, g, spectrum.eigenvalues, {"theta", "frob", "l_mid", "ratio"},
                      spectrum=spectrum, a_kn=kta(g, y))
    return x, evaluate_bounds(x, "kta", None, epsilons)


def _random_psd_gram(rng, n):
    b = rng.standard_normal((n, n))
    a = b @ b.T / n
    return _gram(np.triu(a) + np.triu(a, 1).T)


def test_kta_rank_one_fixture():
    rng = np.random.default_rng(50)
    y = rng.choice([-1.0, 1.0], size=12)
    g = _gram(np.outer(y, y))
    assert kta(g, y) == pytest.approx(1.0, rel=1e-12)


def test_kta_identity_fixture():
    n = 16
    y = np.array([1.0, -1.0] * (n // 2))
    g = _gram(np.eye(n))
    assert kta(g, y) == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)


def test_kta_label_flip_invariant():
    rng = np.random.default_rng(51)
    g = _random_psd_gram(rng, 10)
    y = rng.choice([-1.0, 1.0], size=10)
    assert kta(g, y) == pytest.approx(kta(g, -y), rel=1e-14)


def test_kta_bounded_random():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        g = _random_psd_gram(rng, n)
        y = rng.choice([-1.0, 1.0], size=n)
        assert abs(kta(g, y)) <= 1.0 + 1e-12


def test_kta_permutation_invariant():
    rng = np.random.default_rng(53)
    g = _random_psd_gram(rng, 9)
    y = rng.choice([-1.0, 1.0], size=9)
    perm = rng.permutation(9)
    gp = _gram(g.entries[np.ix_(perm, perm)])
    assert kta(gp, y[perm]) == pytest.approx(kta(g, y), rel=1e-12)


def test_kta_errors():
    g = _gram(np.zeros((4, 4)))
    with pytest.raises(DataError):
        kta(g, np.array([1.0, -1.0, 1.0, -1.0]))
    g = _gram(np.eye(4))
    with pytest.raises(DataError):
        kta(g, np.array([1.0, 2.0, 1.0, -1.0]))
    with pytest.raises(DataError):
        kta(g, np.ones(3))


def test_theta_tiny_influence_row():
    # K = I_n + delta e_s e_s^T: dropping any other row leaves the eigenvalue
    # ratios at exactly 1, so theta = 0.
    n, delta = 6, 0.3
    k = np.eye(n)
    k[2, 2] += delta
    assert theta_statistic(_gram(k)) == pytest.approx(0.0, abs=1e-12)


def test_theta_rank_one_error():
    v = np.arange(1.0, 6.0)
    g = _gram(np.outer(v, v))
    with pytest.raises(DegeneracyError, match="orders"):
        theta_statistic(g)


def test_theta_range_on_random_psd():
    rng = np.random.default_rng(54)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        g = _random_psd_gram(rng, n)
        theta = theta_statistic(g)
        assert -1e-12 <= theta <= 1.0 + 1e-12


def test_theta_needs_n_at_least_3():
    with pytest.raises(DataError):
        theta_statistic(_gram(np.eye(2)))


@pytest.mark.parametrize("s", [0, 6, 12])
def test_leave_one_out_buffer_equals_double_delete(s):
    # a non-symmetric matrix, so a block read from the wrong side shows; the
    # buffer already holds another deletion, as it does inside theta's loop
    a = np.random.default_rng(s).standard_normal((13, 13))
    out = np.full((12, 12), np.nan)
    _leave_one_out(a, (s + 5) % 13, out)
    assert _leave_one_out(a, s, out).tobytes() == np.delete(np.delete(a, s, 0), s, 1).tobytes()


def test_middle_spectrum_norm_consistency():
    rng = np.random.default_rng(56)
    g = _random_psd_gram(rng, 10)
    lam = eig_sym(g).eigenvalues
    l_mid = middle_spectrum_norm(lam)
    frob = float(np.linalg.norm(g.entries, "fro"))
    assert l_mid <= frob
    # L^2 + lambda_1^2 + lambda_n^2 recovers the squared Frobenius norm
    total = l_mid**2 + lam[0] ** 2 + lam[-1] ** 2
    assert total == pytest.approx(frob**2, rel=1e-8)


def test_c_theta_and_theta_bound_fixture():
    # n=10, theta=0.5, |A|=0.8, frob=5, m=n: C = 0.8/0.5 * (10 - 4.5 + 19/5)
    c = c_theta(0.8, 0.5, 10, 5.0)
    assert c == pytest.approx(14.88, rel=1e-12)
    expected = float(2 * mp.exp(-2 * 81 / (10 * mp.mpf("14.88") ** 2)))
    value = _kta_bound("kta_theta", 1.0, a_kn=0.8, theta=0.5, n=10, frob=5.0)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value >= 1.0  # vacuous at this operating point
    assert _kta_bound("kta_theta", 1e9, a_kn=0.8, theta=0.5, n=10, frob=5.0) == 0.0
    values = [_kta_bound("kta_theta", e, a_kn=0.8, theta=0.5, n=10, frob=5.0) for e in (0.5, 1, 2, 4)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_theta_bound_errors():
    with pytest.raises(DegeneracyError):
        _kta_bound("kta_theta", 1.0, a_kn=0.5, theta=0.0, n=10, frob=5.0)


def test_spectral_bound_fixture():
    # A = 0, L = 1, n = 11: D = 2.1 and the bound is 2 exp(-2/2.1)
    d = kta_spectral_denominator(a_kn=0.0, n=11, l_mid=1.0, frob=3.0)
    assert d == pytest.approx(2.1, rel=1e-12)
    expected = float(2 * mp.exp(-2 / mp.mpf("2.1")))
    assert _kta_bound("kta_spectral", 1.0, a_kn=0.0, n=11, l_mid=1.0, frob=3.0) == pytest.approx(
        expected, rel=1e-12
    )


def test_spectral_bound_limits_and_variants():
    # large L with a vanishing alignment term drives the bound to zero
    assert _kta_bound("kta_spectral", 1.0, a_kn=0.0, n=11, l_mid=1e12, frob=1e12) < 1e-300
    d = kta_spectral_denominator(a_kn=0.3, n=11, l_mid=2.0, frob=5.0)
    assert d >= 0.0
    printed = _kta_bound("kta_spectral", 0.5, a_kn=0.3, n=11, l_mid=2.0, frob=5.0)
    bdiff = _kta_bound("kta_spectral_bdiff", 0.5, a_kn=0.3, n=11, l_mid=2.0, frob=5.0)
    assert printed == pytest.approx(2 * math.exp(-2 * 0.25 / d), rel=1e-12)
    assert bdiff == pytest.approx(2 * math.exp(-2 * 0.25 / (11 * d * d)), rel=1e-12)
    # approximate ratio path
    approx = _kta_bound("kta_spectral_approx", 0.5, a_kn=0.3, n=11, l_mid=2.0, ratio=2.5)
    d_approx = 0.3 * abs(1.0 / 10.0 - 2.5) + (2 + 0.1) / 2.0
    assert approx == pytest.approx(2 * math.exp(-2 * 0.25 / d_approx), rel=1e-12)
    with pytest.raises(DegeneracyError):
        _kta_bound("kta_spectral", 1.0, a_kn=0.1, n=11, l_mid=0.0, frob=1.0)


def test_spectral_denominator_nonnegative_on_psd():
    rng = np.random.default_rng(57)
    for _ in range(100):
        n = int(rng.integers(4, 12))
        g = _random_psd_gram(rng, n)
        y = rng.choice([-1.0, 1.0], size=n)
        lam = eig_sym(g).eigenvalues
        d = kta_spectral_denominator(
            a_kn=kta(g, y), n=n, l_mid=middle_spectrum_norm(lam),
            frob=float(np.linalg.norm(g.entries, "fro")),
        )
        assert d >= 0.0


def test_ratio_approx_agreement_decaying_spectrum():
    # rapidly decaying interior spectrum: ||K||_F / L tracks lambda_1/lambda_2
    lam = np.array([10.0, 1.0] + [1e-4] * 6 + [1e-6])
    l_mid = middle_spectrum_norm(lam)
    frob = float(np.sqrt(np.sum(lam**2)))
    ratio = frob / l_mid
    ratio_approx = lam[0] / lam[1]
    assert abs(ratio - ratio_approx) <= 0.1 * ratio_approx


def test_kta_report_full():
    s = gen_gaussian(20, 3, 60)
    rng = np.random.default_rng(61)
    y = rng.choice([-1.0, 1.0], size=20)
    x, report = _kta_report(s, linear(), y, (0.5, 1.0))
    assert abs(x.a_kn) <= 1.0
    assert x.l_mid <= x.frob
    # linear kernel on 3-d data is rank 3: theta degrades gracefully
    assert "kta_theta" in report.skipped
    for label in ("kta_spectral", "kta_spectral_approx", "kta_spectral_bdiff"):
        assert len([row for row in report.rows if row.theorem == label]) == 2


def test_kta_report_gaussian_kernel_has_theta():
    s = gen_gaussian(12, 2, 62)
    rng = np.random.default_rng(63)
    y = rng.choice([-1.0, 1.0], size=12)
    x, report = _kta_report(s, gaussian(1.0), y, (0.5, 1.0))
    assert 0.0 <= x.theta <= 1.0
    assert "kta_theta" in {row.theorem for row in report.rows}
    assert np.isfinite(report.metadata["c_theta"])


def test_kta_report_validates_epsilon_grid():
    s = gen_gaussian(12, 2, 64)
    y = np.random.default_rng(65).choice([-1.0, 1.0], size=12)
    for grid in ((0.5, 0.1), (0.1, float("nan")), (float("inf"),), (), (0.0, 0.1)):
        with pytest.raises(ConfigError):
            _kta_report(s, linear(), y, grid)


def test_theta_peak_holds_one_test_array_per_term():
    # weight and slack, built in place when the first prune test runs, and
    # the leave-one-out buffer; before: three arrays for slack and copies of
    # both terms' unsolved rows, 4.64 arrays
    g = gram(gen_gaussian(200, 5, 0), gaussian(1.0))
    spectrum = eig_sym(g)
    expected = theta_statistic(g, spectrum=spectrum)
    assert peak_square_arrays(lambda: theta_statistic(g, spectrum=spectrum), 200) < 4.1
    assert theta_statistic(g, spectrum=spectrum) == expected


def test_spectral_kta_theorems_read_rounding_noise_as_zero():
    # a rank-one G's eigh gives lambda_2 and L of order 1e-17 (before: each
    # kta_spectral row read 2.0 from that noise, and lambda_1 / lambda_2 was
    # about -1.9e17); L and |lambda_2| within gap_tolerance(lambda_1) count as 0
    lam = np.array([3.0, 1.6e-17, -1.9e-17])
    assert top_eigenvalue_ratio(lam) == math.inf
    assert top_eigenvalue_ratio(np.array([3.0, 1e-9, 0.0])) == 3e9
    for theorem in ("kta_spectral", "kta_spectral_approx", "kta_spectral_bdiff"):
        with pytest.raises(DegeneracyError, match="middle-spectrum norm L is zero"):
            _kta_bound(theorem, 0.5, n=3, spectrum=lam, a_kn=1 / 9, l_mid=1.6e-17, frob=3.0, ratio=math.inf)
        # inputs given without a spectrum are held to the tolerance at lambda_1 = 0
        with pytest.raises(DegeneracyError, match="middle-spectrum norm L is zero"):
            _kta_bound(theorem, 0.5, n=3, a_kn=1 / 9, l_mid=1e-10, frob=3.0, ratio=2.0)
        assert _kta_bound(theorem, 0.5, n=3, a_kn=1 / 9, l_mid=1e-9, frob=3.0, ratio=2.0) > 0.0
