import math
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from specbounds.bounds import (
    STATISTICS,
    THEOREMS,
    BoundInputs,
    BoundRow,
    bound_distance,
    bound_eigvec_pointwise,
    bound_eigvec_uniform,
    bound_gap,
    bound_inner,
    bound_second_order,
    bound_tail_sum,
    bound_theta,
    bound_topk_sum,
    bound_trace_uniform,
    error_norm_bound,
    evaluate_bounds,
    second_order_gamma,
    theorem_grid,
)
from specbounds.dataset import CovarianceStats, covariance_stats, gen_gaussian
from specbounds.errors import ConfigError, DegeneracyError, DegenerateGapError
from specbounds.experiments import KNOWN_BOUNDS, KNOWN_STATISTICS
from specbounds.kernels import gaussian, gram, lipschitz, diag_sup
from specbounds.spectral import GapProfile, eig_sym, gaps_from_eigenvalues

mp.mp.dps = 50


def _profile(lam, i=1):
    return gaps_from_eigenvalues(np.asarray(lam, dtype=float), i)


def _cov(lam1, lamp, radius):
    eigs = np.array([lam1, lamp], dtype=float)
    return CovarianceStats(
        sigma=np.diag(eigs),
        eigs_sigma=eigs,
        gap_1p=float(lam1 - lamp),
        whitened_radius=float(radius),
        centered=False,
    )


def _mpf(x) -> float:
    return float(x)


def test_trace_uniform_fixture():
    expected = _mpf(2 * mp.exp(-2))
    assert bound_trace_uniform(100, 1.0, 0.1) == pytest.approx(expected, rel=1e-12)


def test_trace_uniform_limits_and_identity():
    assert bound_trace_uniform(100, 1.0, 1e6) == 0.0
    assert bound_trace_uniform(10, 2.0, 0.0) == 2.0
    # with diag_sup_sq = 1, value(2n) = value(n)^2 / 2
    v_n = bound_trace_uniform(50, 1.0, 0.3)
    v_2n = bound_trace_uniform(100, 1.0, 0.3)
    assert v_2n == pytest.approx(v_n * v_n / 2.0, rel=1e-12)


def test_trace_uniform_rejects_zero_diagonal_as_degenerate():
    # a vanishing kernel diagonal is a failed precondition, so `bounds`
    # skips the theorem instead of stopping with a configuration error
    with pytest.raises(DegeneracyError, match="diagonal supremum must be positive, got 0.0"):
        bound_trace_uniform(10, 0.0, 0.1)


def test_theta_fixture():
    expected = _mpf(2 * mp.exp(-2))
    assert bound_theta(1.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
    assert bound_theta(1e-9, 1.0, 1.0) == 0.0  # vanishing theta collapses the bound
    values = [bound_theta(0.5, 2.0, e) for e in (0.1, 0.5, 1.0, 2.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    with pytest.raises(ConfigError):
        bound_theta(1.5, 1.0, 1.0)
    with pytest.raises(ConfigError):
        bound_theta(0.0, 1.0, 1.0)


def test_gap_fixture():
    expected = _mpf(mp.exp(-2))
    assert bound_gap(100, _profile([2.0, 1.0]), 0.1) == pytest.approx(expected, rel=1e-12)


def test_gap_monotone_in_gap():
    # smaller adjacent gap => smaller bound value (tighter concentration)
    wide = bound_gap(100, _profile([3.0, 1.0]), 0.05)
    narrow = bound_gap(100, _profile([3.0, 2.5]), 0.05)
    assert narrow < wide


def test_gap_eps_zero_and_degenerate():
    assert bound_gap(100, _profile([2.0, 1.0]), 0.0) == 1.0
    with pytest.raises(DegenerateGapError, match="distinct eigenvalues"):
        bound_gap(100, _profile([1.0, 1.0]), 0.1)


def test_topk_tail_fixture():
    lam = np.array([3.0, 2.0, 1.0])
    assert bound_topk_sum(3, lam, 1, 1.0) == pytest.approx(_mpf(mp.exp(-6)), rel=1e-12)
    assert bound_tail_sum(3, lam, 1, 1.0) == pytest.approx(_mpf(mp.exp(-1.5)), rel=1e-12)
    # definition identity: the exponent uses exactly the top range gap
    k = 2
    g = lam[0] - lam[k]
    assert bound_topk_sum(3, lam, k, 0.7) == pytest.approx(
        math.exp(-2 * 3 * 0.49 / (g * g)), rel=1e-12
    )
    degenerate = np.array([3.0, 1.0, 1.0])
    with pytest.raises(DegenerateGapError):
        bound_tail_sum(3, degenerate, 2, 0.5)


def test_error_norm_fixture():
    cov = _cov(2.0, 0.5, math.sqrt(2.0))
    out = error_norm_bound("distance", cov, 0.5, 100)
    assert out.printed == pytest.approx(0.9, rel=1e-12)
    assert out.conservative == pytest.approx(12 * 2.0 * 0.5 * 2.0 / 10.0, rel=1e-12)
    inner = error_norm_bound("inner", cov, 0.5, 100)
    assert inner.printed == pytest.approx(0.3, rel=1e-12)


def test_error_norm_isotropic_anomaly():
    # isotropic covariance: the printed bound collapses to zero while a
    # replace-one perturbation is generally nonzero; the conservative variant
    # stays positive.
    cov = _cov(1.0, 1.0, 2.0)
    out = error_norm_bound("distance", cov, 0.5, 100)
    assert out.printed == 0.0
    assert out.conservative > 0.0


def test_error_norm_sqrt_n_scaling():
    cov = _cov(2.0, 0.5, 1.3)
    a = error_norm_bound("distance", cov, 0.7, 25).printed
    b = error_norm_bound("distance", cov, 0.7, 100).printed
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_distance_inner_fixtures():
    cov = _cov(1.5, 0.5, 1.0)  # M = 1, gap = 1
    distance = bound_distance(100, cov, 1.0, 0.1)
    assert distance == pytest.approx(_mpf(mp.exp(mp.mpf(-100) / 18)), rel=1e-12)
    inner = bound_inner(100, cov, 1.0, 0.1)
    assert inner == pytest.approx(_mpf(mp.exp(-25)), rel=1e-12)
    assert distance >= inner


def test_distance_degenerate_gap():
    with pytest.raises(DegenerateGapError, match="isotropic"):
        bound_distance(100, _cov(1.0, 1.0, 1.0), 1.0, 0.1)


def test_second_order_gamma_fixture():
    # first term 0.9, second term 0.1 -> gamma = 1; the printed exponent is
    # n^2 eps^2 / gamma^2 = 100 at (n=100, eps=0.1), giving exp(-100).  The
    # profile is of a raw 10 x 10 Gram spectrum: gamma reads 10^2 times its
    # inv_gap_sq_sum, the sum of lambda(G)/10.
    cov = _cov(2.0, 0.5, 1.0)  # gap 1.5, M = 1
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.03, inv_gap_sq_sum=0.1 / 81, degenerate=False,
    )
    gamma = second_order_gamma(100, cov, 1.0, profile)
    assert gamma == pytest.approx(1.0, rel=1e-12)
    value = bound_second_order(100, cov, 1.0, profile, 0.1)
    assert value == pytest.approx(_mpf(mp.exp(-100)), rel=1e-9)


def test_second_order_gamma_zero_degenerate():
    cov = _cov(1.0, 1.0, 1.0)  # gap term 0 -> gamma = 0
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.3, inv_gap_sq_sum=0.2, degenerate=False,
    )
    with pytest.raises(DegenerateGapError):
        bound_second_order(100, cov, 1.0, profile, 0.1)


def test_second_order_gamma_monotone_in_crowding():
    cov = _cov(2.0, 0.5, 1.0)
    def gamma(inv_sq):
        profile = GapProfile(
            index=1, n=10, lambda_i=1.0, _gap_next=0.5,
            resolvent_sum=0.3, inv_gap_sq_sum=inv_sq, degenerate=False,
        )
        return second_order_gamma(100, cov, 1.0, profile)
    assert gamma(0.5) < gamma(1.0) < gamma(2.0)


def test_second_order_alt_variant_uses_resolvent():
    cov = _cov(2.0, 0.5, 1.0)
    # crowding sums of lambda(G)/10: 10^2 * 0.0049 = 0.49 and 10 * 0.07 = 0.7
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.07, inv_gap_sq_sum=0.0049, degenerate=False,
    )
    printed = second_order_gamma(100, cov, 1.0, profile, "printed")
    alt = second_order_gamma(100, cov, 1.0, profile, "alt")
    base = 6 * 1.0 * 1.0 * 1.5 / 10.0
    assert printed == pytest.approx(base + 36 * (1.5**2 / 100) * 0.49, rel=1e-12)
    assert alt == pytest.approx(base + 36 * (1.5**2 / 100) * 0.7, rel=1e-12)
    # alt is exactly (printed error-norm bound) + (bound^2 * resolvent)
    assert alt == pytest.approx(base + base * base * 0.7, rel=1e-12)


def test_eigvec_pointwise_fixture():
    cov = _cov(1.5, 0.5, 1.0)  # M = 1, gap = 1
    # the resolvent sum of lambda(G)/10 is 10 * resolvent_sum = 1/sqrt(18)
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.1 / math.sqrt(18.0), inv_gap_sq_sum=0.1, degenerate=False,
    )
    assert bound_eigvec_pointwise(cov, 1.0, profile, 1.0) == pytest.approx(
        _mpf(mp.exp(-1)), rel=1e-12
    )
    assert bound_eigvec_pointwise(cov, 1.0, profile, 0.0) == 1.0
    crowded = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.2 / math.sqrt(18.0), inv_gap_sq_sum=0.1, degenerate=False,
    )
    assert bound_eigvec_pointwise(cov, 1.0, crowded, 1.0) > bound_eigvec_pointwise(
        cov, 1.0, profile, 1.0
    )


def test_eigvec_uniform_fixture():
    cov = _cov(1.5, 0.5, 1.0)
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.1 / math.sqrt(18.0), inv_gap_sq_sum=0.1, degenerate=False,
    )
    # c = 1: at n = 1, eps = 2 the raw value is 2 exp(2 - 4)
    assert bound_eigvec_uniform(1, cov, 1.0, profile, 2.0) == pytest.approx(
        _mpf(2 * mp.exp(-2)), rel=1e-12
    )
    # small eps leaves the positive 2n term dominant: raw value >= 2 (vacuous)
    assert bound_eigvec_uniform(1, cov, 1.0, profile, 1.0) >= 2.0
    values = [bound_eigvec_uniform(1, cov, 1.0, profile, e) for e in (0.5, 1.0, 2.0, 3.0)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_theta_reduction_identity():
    # substituting theta * lambda_1 for the adjacent gap turns the
    # per-eigenvalue exponent into exactly n times the theta bound's exponent
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        theta = float(rng.uniform(0.05, 1.0))
        lam1 = float(rng.uniform(0.1, 5.0))
        # scale eps to the gap so neither exponent underflows
        eps = float(rng.uniform(0.001, 0.1)) * theta * lam1
        profile = _profile([lam1, lam1 - theta * lam1])
        exp_gap = -math.log(bound_gap(n, profile, eps))
        exp_theta = -math.log(bound_theta(theta, lam1, eps) / 2.0)
        assert exp_gap == pytest.approx(n * exp_theta, rel=1e-9)


def test_prefactors_at_eps_zero():
    cov = _cov(1.5, 0.5, 1.0)
    profile = GapProfile(
        index=1, n=10, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=0.4, inv_gap_sq_sum=0.3, degenerate=False,
    )
    lam = np.array([3.0, 2.0, 1.0])
    assert bound_trace_uniform(10, 1.0, 0.0) == 2.0
    assert bound_theta(0.5, 1.0, 0.0) == 2.0
    assert bound_gap(10, profile, 0.0) == 1.0
    assert bound_topk_sum(3, lam, 1, 0.0) == 1.0
    assert bound_tail_sum(3, lam, 1, 0.0) == 1.0
    assert bound_distance(10, cov, 1.0, 0.0) == 1.0
    assert bound_inner(10, cov, 1.0, 0.0) == 1.0
    assert bound_second_order(10, cov, 1.0, profile, 0.0) == 1.0
    assert bound_eigvec_pointwise(cov, 1.0, profile, 0.0) == 1.0
    assert bound_eigvec_uniform(3, cov, 1.0, profile, 0.0) == pytest.approx(2.0 * math.exp(6.0))


def test_purity_bit_identical():
    cov = _cov(1.7, 0.3, 1.2)
    args = (57, cov, 0.8, 0.23)
    assert bound_distance(*args) == bound_distance(*args)


def test_evaluate_bounds_report():
    s = gen_gaussian(40, 3, 77)
    spec_k = gaussian(1.0)
    g = gram(s, spec_k)
    cov = covariance_stats(s)
    x = BoundInputs(
        n=s.n,
        spectrum=eig_sym(g).eigenvalues,
        cov=cov,
        lip=lipschitz(spec_k),
        diag_sup_sq=diag_sup(s, spec_k),
        kernel="distance",
        theta=0.4,
    )
    report = evaluate_bounds(x, "eigenvalue", 1, (0.01, 0.05, 0.1, 0.5))
    theorems = {r.theorem for r in report.rows}
    assert {"diag_uniform", "theta_top", "adjacent_gap", "covgap_distance",
            "covgap_second_order", "covgap_second_order_alt"} <= theorems
    # nonincreasing in eps per theorem; raw retained and clipped value <= 1
    for theorem in theorems:
        rows = [r for r in report.rows if r.theorem == theorem]
        values = [r.raw for r in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))
        for r in rows:
            assert r.value <= 1.0
            assert r.vacuous == (r.raw >= 1.0)
    assert report.metadata["theta"] == 0.4

    # a kernel-restricted theorem applies only to its own, known kernel kind
    for kernel, expected in ((None, set()), ("inner", {"covgap_inner"}), ("distance", {"covgap_distance"})):
        report = evaluate_bounds(replace(x, kernel=kernel), "eigenvalue", 1, (0.1,))
        theorems = {r.theorem for r in report.rows}
        assert theorems & {"covgap_distance", "covgap_inner"} == expected
        assert "covgap_second_order" in theorems
        assert not report.skipped


def test_bound_row_fields():
    row = BoundRow("eigenvalue", 1, 0.1, "diag_uniform", 2.5, 1.0, True)
    assert row._fields == ("statistic", "index", "epsilon", "theorem", "raw", "value", "vacuous", "flags")
    assert (row.index, row.raw, row.vacuous, row.flags) == (1, 2.5, True, ())
    assert row._replace(flags=("estimated_theta",)).flags == ("estimated_theta",)


def test_evaluate_bounds_eigvec_and_sums():
    s = gen_gaussian(30, 3, 78)
    spec_k = gaussian(1.0)
    g = gram(s, spec_k)
    x = BoundInputs(
        n=s.n,
        spectrum=eig_sym(g).eigenvalues,
        cov=covariance_stats(s),
        lip=lipschitz(spec_k),
        kernel="distance",
    )
    eps = (0.1, 0.4)
    report = evaluate_bounds(x, "eigenvector", 1, eps)
    assert {r.theorem for r in report.rows} == {"eigvec_pointwise", "eigvec_uniform"}
    assert any("direction_free" in r.flags for r in report.rows)
    report = evaluate_bounds(x, "topk_sum", 2, eps)
    assert {r.theorem for r in report.rows} == {"topk_gap"}
    report = evaluate_bounds(x, "tail_sum", 2, eps)
    assert {r.theorem for r in report.rows} == {"tail_gap"}


def test_evaluate_bounds_degenerate_skip():
    x = BoundInputs(n=3, spectrum=np.array([1.0, 1.0, 1.0]), diag_sup_sq=1.0)
    report = evaluate_bounds(x, "eigenvalue", 1, (0.1,))
    assert "adjacent_gap" in report.skipped
    assert {r.theorem for r in report.rows} == {"diag_uniform"}
    # an input missing with a reason skips the theorems that read it
    x = BoundInputs(n=3, spectrum=np.array([3.0, 2.0, 1.0]), kernel="distance",
                    missing={"cov": "singular covariance", "lip": "singular covariance"})
    report = evaluate_bounds(x, "eigenvector", 1, (0.1,))
    assert report.rows == ()
    assert report.skipped == {"eigvec_pointwise": "singular covariance",
                              "eigvec_uniform": "singular covariance"}


def test_evaluate_bounds_no_applicable_theorem():
    # eigenvector theorems need cov and lip, which are absent with no reason
    x = BoundInputs(n=3, spectrum=np.array([3.0, 2.0, 1.0]), kernel="distance")
    with pytest.raises(ConfigError, match="no theorem"):
        evaluate_bounds(x, "eigenvector", 1, (0.1,))
    with pytest.raises(ConfigError, match="no theorem"):
        evaluate_bounds(x, "median", 1, (0.1,))


def test_bound_query_validation():
    x = BoundInputs(n=3, diag_sup_sq=1.0)
    with pytest.raises(ConfigError):
        evaluate_bounds(x, "eigenvalue", 1, ())
    with pytest.raises(ConfigError):
        evaluate_bounds(x, "eigenvalue", 1, (0.2, 0.1))
    with pytest.raises(ConfigError):
        evaluate_bounds(x, "eigenvalue", 1, (0.0, 0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bound_query_rejects_non_finite_epsilons(bad):
    with pytest.raises(ConfigError, match="finite"):
        evaluate_bounds(BoundInputs(n=3, diag_sup_sq=1.0), "eigenvalue", 1, (0.1, bad))


def test_eigvec_uniform_overflow_is_vacuous():
    # 2n = 800 exceeds the largest exponent math.exp accepts (about 709.8)
    cov = _cov(1.5, 0.5, 1.0)
    profile = GapProfile(
        index=1, n=400, lambda_i=1.0, _gap_next=0.5,
        resolvent_sum=1.0 / (400 * math.sqrt(18.0)), inv_gap_sq_sum=0.1, degenerate=False,
    )
    assert bound_eigvec_uniform(400, cov, 1.0, profile, 1e-4) == math.inf
    grid = bound_eigvec_uniform(400, cov, 1.0, profile, np.array([1e-4, 40.0]))
    assert grid[0] == math.inf and np.isfinite(grid[1])

    s = gen_gaussian(400, 2, 79)
    spec_k = gaussian(1.0)
    report = evaluate_bounds(BoundInputs(
        n=s.n, spectrum=eig_sym(gram(s, spec_k)).eigenvalues, cov=covariance_stats(s),
        lip=lipschitz(spec_k), kernel="distance",
    ), "eigenvector", 1, (1e-4,))
    row = [r for r in report.rows if r.theorem == "eigvec_uniform"][0]
    assert row.raw == math.inf
    assert row.value == 1.0
    assert row.vacuous


def test_theorem_grid_overflow_is_silent_inf():
    # exp(710 - 0.5^2) is finite but twice it (the prefactor 2) is not: the
    # grid's product overflows to inf without a warning, as the scalar does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = theorem_grid("eigvec_uniform", (710.0, 1.0), 0.5)
        grid = theorem_grid("eigvec_uniform", (710.0, 1.0), np.array([0.5, 0.9]))
    assert scalar == math.inf and grid[0] == scalar
    assert grid.tolist() == [theorem_grid("eigvec_uniform", (710.0, 1.0), e) for e in (0.5, 0.9)]


def test_statistic_registry_names_every_theorem_statistic_once():
    # each theorem bounds a registered statistic, and each --stat alias names one statistic
    assert {t.statistic for t in THEOREMS.values()} == set(STATISTICS)
    aliases = [s.alias for s in STATISTICS.values()]
    assert len(set(aliases)) == len(aliases)
    # kta alone has no order: it reads labels, and `bounds --stat` cannot name it
    assert [name for name, s in STATISTICS.items() if s.order is None] == ["kta"]


def test_monte_carlo_statistics_and_bounds_are_unchanged():
    # the statistics with a Monte Carlo value, and the bounds a run may request
    assert KNOWN_STATISTICS == ("eigenvalue", "topk_sum", "tail_sum", "kta")
    assert KNOWN_BOUNDS == (
        "diag_uniform", "theta_top", "adjacent_gap", "covgap_distance", "covgap_inner", "covgap_second_order",
        "covgap_second_order_alt", "topk_gap", "tail_gap", "kta_theta", "kta_spectral", "kta_spectral_approx",
        "kta_spectral_bdiff",
    )
