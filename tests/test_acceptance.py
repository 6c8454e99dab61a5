"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines live.  Every tolerance is pinned here; expected closed-form values are
recomputed independently with mpmath before being compared.
"""

import json
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest

import specbounds as sb
from specbounds.experiments import ExperimentConfig, run_oracles

mp.mp.dps = 50

SEED = 20260809
GRID_POINTS = 40


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "specbounds", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, f"CLI failed: {args}\n{proc.stderr}"
    return proc


def _kta_bound(theorem, eps, **inputs):
    """Raw value of the registry theorem `theorem` for one sample's inputs."""
    return sb.bounds.theorem_values(theorem, sb.BoundInputs(**inputs), None, eps)


def _parse_results_csv(path):
    """-> (freq[(index, eps)] = (value, stderr), bounds[(theorem, index, eps)] = value)"""
    freq, bounds = {}, {}
    lines = path.read_text().splitlines()[1:]
    for line in lines:
        stat, index, eps, theorem, kind, value, stderr, _flags = line.split(",")
        if kind == "empirical_freq":
            freq[(int(index), float(eps))] = (float(value), float(stderr))
        elif kind == "bound_mean":
            bounds[(theorem, int(index), float(eps))] = float(value)
    return freq, bounds


@pytest.fixture(scope="module")
def oracle_table():
    cfg = ExperimentConfig(
        n=100, p=5, trials=2, seed=SEED,
        kernel={"family": "gaussian", "sigma": 1.0},
        indices=(1,), statistics=("eigenvalue",), bounds=(),
    )
    start = time.time()
    table = run_oracles(
        cfg, interlacing_matrices=200, perturbation_trials=500, expansion_trials=50, index=1
    )
    return table, time.time() - start


@pytest.fixture(scope="module")
def fig2_top(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2top")
    start = time.time()
    _cli("simulate", "--preset", "example1-fig2-top", "--seed", str(SEED),
         "--no-svg", "--out", str(out))
    return out, time.time() - start


@pytest.fixture(scope="module")
def fig2_bottom(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2bot")
    start = time.time()
    _cli("simulate", "--preset", "example1-fig2-bottom", "--seed", str(SEED),
         "--no-svg", "--out", str(out))
    return out, time.time() - start


def test_criterion_1_interlacing(oracle_table):
    table, elapsed = oracle_table
    row = table.row("interlacing")
    ok = row.trials == 200 and row.violations == 0 and elapsed < 10.0
    _report(1, "interlacing oracle", ok,
            f"{row.violations} violations in {row.trials} matrices, "
            f"max excess {row.max_violation:.2e}, oracle suite took {elapsed:.1f}s")


def test_criterion_2_weyl_stability(oracle_table):
    table, elapsed = oracle_table
    row = table.row("eigenvalue_stability")
    ok = row.trials == 500 and row.violations == 0 and elapsed < 30.0
    _report(2, "replace-one eigenvalue stability", ok,
            f"{row.violations} violations in {row.trials} trials ({elapsed:.1f}s)")


def test_criterion_3_perturbation_norm(oracle_table):
    table, elapsed = oracle_table
    conservative = table.row("perturbation_norm_conservative")
    printed = table.row("perturbation_norm_printed")
    ok = conservative.trials == 500 and conservative.violations == 0 and elapsed < 30.0
    _report(3, "conservative perturbation-norm bound", ok,
            f"conservative: {conservative.violations}/{conservative.trials} violations; "
            f"printed variant (reported, not asserted): "
            f"{printed.violations}/{printed.trials} violations, "
            f"max excess {printed.max_violation:.2e}")


def test_criterion_4_expansion_residual(oracle_table):
    table, elapsed = oracle_table
    row = table.row("eigvec_expansion_residual")
    rate = 1.0 - row.violations / max(row.trials, 1)
    ok = row.trials + row.skipped == 50 and rate >= 0.95 and elapsed < 30.0
    _report(4, "first-order expansion quadratic residual", ok,
            f"r(t/2) <= 0.35 r(t) in {row.trials - row.violations}/{row.trials} "
            f"valid trials ({row.skipped} skipped)")


def test_criterion_5_fig2_top(fig2_top):
    out, elapsed = fig2_top
    freq, bounds = _parse_results_csv(out / "results.csv")
    checked, worst = 0, float("inf")
    for (theorem, index, eps), rhs in bounds.items():
        if theorem != "adjacent_gap" or not math.isfinite(rhs) or rhs >= 1.0:
            continue
        f, se = freq[(index, eps)]
        margin = rhs + 2.0 * se - f
        worst = min(worst, margin)
        checked += 1
    ok = checked > 0 and worst >= 0.0 and elapsed < 60.0
    _report(5, "per-eigenvalue bound dominates empirical frequency", ok,
            f"{checked} (index, eps) points, worst margin {worst:.3e}, {elapsed:.1f}s")


def test_criterion_6_fig2_bottom(fig2_bottom):
    out, elapsed = fig2_bottom
    curves = {}
    worst, checked = float("inf"), 0
    for p in (2, 5):
        freq, bounds = _parse_results_csv(out / f"results_p{p}.csv")
        curve = {}
        for (theorem, index, eps), rhs in bounds.items():
            if theorem != "covgap_distance":
                continue
            curve[eps] = rhs
            if not math.isfinite(rhs) or rhs >= 1.0:
                continue
            f, se = freq[(index, eps)]
            worst = min(worst, rhs + 2.0 * se - f)
            checked += 1
        curves[p] = curve
    eps_common = sorted(set(curves[2]) & set(curves[5]))
    max_gap = max(abs(curves[2][e] - curves[5][e]) for e in eps_common)
    ok = checked > 0 and worst >= 0.0 and max_gap > 0.05 and elapsed < 120.0
    _report(6, "covariance-gap bound dominates; dimension dependence visible", ok,
            f"{checked} points, worst margin {worst:.3e}, "
            f"max |RHS(p=5) - RHS(p=2)| = {max_gap:.3f}, {elapsed:.1f}s")


def test_criterion_7_fig1_boxplot(tmp_path):
    start = time.time()
    _cli("simulate", "--preset", "fig1-boxplot", "--seed", str(SEED),
         "--no-svg", "--out", str(tmp_path))
    elapsed = time.time() - start
    summary = json.loads((tmp_path / "summary.json").read_text())
    box = summary["runs"][0]["boxplot"]
    rho = box["spearman_gap_iqr"]
    ok = rho > 0.3 and len(box["indices"]) == 15 and elapsed < 60.0
    _report(7, "gap vs. IQR rank correlation", ok,
            f"spearman = {rho:.4f} over orders 1..15 ({elapsed:.1f}s)")


def test_criterion_8_closed_form_regression():
    checks = []

    def close(name, got, want, rel=1e-9):
        ok = got == pytest.approx(want, rel=rel, abs=1e-300)
        checks.append((name, ok, got, want))

    close("bound_trace_uniform(100,1,0.1)", sb.bound_trace_uniform(100, 1.0, 0.1),
          float(2 * mp.exp(-2)))
    close("bound_theta(1,1,1)", sb.bound_theta(1.0, 1.0, 1.0), float(2 * mp.exp(-2)))
    profile = sb.gaps_from_eigenvalues(np.array([2.0, 1.0]), 1)
    close("bound_gap(100,gap=1,0.1)", sb.bound_gap(100, profile, 0.1), float(mp.exp(-2)))
    spectrum = np.array([3.0, 2.0, 1.0])
    close("bound_topk_sum(3,(3,2,1),1,1)", sb.bound_topk_sum(3, spectrum, 1, 1.0),
          float(mp.exp(-6)))
    close("bound_tail_sum(3,(3,2,1),1,1)", sb.bound_tail_sum(3, spectrum, 1, 1.0),
          float(mp.exp(-1.5)))

    fixture = sb.SampleSet(rows=np.array([[1.0, 0], [0, 2], [-1, 0], [0, -2]]),
                           provenance="fixture")
    cov = sb.covariance_stats(fixture)
    close("cov lambda_1", cov.lambda_1, 2.0)
    close("cov lambda_p", cov.lambda_p, 0.5)
    close("cov gap_1p", cov.gap_1p, 1.5)
    close("cov whitened radius", cov.whitened_radius, float(mp.sqrt(2)))
    close("error_norm printed", sb.error_norm_bound("distance", cov, 0.5, 100).printed, 0.9)

    unit_cov = sb.CovarianceStats(sigma=np.diag([1.5, 0.5]),
                                  eigs_sigma=np.array([1.5, 0.5]),
                                  gap_1p=1.0, whitened_radius=1.0, centered=False)
    close("bound_distance", sb.bound_distance(100, unit_cov, 1.0, 0.1),
          float(mp.exp(mp.mpf(-100) / 18)))
    close("bound_inner", sb.bound_inner(100, unit_cov, 1.0, 0.1), float(mp.exp(-25)))

    second_cov = sb.CovarianceStats(sigma=np.diag([2.0, 0.5]),
                                    eigs_sigma=np.array([2.0, 0.5]),
                                    gap_1p=1.5, whitened_radius=1.0, centered=False)
    # crowding sums of a raw 10 x 10 Gram spectrum; gamma reads 10^2 times
    # inv_gap_sq_sum, the sum of lambda(G)/10
    second_profile = sb.GapProfile(index=1, n=10, lambda_i=1.0, _gap_next=0.5,
                                   resolvent_sum=0.03, inv_gap_sq_sum=0.1 / 81,
                                   degenerate=False)
    close("bound_second_order (gamma=1)",
          sb.bound_second_order(100, second_cov, 1.0, second_profile, 0.1),
          float(mp.exp(-100)))

    # the resolvent sum of lambda(G)/10 is 10 * resolvent_sum = 1/sqrt(18)
    eigvec_profile = sb.GapProfile(index=1, n=10, lambda_i=1.0, _gap_next=0.5,
                                   resolvent_sum=0.1 / math.sqrt(18.0),
                                   inv_gap_sq_sum=0.1, degenerate=False)
    close("bound_eigvec_pointwise", sb.bound_eigvec_pointwise(unit_cov, 1.0, eigvec_profile, 1.0),
          float(mp.exp(-1)))
    close("bound_eigvec_uniform", sb.bound_eigvec_uniform(1, unit_cov, 1.0, eigvec_profile, 2.0),
          float(2 * mp.exp(-2)))

    close("kta_theta fixture",
          _kta_bound("kta_theta", 1.0, a_kn=0.8, theta=0.5, n=10, frob=5.0),
          float(2 * mp.exp(-2 * 81 / (10 * mp.mpf("14.88") ** 2))))
    close("kta_spectral fixture",
          _kta_bound("kta_spectral", 1.0, a_kn=0.0, n=11, l_mid=1.0, frob=3.0),
          float(2 * mp.exp(-2 / mp.mpf("2.1"))))

    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    rank1 = sb.GramMatrix(entries=np.outer(y, y))
    close("kta rank-1 fixture", sb.kta(rank1, y), 1.0)
    ident = sb.GramMatrix(entries=np.eye(16))
    labels = np.array([1.0, -1.0] * 8)
    close("kta identity fixture", sb.kta(ident, labels), float(1 / mp.sqrt(16)))

    two = sb.SampleSet(rows=np.array([[0.0], [1.0]]), provenance="t")
    g2 = sb.gram(two, sb.gaussian(1.0))
    close("gaussian off-diagonal", float(g2.entries[0, 1]), float(mp.exp(-0.5)))
    close("gaussian lipschitz", sb.lipschitz(sb.gaussian(1.0)), 0.5)
    pair_rows = sb.SampleSet(rows=np.array([[3.0, 4.0], [0.0, 1.0]]), provenance="t")
    close("diag_sup linear", sb.diag_sup(pair_rows, sb.linear()), 25.0)
    close("diag_sup polynomial", sb.diag_sup(pair_rows, sb.polynomial(2, 1.0)), 676.0)

    gp = sb.gaps_from_eigenvalues(np.array([3.0, 2.0, 1.0]), 1)
    close("resolvent sum (3,2,1)@1", gp.resolvent_sum, 1.5)
    close("inv gap sq (4,2,1)@2",
          sb.gaps_from_eigenvalues(np.array([4.0, 2.0, 1.0]), 2).inv_gap_sq_sum, 1.25)

    base = sb.eig_sym(np.diag([2.0, 1.0]))
    delta = 1e-3
    predicted = sb.eigvec_first_order(base, np.array([[0.0, delta], [delta, 0.0]]), 1)
    close("expansion fixture u1", float(predicted[0]), 1.0)
    close("expansion fixture u2", float(predicted[1]), -delta)

    two_basis = sb.SampleSet(rows=np.eye(2), provenance="t")
    pair = sb.perturb_replace(two_basis, sb.linear(), 2, np.array([1.0, 0.0]))
    close("replace-one norm n=2", pair.spectral_norm_e, 0.5)  # the pair of G/n

    failures = [c for c in checks if not c[1]]
    detail = f"{len(checks)} closed-form values vs. high-precision recomputation"
    if failures:
        detail += "; failed: " + ", ".join(f"{n} (got {g}, want {w})" for n, _, g, w in failures)
    _report(8, "closed-form regression", not failures, detail)


def test_criterion_9_monotonicity():
    rng = np.random.default_rng(SEED)
    eps_grid = np.geomspace(1e-4, 2.0, 12)
    violations = 0
    tuples = 1000

    def check(fn):
        nonlocal violations
        values = [fn(float(e)) for e in eps_grid]
        if any(b > a for a, b in zip(values, values[1:])):
            violations += 1

    for _ in range(tuples):
        n = int(rng.integers(2, 500))
        r2 = float(rng.uniform(0.1, 5.0))
        theta = float(rng.uniform(0.05, 1.0))
        lam = np.sort(rng.uniform(0.1, 5.0, size=4))[::-1]
        lam += np.array([0.3, 0.2, 0.1, 0.0])  # force distinct
        profile = sb.gaps_from_eigenvalues(lam, 1)
        lam1 = float(rng.uniform(0.5, 3.0))
        lamp = lam1 - float(rng.uniform(0.1, lam1 - 0.05))
        cov = sb.CovarianceStats(sigma=np.diag([lam1, lamp]),
                                 eigs_sigma=np.array([lam1, lamp]),
                                 gap_1p=lam1 - lamp,
                                 whitened_radius=float(rng.uniform(0.5, 3.0)),
                                 centered=False)
        lip = float(rng.uniform(0.1, 2.0))
        a_signed = float(rng.uniform(-1, 1))
        a_positive = float(rng.uniform(0, 1))
        check(lambda e: sb.bound_trace_uniform(n, r2, e))
        check(lambda e: sb.bound_theta(theta, lam1, e))
        check(lambda e: sb.bound_gap(n, profile, e))
        check(lambda e: sb.bound_topk_sum(4, lam, 2, e))
        check(lambda e: sb.bound_tail_sum(4, lam, 2, e))
        check(lambda e: sb.bound_distance(n, cov, lip, e))
        check(lambda e: sb.bound_inner(n, cov, lip, e))
        check(lambda e: sb.bound_second_order(n, cov, lip, profile, e))
        check(lambda e: sb.bound_eigvec_pointwise(cov, lip, profile, e))
        check(lambda e: sb.bound_eigvec_uniform(min(n, 40), cov, lip, profile, e))
        check(lambda e: _kta_bound("kta_theta", e, a_kn=a_signed, theta=theta,
                                   n=max(n, 3), frob=r2))
        check(lambda e: _kta_bound("kta_spectral", e, a_kn=a_positive, n=max(n, 3),
                                   l_mid=r2, frob=2 * r2))
    _report(9, "bound values nonincreasing in epsilon", violations == 0,
            f"{tuples} random tuples x 12 bounds, {violations} violations")


def test_criterion_10_determinism(tmp_path):
    sim = ["simulate", "--preset", "example1-fig2-top", "--seed", "99", "--trials", "30"]
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        _cli(*sim, "--out", str(tmp_path / f"sim_{name}"), *extra)
    aud = ["audit", "--n", "30", "--p", "2", "--seed", "99", "--oracle-trials", "100",
           "--interlacing-matrices", "100", "--expansion-trials", "5"]
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "2"])):
        _cli(*aud, "--out", str(tmp_path / f"aud_{name}"), *extra)

    identical = True
    compared = []
    for stem, files in (("sim", ("results.csv", "summary.json", "config.json", "manifest.json")),
                        ("aud", ("audit.csv", "summary.json", "manifest.json"))):
        for other in ("b", "c"):
            for fname in files:
                a = (tmp_path / f"{stem}_a" / fname).read_bytes()
                o = (tmp_path / f"{stem}_{other}" / fname).read_bytes()
                compared.append(f"{stem}/{fname}")
                if a != o:
                    identical = False
    _report(10, "byte-identical reruns (same seed, 1 vs 2 workers)", identical,
            f"{len(compared)} file comparisons across simulate and audit")
