import pickle
import warnings

import numpy as np
import pytest

from specbounds import bounds, experiments
from specbounds.bounds import theorem_values
from specbounds.errors import ConfigError, SpecBoundsError
from specbounds.dataset import SampleSet
from specbounds.kernels import GramMatrix, gram, linear
from specbounds.spectral import Spectrum, eig_sym, interlacing_check, principal_submatrix
from specbounds.experiments import (
    KNOWN_BOUNDS,
    ExperimentConfig,
    _interlacing_trial,
    _keys,
    _trial_inputs,
    boxplot_stats,
    default_epsilons,
    five_number_summary,
    run_concentration,
    run_oracles,
    sample_inputs,
    spearman,
    splitmix64,
    subseed,
)

EPS_SMALL = (0.001, 0.01, 0.05, 0.1, 0.5)


def _cfg(**kw):
    base = dict(
        n=30,
        p=2,
        trials=40,
        seed=123,
        kernel={"family": "gaussian", "sigma": 1.0},
        epsilons=EPS_SMALL,
        indices=(1, 2),
        statistics=("eigenvalue",),
        bounds=("adjacent_gap",),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_splitmix_deterministic_and_spread():
    assert splitmix64(0) == splitmix64(0)
    seeds = {subseed(7, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert subseed(7, 1) != subseed(8, 1)


def test_default_epsilons_grid():
    eps = default_epsilons()
    assert len(eps) == 40
    assert eps[0] == pytest.approx(1e-4)
    assert eps[-1] == pytest.approx(1.0)
    assert all(b > a for a, b in zip(eps, eps[1:]))


def test_config_round_trip_identity():
    cfg = _cfg()
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_defaults_and_sizes():
    # absent fields take the dataclass defaults; sizes are coerced to int
    sizes = {"n": "10", "p": 2.0, "trials": 3, "seed": 1}
    assert ExperimentConfig.from_dict(sizes) == ExperimentConfig(n=10, p=2, trials=3, seed=1)
    with pytest.raises(ConfigError, match="missing key 'seed'"):
        ExperimentConfig.from_dict({"n": 10, "p": 2, "trials": 3})
    # a malformed config is a ConfigError, never a KeyError, TypeError or ValueError
    for bad, match in (([1, 2], "JSON object"), ({**sizes, "kernel": "gaussian"}, "kernel config"),
                       ({**sizes, "bogus": 3}, "unknown key"), ({**sizes, "n": "ten"}, "malformed value"),
                       ({**sizes, "indices": ["a"]}, "malformed value"),
                       ({**sizes, "seed": float("inf")}, "malformed value"),
                       ({**sizes, "trials": 2.7}, "'trials' must be an integer"),
                       ({**sizes, "n": 10.5}, "'n' must be an integer"),
                       ({**sizes, "p": 2.25}, "'p' must be an integer"),
                       ({**sizes, "seed": 1.5}, "'seed' must be an integer")):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(bad)
    # a config written when the scale was an option still loads
    assert ExperimentConfig.from_dict({**sizes, "scaling": "one_over_n"}) == ExperimentConfig.from_dict(sizes)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(trials=1)
    with pytest.raises(ConfigError):
        _cfg(epsilons=(0.5, 0.1))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="finite"):
            _cfg(epsilons=(0.1, bad))
    with pytest.raises(ConfigError):
        _cfg(indices=(0,))
    with pytest.raises(ConfigError):
        _cfg(statistics=("median",))
    with pytest.raises(ConfigError):
        _cfg(bounds=("chernoff",))
    with pytest.raises(ConfigError):
        _cfg(kernel={"family": "rbf"})
    # a kernel-restricted theorem needs its own kernel kind, as in evaluate_bounds
    with pytest.raises(ConfigError, match="covgap_inner"):
        _cfg(bounds=("covgap_inner",))
    with pytest.raises(ConfigError, match="covgap_distance"):
        _cfg(kernel={"family": "linear"}, bounds=("covgap_distance",))
    # a repeated entry would run its trial work twice
    for field_name, value in (("statistics", ("eigenvalue", "eigenvalue")), ("indices", (1, 1)),
                              ("bounds", ("adjacent_gap", "adjacent_gap"))):
        with pytest.raises(ConfigError, match=f"{field_name} lists"):
            _cfg(**{field_name: value})


def test_config_rejects_impossible_sizes_and_workers():
    # caught when the run is set up, not inside its first trial
    with pytest.raises(ConfigError, match="n = 1"):
        _cfg(n=1, indices=(1,))
    for p in (0, -2):
        with pytest.raises(ConfigError, match=f"p = {p}"):
            _cfg(p=p)
    for workers in (0, -1):
        with pytest.raises(ConfigError, match="at least 1 worker"):
            run_concentration(_cfg(trials=2), workers=workers)


def test_config_pickles_without_its_kernel():
    # a worker process receives the fields and builds the kernel itself
    cfg = _cfg()
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and "_spec" not in cfg.__getstate__()
    assert back.kernel_spec().describe() == cfg.kernel_spec().describe()
    assert back.kernel_spec() is back.kernel_spec()


def test_identical_subseeds_zero_frequency():
    cfg = _cfg(trials=2)
    s = subseed(cfg.seed, 0)
    result = run_concentration(cfg, subseeds=(s, s))
    for series in result.series:
        assert np.all(series.frequencies == 0.0)
        assert series.iqr == 0.0


def test_empirical_frequency_matches_reference_loop():
    cfg = _cfg(trials=50)
    result = run_concentration(cfg)
    for series in result.series:
        assert np.all(np.diff(series.frequencies) <= 0)  # nonincreasing in eps
        values = series.values
        mean = sum(values) / len(values)  # scalar reference
        for j, eps in enumerate(cfg.epsilons):
            count = 0
            for v in values:
                if abs(v - mean) > eps:
                    count += 1
            assert series.frequencies[j] == count / len(values)
            f = count / len(values)
            assert series.frequency_se[j] == pytest.approx(
                np.sqrt(f * (1 - f) / len(values))
            )


def test_quantiles_match_sorted_reference():
    rng = np.random.default_rng(70)
    for _ in range(25):
        values = rng.standard_normal(int(rng.integers(5, 60)))
        five = five_number_summary(values)
        srt = np.sort(values)
        n = len(srt)
        for q, got in zip((0.0, 0.25, 0.5, 0.75, 1.0), five):
            h = (n - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, n - 1)
            want = srt[lo] + (h - lo) * (srt[hi] - srt[lo])
            assert abs(got - want) <= 1e-12


def test_run_concentration_determinism_and_workers():
    # p = 1: gap_1p = 0, so every trial is excluded from covgap_distance
    for cfg in (_cfg(), _cfg(p=1, bounds=("adjacent_gap", "covgap_distance"))):
        a = run_concentration(cfg, workers=1)
        b = run_concentration(cfg, workers=2)
        assert a.subseeds == b.subseeds
        for sa, sb in zip(a.series, b.series):
            assert np.array_equal(sa.values, sb.values)
            assert np.array_equal(sa.frequencies, sb.frequencies)
        for ba, bb in zip(a.bound_series, b.bound_series):
            assert np.array_equal(ba.mean, bb.mean, equal_nan=True)
            assert np.array_equal(ba.p10, bb.p10, equal_nan=True)
            assert (ba.excluded, ba.reason) == (bb.excluded, bb.reason)
    assert a.bound_series[-1].excluded == cfg.trials
    assert "isotropic covariance" in a.bound_series[-1].reason


def test_sample_inputs_records_why_an_input_is_missing():
    # G = diag(9, 4, 1): dropping the third row keeps 9 and 4, so theta is 0,
    # while the covariance diag(9, 4, 1)/3 is regular
    samples = SampleSet(rows=np.diag([3.0, 2.0, 1.0]), provenance="diag")
    spec = linear()
    g = gram(samples, spec)
    lam = eig_sym(g).eigenvalues
    x = sample_inputs(samples, spec, g, lam, {"theta", "cov", "lip"})
    assert x.theta is None and x.cov is not None and x.lip == 1.0
    assert x.missing == {"theta": "estimated theta is 0; the theta bound is undefined"}
    with pytest.raises(SpecBoundsError, match="estimated theta is 0"):
        bounds.theorem_params("theta_top", x, 1)
    # collinear rows: the covariance error's own text, for the covariance only
    samples = SampleSet(rows=np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), provenance="collinear")
    g = gram(samples, spec)
    x = sample_inputs(samples, spec, g, eig_sym(g).eigenvalues, {"cov", "lip", "diag_sup_sq"})
    assert set(x.missing) == {"cov"} and x.missing["cov"].startswith("sample covariance is singular")
    assert x.lip == 1.0 and x.diag_sup_sq == 45.0


def per_trial_reference(cfg):
    """Reference aggregation: every trial evaluates each bound on the full
    grid with `theorem_values`, and the mean and p10 are taken over the kept
    trials' arrays.  Rows (theorem, statistic, index, mean, p10, excluded,
    first reason) in `_keys` order."""
    keys = _keys(cfg)
    eps = np.asarray(cfg.epsilons)
    kept = {key: [] for key in keys[1]}
    reasons = {key: [] for key in keys[1]}
    for t in range(cfg.trials):
        _, x = _trial_inputs(cfg, subseed(cfg.seed, t), keys)
        for key in keys[1]:
            try:
                kept[key].append(theorem_values(key[0], x, key[2], eps))
            except SpecBoundsError as exc:
                reasons[key].append(str(exc))
    rows = []
    for key in keys[1]:
        values = np.array(kept[key])
        if values.size:
            mean, p10 = values.mean(axis=0), np.quantile(values, 0.1, axis=0, method="linear")
        else:
            mean = p10 = np.full(eps.shape, np.nan)
        rows.append((*key, mean, p10, len(reasons[key]), reasons[key][0] if reasons[key] else ""))
    return rows


REFERENCE_CONFIGS = {
    "gaussian": dict(n=20, p=3, trials=12, indices=(1, 2, 20), statistics=("eigenvalue", "topk_sum", "tail_sum", "kta"),
                     bounds=tuple(b for b in KNOWN_BOUNDS if b != "covgap_inner")),
    # rank-3 Gram: the gaps at order 4 vanish, so those trials are excluded
    "linear": dict(n=20, p=3, trials=12, indices=(1, 4), kernel={"family": "linear"},
                   bounds=("adjacent_gap", "covgap_inner", "covgap_second_order")),
    # p = 1: gap_1p = 0, so every trial is excluded from covgap_distance
    "isotropic": dict(p=1, trials=10, bounds=("adjacent_gap", "covgap_distance")),
}


@pytest.mark.parametrize("name", list(REFERENCE_CONFIGS))
def test_run_concentration_matches_per_trial_reference(name):
    cfg = _cfg(**REFERENCE_CONFIGS[name])
    result = run_concentration(cfg)
    reference = per_trial_reference(cfg)
    assert len(result.bound_series) == len(reference)
    for b, (theorem, statistic, index, mean, p10, excluded, reason) in zip(result.bound_series, reference):
        assert (b.theorem, b.statistic, b.index) == (theorem, statistic, index)
        assert np.array_equal(b.mean, mean, equal_nan=True)
        assert np.array_equal(b.p10, p10, equal_nan=True)
        assert (b.excluded, b.reason) == (excluded, reason)
    if name == "isotropic":
        assert reference[-1][5] == cfg.trials and "isotropic covariance" in reference[-1][6]
    else:
        # both kept and excluded trials occur
        assert any(row[5] == 0 for row in reference) and any(row[5] > 0 for row in reference)


def test_reference_configs_cover_every_simulate_bound():
    covered = {b for kw in REFERENCE_CONFIGS.values() for b in kw["bounds"]}
    assert covered == set(KNOWN_BOUNDS)


def test_gap_profiles_computed_once_per_trial_and_order(monkeypatch):
    calls = []
    original = bounds.gaps_from_eigenvalues

    def counting(lam, i):
        calls.append(i)
        return original(lam, i)

    monkeypatch.setattr(bounds, "gaps_from_eigenvalues", counting)
    cfg = _cfg(trials=5, p=3, indices=(1, 2, 3),
               bounds=("adjacent_gap", "covgap_second_order", "covgap_second_order_alt"))
    run_concentration(cfg)
    assert len(calls) == 5 * 3


def test_second_order_bounds_hold_at_p2():
    # at p = 2 the crowding term dominates gamma; read on the wrong scale it
    # made the bound fall below the empirical frequency at i = 1
    cfg = ExperimentConfig(n=100, p=2, trials=300, seed=3, indices=(1, 2, 3),
                           bounds=("covgap_second_order", "covgap_second_order_alt"))
    result = run_concentration(cfg)
    series = {(s.statistic, s.index): s for s in result.series}
    for b in result.bound_series:
        s = series[(b.statistic, b.index)]
        assert b.excluded == 0
        over = s.frequencies - b.mean > 3.0 * s.frequency_se
        assert not over.any(), (b.theorem, b.index, np.flatnonzero(over))


def test_bound_mean_nonincreasing_and_nonnegative():
    cfg = _cfg(bounds=("adjacent_gap", "diag_uniform", "covgap_distance"))
    result = run_concentration(cfg)
    for b in result.bound_series:
        if b.excluded:
            continue
        assert np.all(b.mean >= 0.0)
        assert np.all(np.diff(b.mean) <= 1e-15)
        assert np.all(b.p10 <= b.mean + 1e-12)


def test_degenerate_trials_excluded_not_dropped():
    # index n has no next eigenvalue: every trial is excluded for the gap
    # bound, but the empirical frequencies still cover all trials.
    cfg = _cfg(indices=(1, 30), trials=10)
    result = run_concentration(cfg)
    gap_n = [b for b in result.bound_series if b.index == 30][0]
    assert gap_n.excluded == 10
    assert np.all(np.isnan(gap_n.mean))
    assert gap_n.reason != ""
    series_n = [s for s in result.series if s.index == 30][0]
    assert len(series_n.values) == 10


def test_degenerate_bound_inputs_flag_not_crash():
    # linear kernel on 2-d data: rank-2 Gram, so theta and the interior
    # spectrum norm are undefined; every trial must be flagged, never raised.
    cfg = _cfg(
        kernel={"family": "linear"},
        statistics=("eigenvalue", "kta"),
        bounds=("theta_top", "kta_spectral"),
        indices=(1,),
        trials=6,
        n=10,
        p=2,
    )
    result = run_concentration(cfg)
    for b in result.bound_series:
        if b.theorem == "theta_top":
            assert b.excluded == 6
            assert "orders" in b.reason or "tolerance" in b.reason
    for s in result.series:
        assert len(s.values) == 6  # frequencies never drop trials


def test_kta_statistic_and_bounds():
    cfg = _cfg(
        statistics=("eigenvalue", "kta"),
        bounds=("adjacent_gap", "kta_theta", "kta_spectral"),
        trials=12,
        n=12,
    )
    result = run_concentration(cfg)
    kta_series = [s for s in result.series if s.statistic == "kta"]
    assert len(kta_series) == 1
    assert np.all(np.abs(kta_series[0].values) <= 1.0 + 1e-12)
    theorems = {b.theorem for b in result.bound_series}
    assert {"kta_theta", "kta_spectral"} <= theorems


def test_topk_tail_statistics():
    cfg = _cfg(
        statistics=("topk_sum", "tail_sum"),
        bounds=("topk_gap", "tail_gap"),
        indices=(2,),
        trials=10,
    )
    result = run_concentration(cfg)
    stats = {(s.statistic, s.index) for s in result.series}
    assert stats == {("topk_sum", 2), ("tail_sum", 2)}
    theorems = {(b.theorem, b.index) for b in result.bound_series}
    assert theorems == {("topk_gap", 2), ("tail_gap", 2)}


def test_boxplot_stats_and_spearman():
    cfg = _cfg(indices=tuple(range(1, 9)), trials=60, p=3)
    box = boxplot_stats(cfg)
    assert len(box.five_numbers) == 8
    for five in box.five_numbers:
        assert five[0] <= five[1] <= five[2] <= five[3] <= five[4]
    assert all(iqr >= 0 for iqr in box.iqrs)
    # deterministic across calls and workers
    again = boxplot_stats(cfg, workers=2)
    assert box.five_numbers == again.five_numbers
    assert box.spearman_gap_iqr == again.spearman_gap_iqr


def test_spearman_of_monotone_pairing_is_one():
    x = np.array([0.1, 0.2, 0.5, 0.9, 2.0])
    y = np.exp(x)  # strictly monotone map
    assert spearman(x, y) == pytest.approx(1.0)


def test_spearman_matches_scipy_exactly():
    # scipy is the reference (test dependency only): same average ranks,
    # same correlation of the ranks, bit for bit, with and without ties
    from scipy import stats as sps

    rng = np.random.default_rng(90)
    for trial in range(300):
        size = int(rng.integers(2, 30))
        if trial % 2:
            a = rng.integers(0, 4, size).astype(float)
            b = rng.integers(0, 3, size).astype(float)
        else:
            a, b = rng.standard_normal(size), rng.standard_normal(size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant input: scipy warns and returns NaN
            want = float(sps.spearmanr(a, b).statistic)
        got = spearman(a, b)
        assert got == want or (np.isnan(got) and np.isnan(want)), (a, b)


def test_spearman_of_constant_input_is_nan():
    assert np.isnan(spearman([1.0, 1.0, 1.0], [0.1, 0.5, 0.2]))
    assert np.isnan(spearman([0.1, 0.5, 0.2], [2.0, 2.0, 2.0]))


def _interlacing_per_drop(trial_seed: int) -> tuple[int, float]:
    """The interlacing trial as one eigensolve and one check per drop index."""
    rng = np.random.default_rng(trial_seed)
    dim = int(rng.integers(3, 41))
    b = rng.standard_normal((dim, dim))
    a = GramMatrix(entries=(b @ b.T) / dim)
    parent = eig_sym(a)
    violations = 0
    worst = -np.inf
    for drop in range(1, dim + 1):
        ok, violation = interlacing_check(parent, eig_sym(principal_submatrix(a, drop)))
        worst = max(worst, violation)
        violations += not ok
    return violations, worst


def test_interlacing_trial_equals_per_drop_loop():
    for t in range(60):
        trial_seed = subseed(11, 1_000_000 + t)
        assert _interlacing_trial(trial_seed) == _interlacing_per_drop(trial_seed)


def test_interlacing_counts_a_violating_child_in_a_stack(monkeypatch):
    parent = Spectrum(eigenvalues=np.array([3.0, 2.0, 1.0]), eigenvectors=np.eye(3))
    children = Spectrum(eigenvalues=np.array([[2.5, 1.5], [3.5, 1.0], [2.0, 1.0]]),
                        eigenvectors=np.broadcast_to(np.eye(2), (3, 2, 2)))
    ok, worst = interlacing_check(parent, children)
    assert ok.tolist() == [True, False, True]
    assert worst.tolist() == [-0.5, 0.5, 0.0]

    solve = experiments.eig_sym

    def raise_second_child(a):
        spec = solve(a)
        if spec.eigenvalues.ndim == 1:
            return spec
        lam = spec.eigenvalues.copy()
        lam[1, 0] = float(np.max(lam)) + 1.0
        return Spectrum(eigenvalues=lam, eigenvectors=spec.eigenvectors)

    monkeypatch.setattr(experiments, "eig_sym", raise_second_child)
    violations, worst = _interlacing_trial(subseed(11, 1_000_000))
    assert violations == 1 and worst > 0.0


def test_run_oracles_zero_perturbation_smoke():
    cfg = _cfg(n=20, p=2)
    table = run_oracles(
        cfg,
        interlacing_matrices=100,
        perturbation_trials=100,
        expansion_trials=2,
        zero_perturbation=True,
    )
    for row in table.rows:
        assert row.violations == 0, row
    stability = table.row("eigenvalue_stability")
    assert stability.trials == 100


def test_run_oracles_trial_count_precondition():
    with pytest.raises(ConfigError):
        run_oracles(_cfg(), interlacing_matrices=10, perturbation_trials=100)


def test_run_oracles_determinism_across_workers():
    cfg = _cfg(n=15, p=2)
    a = run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100, expansion_trials=3)
    b = run_oracles(
        cfg, interlacing_matrices=100, perturbation_trials=100, expansion_trials=3, workers=2
    )
    assert a.rows == b.rows
