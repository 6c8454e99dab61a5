import pickle
import time
import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest

from specbounds import bounds, experiments
from specbounds.bounds import theorem_values
from specbounds.errors import ConfigError, DegeneracyError, SpecBoundsError
from specbounds.dataset import SampleSet
from specbounds.kernels import GramMatrix, gram, linear
from specbounds.spectral import eig_sym, eigvals_sym, interlacing_check, principal_submatrix
from specbounds.experiments import (
    KNOWN_BOUNDS,
    ExperimentConfig,
    _boxplot_trial,
    _interlacing_trial,
    _keys,
    _map_trials,
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
                       ({**sizes, "seed": 1.5}, "'seed' must be an integer"),
                       ({**sizes, "generator": "uniform"}, "generator 'uniform'")):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict(bad)
    # a config written when the scale or the generator was an option still loads
    assert ExperimentConfig.from_dict({**sizes, "scaling": "one_over_n"}) == ExperimentConfig.from_dict(sizes)
    assert ExperimentConfig.from_dict({**sizes, "generator": "gaussian"}) == ExperimentConfig.from_dict(sizes)


@pytest.mark.parametrize("key,value,match", [
    ("indices", [2.7], "'indices' must hold integers, got 2.7"),
    ("indices", [True], "'indices' must hold integers, got True"),
    ("p", True, "'p' must be an integer, got True"),
    ("seed", False, "'seed' must be an integer, got False"),
    ("epsilons", [0.1, True], "'epsilons' must hold numbers, got True"),
])
def test_config_rejects_booleans_and_fractions(key, value, match):
    # int() and float() would read these as 2, 1, 1, 0 and 1.0
    sizes = {"n": 10, "p": 2, "trials": 3, "seed": 1}
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict({**sizes, key: value})


def test_config_whole_floats_and_numeric_strings_still_load():
    cfg = ExperimentConfig.from_dict({"n": "10", "p": 2.0, "trials": 3, "seed": "1", "indices": [2.0, "3"]})
    assert (cfg.n, cfg.p, cfg.seed, cfg.indices) == (10, 2, 1, (2, 3))
    assert all(type(v) is int for v in (cfg.n, cfg.p, cfg.trials, cfg.seed, *cfg.indices))


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
    # a bound needs its statistic in the run, or no trial evaluates it
    with pytest.raises(ConfigError, match="bound 'topk_gap' bounds the topk_sum statistic"):
        _cfg(statistics=("eigenvalue", "tail_sum"), bounds=("adjacent_gap", "topk_gap"))
    # a repeated entry would run its trial work twice
    for field_name, value in (("statistics", ("eigenvalue", "eigenvalue")), ("indices", (1, 1)),
                              ("bounds", ("adjacent_gap", "adjacent_gap"))):
        with pytest.raises(ConfigError, match=f"{field_name} lists"):
            _cfg(**{field_name: value})
    # the range is checked before repeats, and repeats in one pass
    with pytest.raises(ConfigError, match=r"indices must lie in 1\.\.5"):
        _cfg(n=5, indices=(1, 9, 9))
    start = time.perf_counter()
    _cfg(n=32_000, indices=tuple(range(1, 32_001)))
    assert time.perf_counter() - start < 1.0


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
    assert back == cfg and "_spec" not in vars(cfg)
    assert back.kernel_spec().describe() == cfg.kernel_spec().describe()


def test_identical_subseeds_zero_frequency(monkeypatch):
    cfg = _cfg(trials=2)
    s = subseed(cfg.seed, 0)
    monkeypatch.setattr(experiments, "subseed", lambda seed, t: s)
    result = run_concentration(cfg)
    assert result.subseeds == (s, s)
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
    # a block's profiles at one order are one stacked call over its trials
    calls = []
    original = bounds.gaps_from_eigenvalues

    def counting(lam, i):
        calls.append((i, lam.shape[0]))
        return original(lam, i)

    monkeypatch.setattr(bounds, "gaps_from_eigenvalues", counting)
    cfg = _cfg(trials=5, p=3, indices=(1, 2, 3),
               bounds=("adjacent_gap", "covgap_second_order", "covgap_second_order_alt"))
    run_concentration(cfg)
    assert sorted(calls) == [(1, 5), (2, 5), (3, 5)]


def test_theorems_that_read_no_order_report_one_bound_at_every_order():
    # covgap_distance has the same parameters at every order, so each of its
    # three keys reports the same bound
    cfg = _cfg(trials=5, p=3, indices=(1, 2, 3), bounds=("adjacent_gap", "covgap_distance"))
    result = run_concentration(cfg)
    covgap = [b for b in result.bound_series if b.theorem == "covgap_distance"]
    assert [b.index for b in covgap] == [1, 2, 3]
    assert all(np.array_equal(b.mean, covgap[0].mean, equal_nan=True) for b in covgap)


# the benchmark's mc-bounds theorems, at a size whose grids are cut into epsilon blocks
BLOCKED = dict(n=10, p=2, trials=1000, seed=17, indices=(1, 2), statistics=("eigenvalue", "topk_sum", "tail_sum"),
               bounds=("adjacent_gap", "topk_gap", "tail_gap", "covgap_distance", "covgap_second_order",
                       "covgap_second_order_alt"))


@lru_cache(maxsize=1)
def _blocked_inputs():
    """Each trial's BoundInputs in the BLOCKED run, computed by the trial alone."""
    cfg = _cfg(**BLOCKED)
    keys = _keys(cfg)
    return tuple(_trial_inputs(cfg, subseed(cfg.seed, t), keys)[1] for t in range(cfg.trials))


@pytest.mark.parametrize("count,widths", [(1, [1]), (2, [2]), (17, [8, 9]), (41, [8, 8, 8, 8, 9])])
def test_blocked_grid_has_the_bits_of_the_whole_grid(count, widths):
    # a (T, 1) block would be summed pairwise, not row by row as the whole grid is
    assert [b.stop - b.start for b in experiments._grid_blocks(1000, count)] == widths
    eps = np.logspace(-3.0, 0.0, count)
    result = run_concentration(_cfg(**BLOCKED, epsilons=tuple(eps.tolist())))
    assert len(result.bound_series) == 12
    for b in result.bound_series:
        kept = []
        for x in _blocked_inputs():
            try:
                kept.append(bounds.theorem_params(b.theorem, x, b.index))
            except DegeneracyError:
                pass
        assert len(kept) == 1000 - b.excluded > 100
        raw = bounds.theorem_grid(b.theorem, np.array(kept).T[:, :, None], eps[None, :])
        assert b.mean.tobytes() == raw.mean(axis=0).tobytes(), (b.theorem, b.index)
        assert b.p10.tobytes() == np.quantile(raw, 0.1, axis=0, method="linear").tobytes(), (b.theorem, b.index)


def test_grid_blocks_are_at_least_two_columns_wide():
    for rows, count in ((1, 3), (10**6, 2), (10**6, 5), (10**6, 40), (3000, 120)):
        blocks = experiments._grid_blocks(rows, count)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert (blocks[0].start, blocks[-1].stop) == (0, count)
        assert all(b.stop - b.start >= 2 for b in blocks)


def test_concentration_peak_stays_below_one_bound_grid():
    # before, each bound's whole (T, E) grid and its temporaries: 3.6 grids
    trials, count = 3000, 120
    cfg = _cfg(n=8, trials=trials, seed=3, epsilons=tuple(np.logspace(-3.0, 0.0, count).tolist()),
               indices=(1, 2, 3))
    run_concentration(_cfg(n=8, trials=2))  # caches filled outside the count
    tracemalloc.start()
    try:
        run_concentration(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * trials * count


def test_map_trials_cuts_blocks_by_the_byte_budget(monkeypatch):
    monkeypatch.setattr(experiments, "BLOCK_BYTES", 70)

    def run_block(args):
        common, block = args
        return [(common, len(block), item) for item in block]

    items = list(range(17))
    out = _map_trials(run_block, "c", items, 1, item_bytes=10)
    assert out == [("c", 7, i) for i in range(14)] + [("c", 3, i) for i in range(14, 17)]
    for item_bytes in (None, 70, 100):  # one item per block
        assert _map_trials(run_block, "c", items, 1, item_bytes) == [("c", 1, i) for i in items]


def test_map_trials_pool_has_no_more_processes_than_blocks_or_cpus(monkeypatch):
    # a pool starts every process with its first task; this one records its
    # size and maps in the test's process
    import concurrent.futures
    import os

    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks, chunksize=1):
            return map(fn, blocks)

    def run_block(args):
        common, block = args
        return [(common, item) for item in block]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    # (workers, items): one item per block
    for workers, count in ((64, 5), (2, 5), (64, 2), (64, 1), (2, 1)):
        items = list(range(count))
        assert _map_trials(run_block, "c", items, workers) == [("c", i) for i in items]
    assert sizes == [3, 2, 2]  # the one-block runs start no pool
    # without an affinity mask, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _map_trials(run_block, "c", list(range(9)), 64) == [("c", i) for i in range(9)]
    assert sizes[-1] == 4


def _carried_per_block(monkeypatch, cfg) -> list[list]:
    """Run `cfg` and return, block by block, the records its concentration
    trials carry from their eigensolve to their finish stage."""
    events = []
    solve, finish = experiments._concentration_trial, experiments._finish

    def spy_solve(args):
        events.append(solve(args))
        return events[-1]

    def spy_finish(*args):
        events.append(None)
        return finish(*args)

    monkeypatch.setattr(experiments, "_concentration_trial", spy_solve)
    monkeypatch.setattr(experiments, "_finish", spy_finish)
    run_concentration(cfg)
    blocks: list[list] = [[]]
    for event in events:
        if event is not None:
            blocks[-1].append(event)
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def _square_arrays(records, n: int) -> int:
    """How many n x n arrays the records hold, a GramMatrix counting as its entries."""
    fields = [getattr(f, "entries", getattr(f, "rows", f)) for r in records for f in r]
    return sum(isinstance(a, np.ndarray) and a.shape == (n, n) for a in fields)


def test_theta_blocks_carry_no_gram_matrix(monkeypatch):
    # kta_theta reads theta and ||K||_F from G, both computed next to the
    # eigensolve: at n = 300 both trials run in one block, which keeps no
    # n x n array
    cfg = ExperimentConfig(n=300, p=3, trials=2, seed=5, indices=(1,), statistics=("kta",),
                           bounds=("kta_theta",))
    blocks = _carried_per_block(monkeypatch, cfg)
    assert [len(b) for b in blocks] == [2]
    assert [_square_arrays(b, cfg.n) for b in blocks] == [0]


def test_mc_bounds_blocks_carry_no_gram_matrix(monkeypatch):
    # the benchmark's mc-bounds run at n = 100: no input reads G after its
    # spectrum, so a block of many trials keeps no n x n array
    cfg = ExperimentConfig(n=100, p=5, trials=60, seed=6, indices=(1, 2, 3),
                           statistics=("eigenvalue", "topk_sum", "tail_sum"),
                           bounds=("adjacent_gap", "topk_gap", "tail_gap", "covgap_distance",
                                   "covgap_second_order", "covgap_second_order_alt"))
    blocks = _carried_per_block(monkeypatch, cfg)
    assert sum(len(b) for b in blocks) == cfg.trials and max(len(b) for b in blocks) > 1
    assert [_square_arrays(b, cfg.n) for b in blocks] == [0] * len(blocks)


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


# Findings of the tightness study at order 1, gaussian sigma = 1, seed 3, on
# 120 log-spaced epsilons in [1e-5, 10].  They record what the bounds do;
# none is a reason to change a formula.
FINDINGS_EPS = tuple(float(e) for e in np.logspace(-5.0, 1.0, 120))


def _findings_run(n: int, p: int, trials: int, bounds_: tuple) -> experiments.ExperimentResult:
    return run_concentration(ExperimentConfig(n=n, p=p, trials=trials, seed=3, epsilons=FINDINGS_EPS,
                                              indices=(1,), bounds=bounds_))


def _level_epsilon(result, theorem: str) -> float:
    """The first grid epsilon where the theorem's bound_mean is <= 0.05."""
    (b,) = [b for b in result.bound_series if b.theorem == theorem]
    return FINDINGS_EPS[int(np.flatnonzero(b.mean <= 0.05)[0])]


def _points_above_bound(result, theorem: str) -> int:
    """Grid points where the frequency exceeds bound_mean by more than 3 SE.
    Only points with frequency < 1 and bound_mean < 0.5 count: where every
    trial deviates the binomial SE is 0, which would count spuriously."""
    (b,) = [b for b in result.bound_series if b.theorem == theorem]
    (s,) = result.series
    above = (s.frequencies - 3.0 * s.frequency_se > b.mean) & (s.frequencies < 1.0) & (b.mean < 0.5)
    return int(np.count_nonzero(above))


def test_covgap_distance_improves_on_diag_uniform_at_p2():
    # the paper's claim to improve earlier results: at n = 100, p = 2 the
    # covariance-gap bound reaches 0.05 at epsilon 0.121, diag_uniform
    # (Shawe-Taylor et al. 2005) only at 0.136
    result = _findings_run(100, 2, 200, ("diag_uniform", "covgap_distance"))
    assert _level_epsilon(result, "covgap_distance") < _level_epsilon(result, "diag_uniform")


def test_adjacent_gap_improves_on_diag_uniform_at_p20():
    # at p = 20 the adjacent-gap bound reaches 0.05 at epsilon 0.00165
    result = _findings_run(100, 20, 200, ("diag_uniform", "adjacent_gap"))
    assert _level_epsilon(result, "adjacent_gap") < _level_epsilon(result, "diag_uniform")


def test_covgap_distance_falls_below_the_monte_carlo_frequency_at_n400():
    # at p = 2 covgap_distance's level epsilon falls about as n^-1.34 and the
    # empirical one as n^-1/2: at n = 400 it claims less deviation than the
    # trials show (12 grid points at seed 3), at n = 100 nowhere
    assert _points_above_bound(_findings_run(400, 2, 120, ("covgap_distance",)), "covgap_distance") > 0
    assert _points_above_bound(_findings_run(100, 2, 200, ("covgap_distance",)), "covgap_distance") == 0


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



@pytest.mark.parametrize("indices,kept", [((1, 5, 7), 8), ((2, 30), 30), ((30,), 30)])
def test_boxplot_trial_keeps_only_the_reported_orders(indices, kept):
    # a fresh array of min(max(indices) + 1, n) orders, so the trial's whole
    # spectrum can be freed (before: a view that kept all n alive)
    cfg = _cfg(indices=indices)
    lam = np.sort(np.random.default_rng(4).standard_normal(cfg.n))
    out = _boxplot_trial((cfg, lam))
    assert out.base is None and out.shape == (kept,)
    assert out.tobytes() == (lam[::-1] / cfg.n)[:kept].tobytes()


def test_default_bound_follows_the_statistics():
    # adjacent_gap bounds eigenvalue, so it is the default only when eigenvalue is listed
    assert ExperimentConfig(n=10, p=2, seed=1).bounds == ("adjacent_gap",)
    assert ExperimentConfig(n=10, p=2, seed=1, statistics=("topk_sum", "eigenvalue")).bounds == ("adjacent_gap",)
    assert ExperimentConfig(n=10, p=2, seed=1, statistics=("kta",)).bounds == ()
    assert ExperimentConfig.from_dict({"n": 10, "p": 2, "seed": 1, "statistics": ["tail_sum"]}).bounds == ()
    # the default is had by leaving the key out; null is not a list
    with pytest.raises(ConfigError, match="'bounds' must be a list, got None"):
        ExperimentConfig.from_dict({"n": 10, "p": 2, "seed": 1, "bounds": None})

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
    parent = eigvals_sym(a)
    violations = 0
    worst = -np.inf
    for drop in range(1, dim + 1):
        ok, violation = interlacing_check(parent, eigvals_sym(principal_submatrix(a, drop)))
        worst = max(worst, violation)
        violations += not ok
    return violations, worst


def test_interlacing_trial_equals_per_drop_loop():
    for t in range(60):
        trial_seed = subseed(11, 1_000_000 + t)
        assert _interlacing_trial(trial_seed) == _interlacing_per_drop(trial_seed)


def test_interlacing_counts_a_violating_child_in_a_stack(monkeypatch):
    parent = np.array([3.0, 2.0, 1.0])
    children = np.array([[2.5, 1.5], [3.5, 1.0], [2.0, 1.0]])
    ok, worst = interlacing_check(parent, children)
    assert ok.tolist() == [True, False, True]
    assert worst.tolist() == [-0.5, 0.5, 0.0]

    solve = experiments.eigvals_sym

    def raise_second_child(a):
        lam = solve(a)
        if lam.ndim == 1:
            return lam
        lam = lam.copy()
        lam[1, 0] = float(np.max(lam)) + 1.0
        return lam

    monkeypatch.setattr(experiments, "eigvals_sym", raise_second_child)
    violations, worst = _interlacing_trial(subseed(11, 1_000_000))
    assert violations == 1 and worst > 0.0


def test_child_index_gathers_the_fancy_index_stack():
    # the flat matrix read through the cached index, and np.take with it,
    # against the (dim, dim-1, dim-1) fancy-indexed stack they replaced, at
    # every dim the oracle draws
    rng = np.random.default_rng(3)
    for dim in range(3, 41):
        a = rng.standard_normal((dim, dim))
        keep = np.arange(dim - 1) + (np.arange(dim - 1) >= np.arange(dim)[:, None])
        want = a[keep[:, :, None], keep[:, None, :]]
        index = experiments._child_index(dim)
        assert index.itemsize <= 2 and not index.flags.writeable and index is experiments._child_index(dim)
        for got in (a.ravel()[index], np.take(a.ravel(), index)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), dim


def test_interlacing_row_equals_eig_sym_reference(monkeypatch):
    # the row `run_oracles` writes, against the same matrices solved with
    # eigenvectors: eigvalsh and eigh round differently, and the row must not see it
    reference = []
    with monkeypatch.context() as m:
        m.setattr(experiments, "eigvals_sym", lambda a: eig_sym(a).eigenvalues)
        for seed in range(1, 21):
            trials = [_interlacing_trial(subseed(seed, 1_000_000 + t)) for t in range(100)]
            reference.append((sum(v for v, _ in trials), max(0.0, max(w for _, w in trials))))
    for seed, want in zip(range(1, 21), reference):
        cfg = _cfg(n=6, p=2, seed=seed)
        row = run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100,
                          expansion_trials=1).row("interlacing")
        assert (row.violations, row.max_violation) == want, seed


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
