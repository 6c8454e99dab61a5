"""Seeded Monte Carlo harness: concentration frequencies vs. bound values,
eigenvalue boxplot statistics, and the brute-force oracle suite.

Statistic convention: trials build the raw Gram matrix G and use
lambda_i(G)/n, which equals the i-th eigenvalue of the 1/n-scaled kernel
matrix; bound inputs come from G as in every command (see `bounds`).

Per-trial RNG: subseed = splitmix64(master seed, trial index), so results are
identical for any worker count, scheduling order or block length.  Every
trial that samples data draws its generator and samples from the
ExperimentConfig (frozen and picklable) and its subseed through `_draw`.

Staged trial blocks: `_map_trials` cuts a loop's seeds into blocks and runs
each block one stage at a time, for the concentration, boxplot and
perturbation-oracle loops:
  1. draw: every trial's RNG and samples (and the oracle's replacement row
     and index, the kta labels);
  2. solve: every trial's n x n work, the Gram matrix, its `eigvalsh`, the
     alignment and the per-sample bound inputs (`_per_sample_inputs`:
     theta, ||K||_F, the Lipschitz constant, ...), keeping only the
     samples, the spectrum and scalars, so no block carries G;
  3. finish, once per block for the concentration and perturbation loops:
     - concentration (`_finish`): the block's spectra as one (B, n) array
       give the statistic columns, the trials' per-sample inputs are
       stacked into (B,) columns next to one stacked `covariance_stats`
       and one stacked gap profile per eigen-order, and
       `bounds.theorem_params` gives each bound key's parameters as (B,)
       columns with each trial's exclusion reason;
     - perturbation oracle (`_finish_perturbed`): both spectra of each
       replace-one pair as (B, n) arrays, one stacked `covariance_stats`
       and one stacked gap profile at the oracle's order give every oracle
       row's (lhs, rhs) as (B,) columns, with the BLAS norms
       (`whitened_norm`, the linear-kernel perturbation norm) one per
       trial;
     `_concentration_trial` and `_perturbation_trial` then hand on each
     trial's share.  The boxplot loop finishes once per trial
     (`_boxplot_trial`), keeping only the orders it reports.
Every stacked step gives each trial the bits it has alone (see `bounds`
on powers), so no output bit depends on the block length, and the
small-array work of stage 3 runs with warm caches, as numpy calls over the
block instead of Python calls per trial.  A block holds as many trials as
keep what it carries between stages within BLOCK_BYTES, by one rule for
every run (`_trial_bytes`).

`run_concentration` stacks the trials' rows, statistic values and then each
bound key's parameter pair, and evaluates each bound once over its kept
trials x epsilons grid; an excluded trial's reason is the first failed
precondition, in the order one sample checks them.  The grid is evaluated
in blocks of consecutive epsilon columns, each as wide as keeps its few
(T, w) arrays within BLOCK_BYTES and at least 2 columns wide (a 1-column
remainder joins the block before it; one epsilon is one block), so no
whole (T, E) grid of bound values is ever held and every mean and
quantile has the bits of the whole grid's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .alignment import kta, middle_spectrum_norm, theta_statistic, top_eigenvalue_ratio
from .dataset import SampleSet, covariance_stats, whitened_norm
from .errors import ConfigError, SingularCovarianceError, SpecBoundsError
from .kernels import GramMatrix, KernelSpec, diag_sup, gram, kernel_from_config, linear, lipschitz
from .spectral import (
    eig_sym,
    eigvals_sym,
    eigvec_first_order,
    gap_tolerance,
    gaps_from_eigenvalues,
    interlacing_check,
    perturb_replace,
    perturb_replace_norm,
    sign_align,
)

KNOWN_STATISTICS = tuple(name for name, s in bnd.STATISTICS.items() if s.value is not None)
KNOWN_BOUNDS = tuple(name for name, t in bnd.THEOREMS.items() if t.statistic in KNOWN_STATISTICS)
# what one block of trials may carry from one stage to the next
BLOCK_BYTES = 256 * 1024
# about how many (T, w) arrays one epsilon block of a bound grid holds at once
_GRID_ARRAYS = 4
# keys of older configs, loaded only at the value now fixed: key -> (value, why)
_RETIRED_KEYS = {"scaling": ("one_over_n", "the statistic is lambda_i(G)/n"),
                "generator": ("gaussian", "every trial draws standard-normal samples")}


def splitmix64(state: int) -> int:
    """One step of the splitmix64 sequence (deterministic 64-bit mix)."""
    z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def subseed(master_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed derived from (master seed, trial index)."""
    return splitmix64((master_seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(trial_index))


def default_epsilons() -> tuple[float, ...]:
    """40 log-spaced deviations spanning [1e-4, 1]."""
    return tuple(float(x) for x in np.logspace(-4.0, 0.0, 40))


def _integer(name: str, value, what: str = "be an integer") -> int:
    """A config integer: a whole float or a numeric string loads as its int,
    and a boolean or a fractional float is a ConfigError."""
    size = int(value)
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float) and value != size):
        raise ConfigError(f"experiment config key {name!r} must {what}, got {value!r}")
    return size


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run needs; JSON round-trippable."""

    n: int
    p: int
    seed: int
    trials: int = 1000
    kernel: dict = field(default_factory=lambda: {"family": "gaussian"})
    epsilons: tuple[float, ...] = field(default_factory=default_epsilons)
    indices: tuple[int, ...] = (1, 2, 3)
    statistics: tuple[str, ...] = ("eigenvalue",)
    bounds: tuple[str, ...] | None = None  # None: ("adjacent_gap",) when statistics lists eigenvalue, else ()

    def __post_init__(self):
        for name in ("n", "p", "trials", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        spec = kernel_from_config(self.kernel)  # validated eagerly
        object.__setattr__(self, "kernel", {"family": spec.name, **spec.params})
        kind = spec.kind
        if self.bounds is None:
            object.__setattr__(self, "bounds", ("adjacent_gap",) if "eigenvalue" in self.statistics else ())
        for name in ("epsilons", "indices", "statistics", "bounds"):
            if isinstance(getattr(self, name), str):  # else read one character at a time
                raise ConfigError(f"experiment config key {name!r} must be a list, got {getattr(self, name)!r}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        flags = [e for e in self.epsilons if isinstance(e, (bool, np.bool_))]
        if flags:
            raise ConfigError(f"experiment config key 'epsilons' must hold numbers, got {flags[0]!r}")
        object.__setattr__(self, "epsilons", bnd.validate_epsilons(self.epsilons))
        object.__setattr__(self, "indices", tuple(_integer("indices", i, "hold integers") for i in self.indices))
        if self.n < 2:
            raise ConfigError(f"need at least 2 samples, got n = {self.n}")
        if self.p < 1:
            raise ConfigError(f"need at least one feature column, got p = {self.p}")
        if self.trials < 2:
            raise ConfigError(f"need at least 2 trials, got {self.trials}")
        if not self.indices or any(not 1 <= i <= self.n for i in self.indices):
            raise ConfigError(f"indices must lie in 1..{self.n}")
        for s in self.statistics:
            if s not in KNOWN_STATISTICS:
                raise ConfigError(f"unknown statistic {s!r} (known: {KNOWN_STATISTICS})")
        for b in self.bounds:
            if b not in KNOWN_BOUNDS:
                raise ConfigError(f"unknown bound {b!r} (known: {KNOWN_BOUNDS})")
            if bnd.THEOREMS[b].statistic not in self.statistics:
                raise ConfigError(f"bound {b!r} bounds the {bnd.THEOREMS[b].statistic} statistic, "
                                  f"which statistics {list(self.statistics)} does not list")
            if bnd.THEOREMS[b].kernel not in (None, kind):
                raise ConfigError(f"bound {b!r} applies to {bnd.THEOREMS[b].kernel} kernels, not {kind}")
        for name in ("statistics", "indices", "bounds"):  # every entry is hashable by now
            seen = set()
            for v in getattr(self, name):
                if v in seen:
                    raise ConfigError(f"{name} lists {v!r} more than once")
                seen.add(v)

    def kernel_spec(self) -> KernelSpec:
        """The kernel that `kernel` describes, built on each call."""
        return kernel_from_config(self.kernel)

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
                for name, v in values.items()}

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"experiment config must be a JSON object, got {obj!r}")
        for key, (value, why) in _RETIRED_KEYS.items():
            if obj.get(key, value) != value:
                raise ConfigError(f"{key} {obj[key]!r} is no longer supported: {why}")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(_RETIRED_KEYS))
        if unknown:
            raise ConfigError(f"experiment config has unknown key(s) {unknown}")
        for name in ("n", "p", "seed"):
            if name not in obj:
                raise ConfigError(f"experiment config is missing key {name!r}")
        if "bounds" in obj and obj["bounds"] is None:  # the default is had by leaving the key out
            raise ConfigError("experiment config key 'bounds' must be a list, got None")
        try:
            # a field the dict leaves out takes its dataclass default
            return cls(**{f.name: obj[f.name] for f in fields(cls) if f.name in obj})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"experiment config has a malformed value: {exc}") from exc


@dataclass(frozen=True)
class StatSeries:
    """Per-trial values of one statistic with its concentration summary."""

    statistic: str
    index: int | None
    values: np.ndarray
    mc_mean: float
    mc_se: float
    frequencies: np.ndarray     # per epsilon, strict deviation frequency
    frequency_se: np.ndarray
    five_number: tuple[float, float, float, float, float]
    iqr: float


@dataclass(frozen=True)
class BoundSeries:
    """Across-trial mean (and pessimistic percentile) of one bound's RHS."""

    theorem: str
    statistic: str
    index: int | None
    mean: np.ndarray            # per epsilon; NaN when every trial was excluded
    p10: np.ndarray
    excluded: int
    reason: str = ""


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    subseeds: tuple[int, ...]
    series: tuple[StatSeries, ...]
    bound_series: tuple[BoundSeries, ...]


def five_number_summary(values: np.ndarray) -> tuple[float, ...]:
    """(min, Q1, median, Q3, max) with type-7 (linear interpolation) quantiles."""
    q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0], method="linear")
    return tuple(float(v) for v in q)


class _Keys(NamedTuple):
    """A run's statistic keys (statistic, index) and bound keys (theorem,
    statistic, index) in output order, and the bound inputs they read."""

    stats: list
    bounds: list
    needs: frozenset


def _keys(cfg: ExperimentConfig) -> _Keys:
    """The run's keys: a statistic with no order has the one index None,
    and a bound covers every key of its statistic."""
    stat_keys = [(stat, i) for stat in cfg.statistics
                 for i in ((None,) if bnd.STATISTICS[stat].order is None else cfg.indices)]
    bound_keys = [(theorem, *key) for theorem in cfg.bounds for key in stat_keys
                  if key[0] == bnd.THEOREMS[theorem].statistic]
    return _Keys(stat_keys, bound_keys, bnd.theorem_needs(theorem for theorem, _, _ in bound_keys))


def _draw(cfg: ExperimentConfig, trial_seed: int):
    """A trial's generator and its n standard-normal samples in R^p."""
    rng = np.random.default_rng(trial_seed)
    # standard-normal draws are finite, and the config has checked n and p
    samples = SampleSet._owned(rng.standard_normal((cfg.n, cfg.p)), f"gaussian(seed={trial_seed})")
    return rng, samples


_ZERO_THETA = "estimated theta is 0; the theta bound is undefined"


def _per_sample_inputs(samples, spec: KernelSpec, g, lam: np.ndarray, needs, spectrum) -> tuple[dict, dict]:
    """The inputs among diag_sup_sq, theta, lip, frob, l_mid and ratio that
    `needs` names, of one sample with raw Gram matrix g and its descending
    eigenvalues lam: each one's value (NaN where it cannot be computed) and
    each missing one's reason, the error's text.  An estimated theta of 0 is
    missing too.  `spectrum`, if not None, is `eig_sym(g)`, which theta reuses."""
    compute = {
        "diag_sup_sq": lambda: diag_sup(samples, spec),
        "theta": lambda: theta_statistic(g, spectrum=spectrum),
        "lip": lambda: lipschitz(spec, samples),
        "frob": lambda: float(np.linalg.norm(g.entries, ord="fro")),
        "l_mid": lambda: middle_spectrum_norm(lam),
        "ratio": lambda: top_eigenvalue_ratio(lam),
    }
    values: dict = {}
    missing: dict = {}
    for name, value in compute.items():
        if name in needs:
            try:
                values[name] = value()
            except SpecBoundsError as exc:
                values[name], missing[name] = math.nan, str(exc)
    if values.get("theta", math.nan) <= 0.0:
        missing["theta"] = _ZERO_THETA
    return values, missing


def sample_inputs(samples: SampleSet, spec: KernelSpec, g: GramMatrix, lam: np.ndarray, needs,
                  spectrum=None, centered: bool = False, a_kn=None) -> bnd.BoundInputs:
    """The BoundInputs of one sample with raw Gram matrix g and its
    descending eigenvalues lam, computing only the inputs named in `needs`.

    An input that cannot be computed goes into `missing` with the error's
    text, and so does an estimated theta of 0, so the theorems reading it
    are skipped with that reason instead of aborting the run.  `spectrum`,
    if given, is `eig_sym(g)`, which theta reuses; `centered` mean-centres
    the samples before the covariance.
    """
    values, missing = _per_sample_inputs(samples, spec, g, lam, needs, spectrum)
    inputs = {name: v for name, v in values.items() if name not in missing}
    if "cov" in needs:
        try:
            inputs["cov"] = covariance_stats(samples, centered=centered)
        except SpecBoundsError as exc:
            missing["cov"] = str(exc)
    return bnd.BoundInputs(n=lam.shape[-1], spectrum=lam, a_kn=a_kn, kernel=spec.kind, missing=missing,
                           theta_estimated="theta" in inputs, **inputs)


def _draw_labelled(cfg: ExperimentConfig, trial_seed: int):
    """Stage 1 of a concentration trial: its samples, and its +-1 labels
    when the run has a statistic with no order, kta (else None)."""
    rng, samples = _draw(cfg, trial_seed)
    labels = None if all(bnd.STATISTICS[s].order for s in cfg.statistics) else rng.choice([-1.0, 1.0], size=cfg.n)
    return samples, labels


class _Solved(NamedTuple):
    """What a concentration trial carries from its eigensolve to its finish:
    no n x n array."""

    samples: SampleSet
    lam: np.ndarray             # its eigenvalues, descending and contiguous
    a_kn: float | None          # its kernel-target alignment, for the kta statistic
    per_sample: tuple[dict, dict]  # its `_per_sample_inputs` pair


def _solve(spec: KernelSpec, keys: _Keys, samples: SampleSet, labels) -> _Solved:
    """Stage 2 of a concentration trial, the last to read its Gram matrix:
    the spectrum, the alignment and the per-sample bound inputs."""
    g_raw = gram(samples, spec)
    lam = np.linalg.eigvalsh(g_raw.entries)[::-1].copy()  # descending and contiguous
    a_kn = kta(g_raw, labels) if labels is not None else None
    return _Solved(samples, lam, a_kn, _per_sample_inputs(samples, spec, g_raw, lam, keys.needs, None))


def _statistics(cfg: ExperimentConfig, keys: _Keys, lam: np.ndarray, a_kn) -> list:
    """The statistic values, in `_keys` order, of one trial's spectrum and
    alignment, or the (B,) columns of B trials' (B, n) spectra and (B,)
    alignments."""
    lam_stat = lam / cfg.n
    return [bnd.STATISTICS[stat].value(lam_stat, i, a_kn) for stat, i in keys.stats]


def _trial_inputs(cfg: ExperimentConfig, trial_seed: int, keys: _Keys):
    """One seeded trial's statistic values in `_keys` order and the
    BoundInputs its bound keys read, computed by the trial alone."""
    spec = cfg.kernel_spec()
    solved = _solve(spec, keys, *_draw_labelled(cfg, trial_seed))
    stats = [float(v) for v in _statistics(cfg, keys, solved.lam, solved.a_kn)]
    return stats, sample_inputs(solved.samples, spec, gram(solved.samples, spec), solved.lam, keys.needs,
                                a_kn=solved.a_kn)


class _Finished(NamedTuple):
    """Stage 3 of a block of B concentration trials: one row per trial
    holding its statistic values, then each bound key's parameter pair in
    `_keys` order (NaN where the trial is excluded), and each trial's
    exclusions, {bound key position: reason}."""

    table: np.ndarray
    excluded: list


def _finish(cfg: ExperimentConfig, spec: KernelSpec, keys: _Keys, solved: list) -> _Finished:
    """Stage 3 of a block of concentration trials, once for the block: the
    statistic columns of the stacked spectra, the trials' bound inputs as
    (B,) columns with one stacked `covariance_stats` (see
    `bounds.BoundInputs`), and each bound key's parameter columns.  `spec`
    is the block's kernel, `cfg.kernel_spec()`."""
    size = len(solved)
    lam = np.array([s.lam for s in solved])
    a_kn = np.array([s.a_kn for s in solved]) if solved[0].a_kn is not None else None
    values = _statistics(cfg, keys, lam, a_kn)
    inputs: dict = {}
    missing: dict = {}
    if "cov" in keys.needs:
        cov = inputs["cov"] = covariance_stats([s.samples for s in solved])
        if any(why is not None for why in cov.singular):
            missing["cov"] = cov.singular
    per_sample = [s.per_sample for s in solved]
    for name in per_sample[0][0]:
        inputs[name] = np.array([computed[name] for computed, _ in per_sample])
        reasons = [why.get(name) for _, why in per_sample]
        if any(why is not None for why in reasons):
            missing[name] = reasons
    x = bnd.BoundInputs(n=cfg.n, spectrum=lam, a_kn=a_kn, kernel=spec.kind, missing=missing,
                        theta_estimated="theta" in inputs, **inputs)
    excluded: list[dict] = [{} for _ in solved]
    for k, (theorem, _, i) in enumerate(keys.bounds):
        reasons = [None] * size
        params = bnd.theorem_params(theorem, x, i, reasons)
        if reasons.count(None) < size:
            for r, why in enumerate(reasons):
                if why is not None:
                    excluded[r][k] = why
        values += (math.nan, math.nan) if params is None else params
    columns = np.empty((len(values), size))  # each column written contiguously; the table is their transpose
    for j, column in enumerate(values):
        columns[j] = column
    return _Finished(columns.T, excluded)


def _concentration_trial(args: tuple[_Finished, int]) -> tuple[np.ndarray, dict]:
    """One trial's share of its block's finish: its row of the table and
    its exclusions."""
    finished, t = args
    return finished.table[t], finished.excluded[t]


def _concentration_block(args) -> list:
    (cfg, keys), seeds = args
    spec = cfg.kernel_spec()
    draws = [_draw_labelled(cfg, s) for s in seeds]
    solved = [_solve(spec, keys, samples, labels) for samples, labels in draws]
    finished = _finish(cfg, spec, keys, solved)
    return [_concentration_trial((finished, t)) for t in range(len(solved))]


def _trial_bytes(cfg: ExperimentConfig) -> int:
    """About what one trial carries between stages: its samples and two
    length-n spectra."""
    return 8 * cfg.n * (cfg.p + 2)


def _each(args) -> list:
    """The block runner of a loop without stages: one call per item."""
    fn, items = args
    return [fn(item) for item in items]


def check_workers(workers: int) -> None:
    """Raise ConfigError unless a run can use `workers` worker processes."""
    if workers < 1:
        raise ConfigError(f"need at least 1 worker, got {workers}")


def _map_trials(run_block, common, items, workers: int, item_bytes: int | None = None) -> list:
    """Every item's result, in order: `run_block((common, block))` maps the
    consecutive blocks of `items` to their items' results.

    A block holds as many items as fit into BLOCK_BYTES at `item_bytes`
    each, and at least one; `item_bytes=None` makes every block one item.
    With `workers > 1` the blocks go to a process pool, a few blocks per
    task; the results do not depend on the worker count.  The pool starts
    all its processes at once, so it has no more than the blocks or the CPUs.
    """
    check_workers(workers)
    size = 1 if item_bytes is None else max(1, BLOCK_BYTES // item_bytes)
    blocks = [(common, items[k : k + size]) for k in range(0, len(items), size)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(blocks), cpus)
    if workers <= 1:
        results = [run_block(b) for b in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only pools pay for it

        chunk = max(1, len(blocks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(run_block, blocks, chunksize=chunk))
    return [r for block in results for r in block]


def run_concentration(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run the seeded trials and aggregate frequencies and mean bound values.

    Trials whose bound inputs are degenerate are excluded from that bound's
    mean (count reported) but never from the empirical frequencies.  Each bound is
    evaluated once over its (kept trials x epsilons) grid, and bound keys
    whose grids have the same exponent, prefactor and parameter columns
    (covgap_distance at every order, adjacent_gap at 1 and topk_gap at 1)
    share one evaluation: their `mean` and `p10` are the same read-only
    arrays.

    A grid is evaluated in blocks of consecutive epsilon columns
    (`_grid_blocks`), each reduced into its columns of the preallocated
    `mean` and `p10` rows, so a grid takes a few (T, w) arrays, not (T, E)
    ones: a block is at least 2 columns wide (8 at T = 1000), and a
    1-column remainder joins the block before it, so every mean has the
    row-by-row sum of the whole grid.
    """
    seeds = tuple(subseed(cfg.seed, t) for t in range(cfg.trials))
    keys = _keys(cfg)
    payloads = _map_trials(_concentration_block, (cfg, keys), seeds, workers, _trial_bytes(cfg))

    eps = np.asarray(cfg.epsilons)
    t_count = cfg.trials
    table = np.array([row for row, _ in payloads])
    series = []
    for j, key in enumerate(keys.stats):
        values = table[:, j].copy()
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(t_count))
        # strict deviation frequency at every epsilon, from one (T, E) comparison
        freq = np.mean(np.abs(values - mean)[:, None] > eps, axis=0)
        freq_se = np.sqrt(freq * (1.0 - freq) / t_count)
        fns = five_number_summary(values)
        series.append(
            StatSeries(
                statistic=key[0],
                index=key[1],
                values=values,
                mc_mean=mean,
                mc_se=se,
                frequencies=freq,
                frequency_se=freq_se,
                five_number=fns,
                iqr=fns[3] - fns[1],
            )
        )

    # each key's kept parameter pairs as (T, 1) columns against (1, w)
    # epsilon blocks; `grids` maps (exponent, prefactor, the columns' shape
    # and bytes) to the (mean, p10) pair
    kept = np.ones((len(keys.bounds), t_count), dtype=bool)
    reasons: list[list[str]] = [[] for _ in keys.bounds]
    for t, (_, excluded) in enumerate(payloads):
        for k, why in excluded.items():
            kept[k, t] = False
            reasons[k].append(why)
    grids: dict = {}
    nan = _read_only(np.full(eps.shape, np.nan))
    bound_series = []
    for k, key in enumerate(keys.bounds):
        mean = p10 = nan
        if kept[k].any():
            first = len(keys.stats) + 2 * k
            columns = table[kept[k], first : first + 2]
            t = bnd.THEOREMS[key[0]]
            grid = (t.grid, t.prefactor, columns.shape, columns.tobytes())
            if grid not in grids:
                grids[grid] = _grid_summary(key[0], columns, eps)
            mean, p10 = grids[grid]
        bound_series.append(
            BoundSeries(
                theorem=key[0],
                statistic=key[1],
                index=key[2],
                mean=mean,
                p10=p10,
                excluded=len(reasons[k]),
                reason=reasons[k][0] if reasons[k] else "",
            )
        )
    return ExperimentResult(
        config=cfg, subseeds=seeds, series=tuple(series), bound_series=tuple(bound_series)
    )


def _grid_blocks(rows: int, count: int) -> list[slice]:
    """Consecutive slices of a grid's `count` epsilon columns, each as wide
    as keeps _GRID_ARRAYS (rows, w) float64 arrays within BLOCK_BYTES and at
    least 2 wide: a 1-column remainder joins the block before it.  A (rows,
    1) block would be summed pairwise, where a wider one, like the whole
    grid, is summed row by row; one column alone stays one block."""
    width = max(2, BLOCK_BYTES // (_GRID_ARRAYS * 8 * rows))
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], count])]


def _grid_summary(theorem: str, columns: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The read-only per-epsilon mean and 0.1 quantile over the kept trials
    of `theorem`'s values, from their (T, 2) parameter columns: the (T, E)
    grid is evaluated one `_grid_blocks` block at a time, with the bits of
    the whole grid's reductions."""
    mean, p10 = np.empty(eps.shape), np.empty(eps.shape)
    params = columns.T[:, :, None]
    for block in _grid_blocks(columns.shape[0], eps.shape[0]):
        raw = bnd.theorem_grid(theorem, params, eps[None, block])
        mean[block] = raw.mean(axis=0)
        p10[block] = np.quantile(raw, 0.1, axis=0, method="linear")
    return _read_only(mean), _read_only(p10)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoxplotResult:
    """Five-number summaries per eigen-order, mean adjacent gaps, and the
    Spearman rank correlation between mean gap and IQR across orders."""

    config: ExperimentConfig
    subseeds: tuple[int, ...]
    indices: tuple[int, ...]
    five_numbers: tuple[tuple[float, float, float, float, float], ...]
    iqrs: tuple[float, ...]
    mean_gaps: tuple[float, ...]
    spearman_gap_iqr: float


def _average_ranks(values) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of the ranks they span."""
    a = np.asarray(values, dtype=np.float64)
    below = np.sum(a[:, None] > a[None, :], axis=1)
    ties = np.sum(a[:, None] == a[None, :], axis=1)
    return below + 0.5 * (ties + 1)


def spearman(a, b) -> float:
    """Spearman rank correlation: the Pearson correlation of average ranks,
    NaN when either input is constant."""
    ra, rb = _average_ranks(a), _average_ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        return float("nan")
    return float(np.corrcoef(np.column_stack((ra, rb)), rowvar=False)[1, 0])


def _boxplot_trial(args: tuple[ExperimentConfig, np.ndarray]) -> np.ndarray:
    """Stage 3 of a boxplot trial: the leading statistics from the raw
    spectrum `eigvalsh` returned (ascending), as a new array of only the
    orders the run reports, so no trial keeps its whole spectrum alive."""
    cfg, lam = args
    top = max(cfg.indices) + 1
    return lam[::-1][: min(top, cfg.n)] / cfg.n


def _boxplot_block(args) -> list:
    cfg, seeds = args
    spec = cfg.kernel_spec()
    draws = [_draw(cfg, s)[1] for s in seeds]
    spectra = [np.linalg.eigvalsh(gram(samples, spec).entries) for samples in draws]
    return [_boxplot_trial((cfg, lam)) for lam in spectra]


def boxplot_stats(cfg: ExperimentConfig, workers: int = 1) -> BoxplotResult:
    """Boxplot statistics of the per-order eigenvalue statistic across trials."""
    seeds = tuple(subseed(cfg.seed, t) for t in range(cfg.trials))
    spectra = np.array(_map_trials(_boxplot_block, cfg, seeds, workers, _trial_bytes(cfg)))
    fives, iqrs, mean_gaps = [], [], []
    for i in cfg.indices:
        values = spectra[:, i - 1]
        fns = five_number_summary(values)
        fives.append(fns)
        iqrs.append(fns[3] - fns[1])
        if i < cfg.n:
            mean_gaps.append(float(np.mean(spectra[:, i - 1] - spectra[:, i])))
        else:
            mean_gaps.append(float("nan"))
    finite = [k for k, gp in enumerate(mean_gaps) if np.isfinite(gp)]
    if len(finite) >= 2:
        rho = spearman([mean_gaps[k] for k in finite], [iqrs[k] for k in finite])
    else:
        rho = float("nan")
    return BoxplotResult(
        config=cfg,
        subseeds=seeds,
        indices=cfg.indices,
        five_numbers=tuple(fives),
        iqrs=tuple(iqrs),
        mean_gaps=tuple(mean_gaps),
        spearman_gap_iqr=rho,
    )


@dataclass(frozen=True)
class OracleRow:
    """Empirical outcome of one inequality: violations are data, not errors."""

    name: str
    trials: int
    violations: int
    skipped: int
    max_violation: float


@dataclass(frozen=True)
class OracleTable:
    config: ExperimentConfig
    rows: tuple[OracleRow, ...]

    def row(self, name: str) -> OracleRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


@lru_cache(maxsize=64)
def _child_index(dim: int) -> np.ndarray:
    """The read-only (dim, dim-1, dim-1) flat indices into a C-ordered
    dim x dim matrix of its principal submatrices, member d without row
    and column d, in the smallest unsigned type that holds them: for the
    oracle's dims 3..40 all 38 indices take 1.3 MB as uint16, 5 MB as intp."""
    # row d of `keep` lists the indices 0..dim-1 without d
    keep = np.arange(dim - 1) + (np.arange(dim - 1) >= np.arange(dim)[:, None])
    flat = (keep[:, :, None] * dim + keep[:, None, :]).astype(np.min_scalar_type(dim * dim - 1))
    flat.flags.writeable = False
    return flat


def _interlacing_trial(trial_seed: int) -> tuple[int, float]:
    """One random symmetric PSD matrix (dim 3..40), checked at every drop index.

    Interlacing reads eigenvalues only: the matrix and the one (dim, dim-1,
    dim-1) stack of its principal submatrices, gathered from the flat
    matrix through one cached index, each take one `eigvals_sym` call, and
    one broadcast `interlacing_check` compares them.
    """
    rng = np.random.default_rng(trial_seed)
    dim = int(rng.integers(3, 41))
    b = rng.standard_normal((dim, dim))
    a = (b @ b.T) / dim
    # indexing with the compact index: np.take would first copy it to intp
    children = eigvals_sym(a.ravel()[_child_index(dim)])
    ok, worst = interlacing_check(eigvals_sym(a), children)
    return int(np.count_nonzero(~ok)), float(np.max(worst))


def _draw_replacement(cfg: ExperimentConfig, trial_seed: int, zero_perturbation: bool):
    """A trial's samples, the 1-based index of the row to replace and its
    replacement (the row itself under `zero_perturbation`)."""
    rng, samples = _draw(cfg, trial_seed)
    replacement = rng.standard_normal(cfg.p)
    replace_at = int(rng.integers(1, cfg.n + 1))
    if zero_perturbation:
        replacement = samples.rows[replace_at - 1].copy()
    return samples, replace_at, replacement


class _Perturbed(NamedTuple):
    """What a perturbation trial carries from its eigensolves to its finish."""

    samples: SampleSet
    replace_at: int
    replacement: np.ndarray
    lam: np.ndarray             # eigenvalues of G/n, descending
    lam_pert: np.ndarray        # and of G/n + E
    norm_e: float               # ||E||


def _solve_perturbed(spec: KernelSpec, samples: SampleSet, replace_at: int, replacement) -> _Perturbed:
    """Stage 2 of a perturbation trial: both spectra of the replace-one pair."""
    pair = perturb_replace(samples, spec, replace_at, replacement)
    lam = np.linalg.eigvalsh(pair.original.entries)[::-1]
    lam_pert = np.linalg.eigvalsh(pair.perturbed.entries)[::-1]
    return _Perturbed(samples, replace_at, replacement, lam, lam_pert, pair.spectral_norm_e)


def _finish_perturbed(cfg: ExperimentConfig, spec: KernelSpec, index: int, solved: list) -> dict:
    """Stage 3 of a block of replace-one trials, once for the block:
    eigenvalue stability and perturbation-norm checks; `spec` is the
    block's kernel, `cfg.kernel_spec()`.

    Maps each oracle row to its trials' (lhs, rhs) pairs, None where the row
    skips a trial.  The sides are (B,) columns of the stacked spectra, one
    stacked `covariance_stats` and one stacked gap profile; the norms that
    BLAS computes (`whitened_norm`, the linear-kernel perturbation norm)
    stay one per trial, so every pair has the bits of its trial alone.
    """
    lam = np.array([t.lam for t in solved])
    lam_pert = np.array([t.lam_pert for t in solved])
    norm_e = np.array([t.norm_e for t in solved])

    sides: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    # Weyl-type stability: every eigenvalue moves at most ||E||.
    sides["eigenvalue_stability"] = (np.max(np.abs(lam_pert - lam), axis=1), norm_e + 1e-9)

    cov = covariance_stats([t.samples for t in solved])
    singular = [why for why in cov.singular if why is not None]
    if singular:
        raise SingularCovarianceError(singular[0])
    # boundedness covers the replacement
    radius = [max(r, whitened_norm(cov.member(b), t.replacement))
              for b, (r, t) in enumerate(zip(cov.whitened_radius.tolist(), solved))]
    cov = replace(cov, whitened_radius=np.array(radius))
    lip = np.array([lipschitz(spec, t.samples) for t in solved])
    norms = bnd.error_norm_bound(spec.kind, cov, lip, cfg.n)
    sides["perturbation_norm_printed"] = (norm_e, norms.printed)
    sides["perturbation_norm_conservative"] = (norm_e, norms.conservative)

    lin = linear()
    lin_norm = np.array([perturb_replace_norm(t.samples, lin, t.replace_at, t.replacement) for t in solved])
    sides["perturbation_norm_inner"] = (lin_norm, bnd.error_norm_bound("inner", cov, 1.0, cfg.n).printed)

    # Second-order eigenvalue bound, only where the expansion is valid.
    profile = gaps_from_eigenvalues(lam, index)
    min_gap = np.min(np.abs(np.delete(lam - lam[:, index - 1 : index], index - 1, axis=1)), axis=1)
    kept = ~(profile.degenerate | (norm_e >= 0.5 * min_gap))
    with np.errstate(invalid="ignore"):  # 0 * inf, in a degenerate trial that is skipped
        rhs = norm_e + bnd._pow(norm_e, 2) * profile.resolvent_sum + 1e-9
    sides["second_order_eigenvalue"] = (np.abs(lam_pert[:, index - 1] - lam[:, index - 1]), rhs)

    pairs = {name: list(zip(lhs.tolist(), rhs.tolist())) for name, (lhs, rhs) in sides.items()}
    second = pairs["second_order_eigenvalue"]
    pairs["second_order_eigenvalue"] = [pair if ok else None for pair, ok in zip(second, kept.tolist())]
    return pairs


def _perturbation_trial(args: tuple[dict, int]) -> dict:
    """One trial's share of its block's finish: each oracle row's (lhs,
    rhs), or None where the row skips the trial."""
    finished, t = args
    return {name: pairs[t] for name, pairs in finished.items()}


def _perturbation_block(args) -> list:
    (cfg, index, zero_perturbation), seeds = args
    spec = cfg.kernel_spec()
    draws = [_draw_replacement(cfg, s, zero_perturbation) for s in seeds]
    solved = [_solve_perturbed(spec, *d) for d in draws]
    finished = _finish_perturbed(cfg, spec, index, solved)
    return [_perturbation_trial((finished, t)) for t in range(len(solved))]


def _expansion_trial(args: tuple[ExperimentConfig, int, int, bool]) -> tuple[float, float] | None:
    """Quadratic-residual check of the first-order eigenvector expansion.

    Scales the perturbation so its norm is a quarter of the spectral distance,
    then compares residuals at t and t/2: (r(t/2), 0.35 * r(t)), or None when
    the trial is degenerate.
    """
    cfg, trial_seed, index, zero_perturbation = args
    samples, replace_at, replacement = _draw_replacement(cfg, trial_seed, zero_perturbation)
    pair = perturb_replace(samples, cfg.kernel_spec(), replace_at, replacement)
    base = eig_sym(pair.original)
    lam = base.eigenvalues
    others = np.abs(np.delete(lam - lam[index - 1], index - 1))
    min_gap = float(np.min(others))
    if min_gap < gap_tolerance(float(lam[0])) or pair.spectral_norm_e <= 0.0:
        return None
    t = min(1.0, 0.25 * min_gap / pair.spectral_norm_e)
    u_base = base.eigenvector(index)

    def residual(scale: float) -> float:
        true_vec = eig_sym(pair.original.entries + scale * pair.e).eigenvector(index)
        true_vec = sign_align(true_vec, u_base)
        predicted = eigvec_first_order(base, -scale * pair.e, index)
        return float(np.linalg.norm(true_vec - predicted))

    r_t = residual(t)
    if r_t < 1e-13:
        return (0.0, 0.0)  # residual at numerical floor; quadratic decay vacuous
    return (residual(0.5 * t), 0.35 * r_t)


def check_oracle_counts(interlacing_matrices: int, perturbation_trials: int, expansion_trials: int) -> None:
    """Raise ConfigError unless `run_oracles` can run these trial counts."""
    if min(interlacing_matrices, perturbation_trials) < 100 or expansion_trials < 1:
        raise ConfigError("oracle trial counts must be >= 100 (expansion >= 1)")


def run_oracles(
    cfg: ExperimentConfig,
    interlacing_matrices: int = 200,
    perturbation_trials: int = 500,
    expansion_trials: int = 50,
    index: int = 1,
    workers: int = 1,
    zero_perturbation: bool = False,
) -> OracleTable:
    """Run every inequality oracle and tabulate violation rates.

    Row names: interlacing, eigenvalue_stability, perturbation_norm_printed,
    perturbation_norm_conservative, second_order_eigenvalue,
    eigvec_expansion_residual, perturbation_norm_inner.  Interlacing and the
    perturbation rows solve for eigenvalues only (`eigvals_sym`, `eigvalsh`);
    the expansion residual reads eigenvectors from `eig_sym`.
    """
    check_oracle_counts(interlacing_matrices, perturbation_trials, expansion_trials)

    seeds = [subseed(cfg.seed, 1_000_000 + t) for t in range(interlacing_matrices)]
    results = _map_trials(_each, _interlacing_trial, seeds, workers)
    interlacing = OracleRow(
        name="interlacing",
        trials=interlacing_matrices,
        violations=sum(v for v, _ in results),
        skipped=0,
        max_violation=max(0.0, max(w for _, w in results)),
    )

    seeds = [subseed(cfg.seed, 2_000_000 + t) for t in range(perturbation_trials)]
    payloads = _map_trials(_perturbation_block, (cfg, index, zero_perturbation), seeds, workers,
                           _trial_bytes(cfg))

    args = [
        (cfg, subseed(cfg.seed, 3_000_000 + t), index, zero_perturbation)
        for t in range(expansion_trials)
    ]
    residuals = _map_trials(_each, _expansion_trial, args, workers)

    def tally(name: str, lhs_rhs: list) -> OracleRow:
        kept = [x for x in lhs_rhs if x is not None]
        excess = [lhs - rhs for lhs, rhs in kept]
        return OracleRow(
            name=name,
            trials=len(kept),
            violations=sum(1 for e in excess if e > 0),
            skipped=len(lhs_rhs) - len(kept),
            max_violation=max(0.0, max(excess)) if excess else 0.0,
        )

    def perturbation(name: str) -> OracleRow:
        return tally(name, [p[name] for p in payloads])

    rows = [
        interlacing,
        perturbation("eigenvalue_stability"),
        perturbation("perturbation_norm_printed"),
        perturbation("perturbation_norm_conservative"),
        perturbation("second_order_eigenvalue"),
        tally("eigvec_expansion_residual", residuals),
        perturbation("perturbation_norm_inner"),
    ]
    return OracleTable(config=cfg, rows=tuple(rows))
