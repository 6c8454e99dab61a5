"""Seeded Monte Carlo harness: concentration frequencies vs. bound values,
eigenvalue boxplot statistics, and the brute-force oracle suite.

Statistic convention: trials build the raw Gram matrix G and use
lambda_i(G)/n, which equals the i-th eigenvalue of the 1/n-scaled kernel
matrix; bound inputs come from G as in every command (see `bounds`).

Per-trial RNG: subseed = splitmix64(master seed, trial index), so results are
identical for any worker count or scheduling order.  Every trial that samples
data receives the ExperimentConfig itself (frozen and picklable) with its
subseed and draws its kernel, generator and samples through `_draw`.  A concentration trial returns
its statistic values and each bound's parameters (the first phase of
`bounds.theorem_params`, a few floats) as lists in `_keys` order, None
marking a trial excluded from a bound.  `run_concentration` stacks each
bound's parameters over the kept trials and evaluates the bound once over
the whole trials x epsilons grid.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bounds as bnd
from .alignment import kta, middle_spectrum_norm, theta_statistic, top_eigenvalue_ratio
from .dataset import SampleSet, covariance_stats, whitened_norm
from .errors import ConfigError, SpecBoundsError
from .kernels import KernelSpec, diag_sup, gram, kernel_from_config, linear, lipschitz
from .spectral import (
    eig_sym,
    eigvec_first_order,
    gap_tolerance,
    gaps_from_eigenvalues,
    interlacing_check,
    perturb_replace,
    perturb_replace_norm,
    sign_align,
)

KNOWN_STATISTICS = ("eigenvalue", "topk_sum", "tail_sum", "kta")
KNOWN_BOUNDS = tuple(name for name, t in bnd.THEOREMS.items() if t.statistic in KNOWN_STATISTICS)


def splitmix64(state: int) -> int:
    """One step of the splitmix64 sequence (deterministic 64-bit mix)."""
    z = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def subseed(master_seed: int, trial_index: int) -> int:
    """Per-trial RNG seed derived from (master seed, trial index)."""
    return splitmix64((master_seed & 0xFFFFFFFFFFFFFFFF) ^ splitmix64(trial_index))


def default_epsilons(points: int = 40) -> tuple[float, ...]:
    """40 log-spaced deviations spanning [1e-4, 1]."""
    return tuple(float(x) for x in np.logspace(-4.0, 0.0, points))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run needs; JSON round-trippable."""

    n: int
    p: int
    trials: int
    seed: int
    kernel: dict = field(default_factory=lambda: {"family": "gaussian", "sigma": 1.0})
    generator: str = "gaussian"
    epsilons: tuple[float, ...] = field(default_factory=default_epsilons)
    indices: tuple[int, ...] = (1, 2, 3)
    statistics: tuple[str, ...] = ("eigenvalue",)
    bounds: tuple[str, ...] = ("adjacent_gap",)

    def __post_init__(self):
        kind = kernel_from_config(self.kernel).kind  # validate eagerly
        object.__setattr__(self, "epsilons", bnd.validate_epsilons(self.epsilons))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(self, "kernel", dict(self.kernel))
        for name in ("statistics", "indices", "bounds"):
            values = getattr(self, name)
            repeated = [v for j, v in enumerate(values) if v in values[:j]]
            if repeated:
                raise ConfigError(f"{name} lists {repeated[0]!r} more than once")
        if self.trials < 2:
            raise ConfigError(f"need at least 2 trials, got {self.trials}")
        if self.generator != "gaussian":
            raise ConfigError(f"unknown generator {self.generator!r}")
        if not self.indices or any(not 1 <= i <= self.n for i in self.indices):
            raise ConfigError(f"indices must lie in 1..{self.n}")
        for s in self.statistics:
            if s not in KNOWN_STATISTICS:
                raise ConfigError(f"unknown statistic {s!r} (known: {KNOWN_STATISTICS})")
        for b in self.bounds:
            if b not in KNOWN_BOUNDS:
                raise ConfigError(f"unknown bound {b!r} (known: {KNOWN_BOUNDS})")
            if bnd.THEOREMS[b].kernel not in (None, kind):
                raise ConfigError(f"bound {b!r} applies to {bnd.THEOREMS[b].kernel} kernels, not {kind}")

    def kernel_spec(self) -> KernelSpec:
        return kernel_from_config(self.kernel)

    def to_dict(self) -> dict:
        return {
            "generator": self.generator,
            "n": self.n,
            "p": self.p,
            "trials": self.trials,
            "seed": self.seed,
            "kernel": dict(self.kernel),
            "epsilons": list(self.epsilons),
            "indices": list(self.indices),
            "statistics": list(self.statistics),
            "bounds": list(self.bounds),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError(f"experiment config must be a JSON object, got {obj!r}")
        # configs written before the statistic scale was fixed carry it
        if obj.get("scaling", "one_over_n") != "one_over_n":
            raise ConfigError(
                f"scaling {obj['scaling']!r} is no longer supported: the statistic is lambda_i(G)/n"
            )
        unknown = sorted(set(obj) - {f.name for f in fields(cls)} - {"scaling"})
        if unknown:
            raise ConfigError(f"experiment config has unknown key(s) {unknown}")
        try:
            sizes = {name: int(obj[name]) for name in ("n", "p", "trials", "seed")}
            for name, size in sizes.items():
                if isinstance(obj[name], float) and obj[name] != size:
                    raise ConfigError(f"experiment config key {name!r} must be an integer, got {obj[name]!r}")
            # a field the dict leaves out takes its dataclass default
            given = {f.name: obj[f.name] for f in fields(cls) if f.name in obj and f.name not in sizes}
            return cls(**sizes, **given)
        except KeyError as exc:
            raise ConfigError(f"experiment config is missing key {exc}") from exc
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


def _keys(cfg: ExperimentConfig) -> tuple[list, list]:
    """Statistic keys (statistic, index) and bound keys (theorem, statistic,
    index) in output order; a bound covers every index of its statistic."""

    def expand(stat: str) -> list[tuple[str, int | None]]:
        return [(stat, None)] if stat == "kta" else [(stat, i) for i in cfg.indices]

    stat_keys = [key for stat in cfg.statistics for key in expand(stat)]
    bound_keys = []
    for theorem in cfg.bounds:
        stat = bnd.THEOREMS[theorem].statistic
        if stat in cfg.statistics:
            bound_keys += [(theorem, *key) for key in expand(stat)]
    return stat_keys, bound_keys


def _draw(cfg: ExperimentConfig, trial_seed: int):
    """A trial's kernel, its generator, and n standard-normal samples in R^p."""
    rng = np.random.default_rng(trial_seed)
    samples = SampleSet(rows=rng.standard_normal((cfg.n, cfg.p)), provenance=f"gaussian(seed={trial_seed})")
    return cfg.kernel_spec(), rng, samples


def sample_inputs(samples: SampleSet, spec: KernelSpec, g, lam: np.ndarray, needs,
                  spectrum=None, centered: bool = False, a_kn: float | None = None) -> bnd.BoundInputs:
    """The BoundInputs of one sample with raw Gram matrix g and its
    descending eigenvalues lam, computing only the inputs named in `needs`.

    An input that cannot be computed goes into `missing` with the error's
    text, and so does an estimated theta of 0, so the theorems reading it
    are skipped with that reason instead of aborting the run.  `spectrum`,
    if given, is `eig_sym(g)`, which theta reuses; `centered` mean-centres
    the samples before the covariance.
    """
    computations = {
        "diag_sup_sq": lambda: diag_sup(samples, spec),
        "theta": lambda: theta_statistic(g, spectrum=spectrum),
        "cov": lambda: covariance_stats(samples, centered=centered),
        "lip": lambda: lipschitz(spec, samples),
        "frob": lambda: float(np.linalg.norm(g.entries, ord="fro")),
        "l_mid": lambda: middle_spectrum_norm(lam),
        "ratio": lambda: top_eigenvalue_ratio(lam),
    }
    inputs: dict = {}
    missing: dict[str, str] = {}
    for name, compute in computations.items():
        if name in needs:
            try:
                inputs[name] = compute()
            except SpecBoundsError as exc:
                missing[name] = str(exc)
    if inputs.get("theta", 1.0) <= 0.0:
        del inputs["theta"]
        missing["theta"] = "estimated theta is 0; the theta bound is undefined"
    return bnd.BoundInputs(n=samples.n, spectrum=lam, a_kn=a_kn, kernel=spec.kind, missing=missing,
                           theta_estimated="theta" in inputs, **inputs)


def _trial_inputs(cfg: ExperimentConfig, trial_seed: int, keys: tuple[list, list]):
    """One seeded trial's statistic values in `_keys` order and the
    BoundInputs its bound keys read."""
    stat_keys, bound_keys = keys
    spec, rng, samples = _draw(cfg, trial_seed)
    g_raw = gram(samples, spec)
    lam = np.linalg.eigvalsh(g_raw.entries)[::-1]
    lam_stat = lam / cfg.n

    stats: list[float] = []
    a_kn = None
    for stat, i in stat_keys:
        if stat == "eigenvalue":
            stats.append(float(lam_stat[i - 1]))
        elif stat == "topk_sum":
            stats.append(float(lam_stat[:i].sum()))
        elif stat == "tail_sum":
            stats.append(float(lam_stat[i - 1 :].sum()))
        else:
            a_kn = kta(g_raw, rng.choice([-1.0, 1.0], size=cfg.n))
            stats.append(a_kn)

    needs = {name for theorem, _, _ in bound_keys for name in bnd.THEOREMS[theorem].needs}
    return stats, sample_inputs(samples, spec, g_raw, lam, needs, a_kn=a_kn)


def _concentration_trial(args: tuple[ExperimentConfig, tuple[list, list], int]) -> tuple[list, list, list]:
    """One seeded trial: statistic values, each bound key's parameters
    (None when the trial is excluded) and exclusion reasons, in the order
    of `keys` (the run's `_keys`)."""
    cfg, keys, trial_seed = args
    stats, x = _trial_inputs(cfg, trial_seed, keys)
    params: list[tuple | None] = []
    reasons: list[str] = []
    for theorem, _, i in keys[1]:
        try:
            params.append(bnd.theorem_params(theorem, x, i))
            reasons.append("")
        except SpecBoundsError as exc:
            params.append(None)
            reasons.append(str(exc))
    return stats, params, reasons


def _map_trials(fn, args_list, workers: int):
    if workers <= 1:
        return [fn(a) for a in args_list]
    chunk = max(1, len(args_list) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, args_list, chunksize=chunk))


def run_concentration(
    cfg: ExperimentConfig,
    workers: int = 1,
    subseeds: tuple[int, ...] | None = None,
) -> ExperimentResult:
    """Run the seeded trials and aggregate frequencies and mean bound values.

    `subseeds` overrides the per-trial seeds (testing hook).  Trials whose
    bound inputs are degenerate are excluded from that bound's mean (count
    reported) but never from the empirical frequencies.
    """
    if subseeds is None:
        seeds = tuple(subseed(cfg.seed, t) for t in range(cfg.trials))
    else:
        if len(subseeds) != cfg.trials:
            raise ConfigError(f"need {cfg.trials} subseeds, got {len(subseeds)}")
        seeds = tuple(int(s) for s in subseeds)
    keys = _keys(cfg)
    payloads = _map_trials(_concentration_trial, [(cfg, keys, s) for s in seeds], workers)

    eps = np.asarray(cfg.epsilons)
    t_count = cfg.trials
    series = []
    stat_keys, bound_keys = keys
    for k, key in enumerate(stat_keys):
        values = np.array([p[0][k] for p in payloads])
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / np.sqrt(t_count))
        deviations = np.abs(values - mean)
        freq = np.array([float(np.mean(deviations > e)) for e in eps])
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

    # each bound once over the (kept trials x epsilons) grid: parameters
    # stacked as (T, 1) columns against the (1, E) epsilon row
    bound_series = []
    for k, key in enumerate(bound_keys):
        kept = [p[1][k] for p in payloads if p[1][k] is not None]
        reasons = [p[2][k] for p in payloads if p[1][k] is None]
        excluded = len(reasons)
        if kept:
            raw = bnd.theorem_grid(key[0], np.array(kept).T[:, :, None], eps[None, :])
            mean = raw.mean(axis=0)
            p10 = np.quantile(raw, 0.1, axis=0, method="linear")
        else:
            mean = np.full(eps.shape, np.nan)
            p10 = np.full(eps.shape, np.nan)
        bound_series.append(
            BoundSeries(
                theorem=key[0],
                statistic=key[1],
                index=key[2],
                mean=mean,
                p10=p10,
                excluded=excluded,
                reason=reasons[0] if reasons else "",
            )
        )
    return ExperimentResult(
        config=cfg, subseeds=seeds, series=tuple(series), bound_series=tuple(bound_series)
    )


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


def _boxplot_trial(args: tuple[ExperimentConfig, int]) -> np.ndarray:
    cfg, trial_seed = args
    spec, _, samples = _draw(cfg, trial_seed)
    lam = np.linalg.eigvalsh(gram(samples, spec).entries)[::-1] / cfg.n
    top = max(cfg.indices) + 1
    return lam[: min(top, cfg.n)]


def boxplot_stats(cfg: ExperimentConfig, workers: int = 1) -> BoxplotResult:
    """Boxplot statistics of the per-order eigenvalue statistic across trials."""
    seeds = tuple(subseed(cfg.seed, t) for t in range(cfg.trials))
    spectra = np.array(
        _map_trials(_boxplot_trial, [(cfg, s) for s in seeds], workers)
    )
    fives, iqrs, mean_gaps = [], [], []
    for i in cfg.indices:
        values = spectra[:, i - 1]
        fns = five_number_summary(values)
        fives.append(fns)
        iqrs.append(fns[3] - fns[1])
        if i < cfg.n and i < spectra.shape[1]:
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


def _interlacing_trial(trial_seed: int) -> tuple[int, float]:
    """One random symmetric PSD matrix (dim 3..40), checked at every drop index.

    The dim principal submatrices form one (dim, dim-1, dim-1) stack, solved
    by one `eig_sym` call and checked by one broadcast `interlacing_check`.
    """
    rng = np.random.default_rng(trial_seed)
    dim = int(rng.integers(3, 41))
    b = rng.standard_normal((dim, dim))
    a = (b @ b.T) / dim
    # row d of `keep` lists the indices 0..dim-1 without d
    keep = np.arange(dim - 1) + (np.arange(dim - 1) >= np.arange(dim)[:, None])
    children = eig_sym(a[keep[:, :, None], keep[:, None, :]])
    ok, worst = interlacing_check(eig_sym(a), children)
    return int(np.count_nonzero(~ok)), float(np.max(worst))


def _replace_one(cfg: ExperimentConfig, trial_seed: int, zero_perturbation: bool):
    """A trial's samples with one drawn row replaced (by itself under
    `zero_perturbation`): (kernel, samples, replace_at, replacement, pair),
    the pair of G/n."""
    spec, rng, samples = _draw(cfg, trial_seed)
    replacement = rng.standard_normal(cfg.p)
    replace_at = int(rng.integers(1, cfg.n + 1))
    if zero_perturbation:
        replacement = samples.rows[replace_at - 1].copy()
    pair = perturb_replace(samples, spec, replace_at, replacement)
    return spec, samples, replace_at, replacement, pair


def _perturbation_trial(args: tuple[ExperimentConfig, int, int, bool]) -> dict:
    """One replace-one trial: eigenvalue stability and perturbation-norm checks."""
    cfg, trial_seed, index, zero_perturbation = args
    spec, samples, replace_at, replacement, pair = _replace_one(cfg, trial_seed, zero_perturbation)
    lam = np.linalg.eigvalsh(pair.original.entries)[::-1]
    lam_pert = np.linalg.eigvalsh(pair.perturbed.entries)[::-1]
    norm_e = pair.spectral_norm_e

    out: dict[str, tuple[float, float] | None] = {}
    # Weyl-type stability: every eigenvalue moves at most ||E||.
    out["eigenvalue_stability"] = (float(np.max(np.abs(lam_pert - lam))), norm_e + 1e-9)

    cov = covariance_stats(samples)
    radius = max(cov.whitened_radius, whitened_norm(cov, replacement))
    cov = replace(cov, whitened_radius=radius)  # boundedness covers the replacement
    lip = lipschitz(spec, samples)
    norms = bnd.error_norm_bound(spec.kind, cov, lip, cfg.n)
    out["perturbation_norm_printed"] = (norm_e, norms.printed)
    out["perturbation_norm_conservative"] = (norm_e, norms.conservative)

    lin_norm = perturb_replace_norm(samples, linear(), replace_at, replacement)
    lin_bound = bnd.error_norm_bound("inner", cov, 1.0, cfg.n)
    out["perturbation_norm_inner"] = (lin_norm, lin_bound.printed)

    # Second-order eigenvalue bound, only where the expansion is valid.
    profile = gaps_from_eigenvalues(lam, index)
    others = np.abs(np.delete(lam - lam[index - 1], index - 1))
    min_gap = float(np.min(others))
    if profile.degenerate or norm_e >= 0.5 * min_gap:
        out["second_order_eigenvalue"] = None
    else:
        lhs = float(np.abs(lam_pert[index - 1] - lam[index - 1]))
        out["second_order_eigenvalue"] = (lhs, norm_e + norm_e**2 * profile.resolvent_sum + 1e-9)
    return out


def _expansion_trial(args: tuple[dict, int, int, bool]) -> tuple[float, float] | None:
    """Quadratic-residual check of the first-order eigenvector expansion.

    Scales the perturbation so its norm is a quarter of the spectral distance,
    then compares residuals at t and t/2: (r(t/2), 0.35 * r(t)), or None when
    the trial is degenerate.
    """
    cfg, trial_seed, index, zero_perturbation = args
    pair = _replace_one(cfg, trial_seed, zero_perturbation)[-1]
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
    eigvec_expansion_residual, perturbation_norm_inner.
    """
    if min(interlacing_matrices, perturbation_trials) < 100 or expansion_trials < 1:
        raise ConfigError("oracle trial counts must be >= 100 (expansion >= 1)")

    seeds = [subseed(cfg.seed, 1_000_000 + t) for t in range(interlacing_matrices)]
    results = _map_trials(_interlacing_trial, seeds, workers)
    interlacing = OracleRow(
        name="interlacing",
        trials=interlacing_matrices,
        violations=sum(v for v, _ in results),
        skipped=0,
        max_violation=max(0.0, max(w for _, w in results)),
    )

    args = [
        (cfg, subseed(cfg.seed, 2_000_000 + t), index, zero_perturbation)
        for t in range(perturbation_trials)
    ]
    payloads = _map_trials(_perturbation_trial, args, workers)

    args = [
        (cfg, subseed(cfg.seed, 3_000_000 + t), index, zero_perturbation)
        for t in range(expansion_trials)
    ]
    residuals = _map_trials(_expansion_trial, args, workers)

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
