"""Command-line front end.

Subcommands:
  bounds     closed-form bound report for a dataset and kernel
  simulate   seeded Monte Carlo concentration experiments (presets available)
  align      kernel target-alignment report with both bounds
  audit      brute-force oracle suite; violation rates per inequality

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical degeneracy.

CSV columns: RESULTS_HEADER for bounds, simulate and align; AUDIT_HEADER
for audit.

All randomness flows from --seed; an omitted seed is generated, printed, and
stored in the manifest (a --config run takes each run's seed from its config
instead).  Manifests carry the resolved config, input file hashes, tool
version, and output names (no timestamps), so identical commands re-run to
byte-identical CSV/JSON.  The --out directory is created at the first write,
so a run that fails before it leaves nothing behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
# theta_statistic and covariance_stats go unused here (experiments.sample_inputs
# computes the bound inputs), but the benchmark's tracer patches them by name
from .alignment import alignment_report, theta_statistic  # noqa: F401
from .dataset import covariance_stats, load_csv, load_csv_with_labels, load_labels  # noqa: F401
from .errors import ConfigError, DataError, DegeneracyError, SpecBoundsError
from .experiments import (
    BoxplotResult,
    ExperimentConfig,
    ExperimentResult,
    boxplot_stats,
    default_epsilons,
    run_concentration,
    run_oracles,
    sample_inputs,
)
from .kernels import gram, kernel_from_cli
from .spectral import eig_sym
from .svgplot import LinePlot, render_boxplot

PRESETS = ("example1-fig2-top", "example1-fig2-bottom", "fig1-boxplot")
MODES = ("concentration", "boxplot")
RESULTS_HEADER = "statistic,index,epsilon,theorem,kind,value,stderr,flags"
AUDIT_HEADER = "inequality,trials,violations,skipped,max_violation"

Run = tuple[str, str, ExperimentConfig]  # (label, mode, config) of one simulate run


# --- small IO helpers --------------------------------------------------------


def _fval(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _csv(rows, header: str = RESULTS_HEADER) -> str:
    """CSV text: the header, then one line per row (None is an empty field)."""
    lines = [header] + [",".join("" if f is None else str(f) for f in row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_files(out: Path, files: dict[str, str]) -> None:
    """Write each name -> text into `out`, creating it first."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        _write(out / name, text)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_outputs(command: str, args, files: dict[str, str], seed, config, inputs: dict) -> None:
    """Write `files` and a manifest listing them into --out."""
    manifest = {
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config,
        "input_hashes": {name: _sha256(p) for name, p in inputs.items()},
        "outputs": sorted(files),
    }
    _write_files(Path(args.out), {**files, "manifest.json": _json(manifest)})


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"generated seed: {seed}")
    return seed


def _parse_eps(text: str | None) -> tuple[float, ...]:
    if text is None:
        return default_epsilons()
    try:
        eps = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse epsilon list {text!r}: {exc}") from exc
    return bnd.validate_epsilons(eps)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        out: list[int] = []
        for tok in text.split(","):
            if ".." in tok:
                lo, hi = tok.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(tok))
        return tuple(out)
    except ValueError as exc:
        raise ConfigError(f"cannot parse index list {text!r}: {exc}") from exc


# --- bounds ------------------------------------------------------------------

_STAT_ALIASES = {
    "eig": bnd.STAT_EIGENVALUE,
    "topk": bnd.STAT_TOPK,
    "tail": bnd.STAT_TAIL,
    "eigvec": bnd.STAT_EIGVEC,
}


def _parse_stats(text: str) -> list[tuple[str, int]]:
    stats = []
    for tok in text.split(","):
        parts = tok.split(":")
        if len(parts) != 2 or parts[0] not in _STAT_ALIASES:
            raise ConfigError(
                f"cannot parse statistic {tok!r}; expected eig:i, topk:k, tail:k, or eigvec:i"
            )
        try:
            stat = (_STAT_ALIASES[parts[0]], int(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"bad index in statistic {tok!r}") from exc
        if stat in stats:
            raise ConfigError(f"--stat lists {tok!r} more than once")
        stats.append(stat)
    return stats


def _cmd_bounds(args) -> int:
    out = Path(args.out)
    samples = load_csv(args.data, header=args.header)
    spec = kernel_from_cli(args.kernel)
    epsilons = _parse_eps(args.eps)
    stats = _parse_stats(args.stat)
    if args.theta is not None and not 0.0 < args.theta <= 1.0:
        raise ConfigError(f"--theta must lie in (0, 1], got {args.theta}")
    g = gram(samples, spec)
    spectrum = eig_sym(g)
    # the covariance, Lipschitz constant and diagonal sup go into the
    # metadata whichever theorems run; theta is estimated only when read
    needs = {"diag_sup_sq", "cov", "lip"}
    if args.theta is None and any("theta" in bnd.THEOREMS[t].needs
                                  for stat, _ in stats for t in bnd.theorems_for(stat)):
        needs.add("theta")
    x = sample_inputs(samples, spec, g, spectrum.eigenvalues, needs, spectrum=spectrum,
                      centered=args.centered)
    if args.theta is not None:
        x = replace(x, theta=args.theta)
    meta: dict = {
        "n": samples.n,
        "p": samples.p,
        "kernel": spec.describe(),
        "epsilons": list(epsilons),
        "diag_sup_sq": x.diag_sup_sq,
    }
    if x.cov is None or x.lip is None:
        meta["covariance_skipped"] = x.missing.get("cov") or x.missing["lip"]
    else:
        norms = bnd.error_norm_bound(spec.kind, x.cov, x.lip, samples.n)
        meta.update(
            {
                "whitened_radius": x.cov.whitened_radius,
                "cov_lambda_1": x.cov.lambda_1,
                "cov_lambda_p": x.cov.lambda_p,
                "cov_gap_1p": x.cov.gap_1p,
                "lipschitz": x.lip,
                "error_norm_printed": norms.printed,
                "error_norm_conservative": norms.conservative,
            }
        )
    if "theta" in x.missing:
        meta["theta_skipped"] = x.missing["theta"]

    rows = []
    skipped: dict[str, str] = {}
    for statistic, index in stats:
        report = bnd.evaluate_bounds(x, statistic, index, epsilons)
        rows.extend(report.rows)
        for theorem, reason in report.skipped.items():
            skipped[f"{statistic}:{index}:{theorem}"] = reason
        meta.setdefault("statistics", {})[f"{statistic}:{index}"] = report.metadata
    if skipped:
        meta["skipped_theorems"] = skipped
    files = {"metadata.json": _json(meta)}
    if skipped and not args.allow_degenerate:
        _write_files(out, files)
        listed = "; ".join(f"{key}: {reason}" for key, reason in skipped.items())
        raise DegeneracyError(
            f"{len(skipped)} theorem(s) skipped: {listed} (pass --allow-degenerate to keep going)"
        )

    files["report.csv"] = _csv(
        [row.statistic, row.index, _fval(row.epsilon), row.theorem, "bound", _fval(row.raw), "",
         ";".join(row.flags + (("vacuous",) if row.vacuous else ()))]
        for row in rows
    )
    _write_outputs("bounds", args, files, None, vars_config(args), {"data": args.data})
    print(f"wrote {out / 'report.csv'}")
    return 0


def vars_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# --- simulate ----------------------------------------------------------------


def preset_runs(name: str, seed: int, trials: int | None, epsilons) -> list[Run]:
    """Built-in experiment presets; returns [(label, mode, config), ...]."""
    common = {"n": 100, "trials": 1000 if trials is None else trials, "seed": seed}
    if epsilons is not None:
        common["epsilons"] = epsilons
    if name == "example1-fig2-top":
        return [("", "concentration", ExperimentConfig(p=1, **common))]
    if name == "example1-fig2-bottom":
        return [(f"p{p}", "concentration", ExperimentConfig(p=p, bounds=("covgap_distance",), **common))
                for p in (2, 5)]
    if name == "fig1-boxplot":
        return [("", "boxplot", ExperimentConfig(p=5, indices=tuple(range(1, 16)), bounds=(), **common))]
    raise ConfigError(f"unknown preset {name!r} (known: {PRESETS})")


def _config_runs(path: str, overrides: dict) -> list[Run]:
    """The runs of a --config file (one config or {"runs": [...]}), each
    config with `overrides` applied."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    runs = payload["runs"] if isinstance(payload, dict) and "runs" in payload else [{"config": payload}]
    if not isinstance(runs, list) or not all(isinstance(r, dict) and "config" in r for r in runs):
        raise ConfigError(f'config {path}: "runs" must be a list of {{"label", "mode", "config"}} objects')
    out = []
    for run in runs:
        unknown = sorted(set(run) - {"label", "mode", "config"})
        if unknown:
            raise ConfigError(f"config {path}: unknown run key(s) {unknown}")
        mode = run.get("mode", "concentration")
        if mode not in MODES:
            raise ConfigError(f"config {path}: unknown mode {mode!r} (known: {MODES})")
        config = run["config"]
        if isinstance(config, dict):
            config = {**config, **overrides}
        out.append((run.get("label", ""), mode, ExperimentConfig.from_dict(config)))
    return out


def _runs_from_args(args, seed: int | None) -> list[Run]:
    epsilons = _parse_eps(args.eps)
    if args.preset:
        return preset_runs(args.preset, seed, args.trials, epsilons)
    if args.config:
        given = {"trials": args.trials, "seed": args.seed, "epsilons": None if args.eps is None else epsilons}
        return _config_runs(args.config, {k: v for k, v in given.items() if v is not None})
    if args.n is None or args.p is None:
        raise ConfigError("simulate needs --preset, --config, or at least --n and --p")
    fields = {
        "epsilons": epsilons,
        "kernel": _kernel_dict(args.kernel),
        "indices": _parse_indices(args.indices),
        "statistics": args.statistics.split(","),
    }
    if args.bounds:  # an empty --bounds keeps the default
        fields["bounds"] = [b for b in args.bounds.split(",") if b]
    trials = 1000 if args.trials is None else args.trials
    return [("", args.mode, ExperimentConfig(n=args.n, p=args.p, trials=trials, seed=seed, **fields))]


def _kernel_dict(token: str) -> dict:
    spec = kernel_from_cli(token)
    return {"family": spec.name, **spec.params}


def _result_csv(result: ExperimentResult) -> str:
    eps = result.config.epsilons
    rows = []
    for s in result.series:
        rows.append([s.statistic, s.index, "", "", "mc_mean", _fval(s.mc_mean), _fval(s.mc_se), ""])
        rows.extend(
            [s.statistic, s.index, _fval(e), "", "empirical_freq", _fval(f), _fval(se), ""]
            for e, f, se in zip(eps, s.frequencies, s.frequency_se)
        )
    for b in result.bound_series:
        base_flags = [f"excluded={b.excluded}"] if b.excluded else []
        for j, e in enumerate(eps):
            for kind, v in (("bound_mean", b.mean[j]), ("bound_p10", b.p10[j])):
                flags = list(base_flags)
                if not np.isfinite(v):
                    flags.append("all_excluded")
                elif v >= 1.0:
                    flags.append("vacuous")
                rows.append([b.statistic, b.index, _fval(e), b.theorem, kind, _fval(v), "", ";".join(flags)])
    return _csv(rows)


def _boxplot_csv(result: BoxplotResult) -> str:
    rows = []
    names = ("min", "q1", "median", "q3", "max", "iqr", "mean_gap")
    for i, five, iqr, mg in zip(result.indices, result.five_numbers, result.iqrs, result.mean_gaps):
        rows.extend(
            ["eigenvalue", i, "", "", name, _fval(v), "", ""] for name, v in zip(names, (*five, iqr, mg))
        )
    rows.append(["eigenvalue", "", "", "", "spearman_gap_iqr", _fval(result.spearman_gap_iqr), "", ""])
    return _csv(rows)


def _result_summary(result: ExperimentResult) -> dict:
    """A concentration run's summary.json entry, apart from its label, mode,
    config and RNG lineage."""
    eps = list(result.config.epsilons)
    return {
        "scaling_note": (
            "statistic is eigenvalue of the raw Gram matrix divided by n; "
            "spectral bound inputs (gaps, lambda_1) come from the raw Gram spectrum"
        ),
        "statistics": [
            {
                "statistic": s.statistic,
                "index": s.index,
                "mc_mean": s.mc_mean,
                "mc_se": s.mc_se,
                "five_number": list(s.five_number),
                "iqr": s.iqr,
                "frequencies": [
                    {"epsilon": e, "value": float(f), "stderr": float(se)}
                    for e, f, se in zip(eps, s.frequencies, s.frequency_se)
                ],
            }
            for s in result.series
        ],
        "bounds": [
            {
                "theorem": b.theorem,
                "statistic": b.statistic,
                "index": b.index,
                "excluded": b.excluded,
                "reason": b.reason,
                "values": [
                    {
                        "epsilon": e,
                        "mean": None if not np.isfinite(m) else float(m),
                        "p10": None if not np.isfinite(q) else float(q),
                    }
                    for e, m, q in zip(eps, b.mean, b.p10)
                ],
            }
            for b in result.bound_series
        ],
    }


def _boxplot_summary(result: BoxplotResult) -> dict:
    """A boxplot run's summary.json entry, apart from its label, mode, config
    and RNG lineage."""
    return {
        "boxplot": {
            "indices": list(result.indices),
            "five_numbers": [list(f) for f in result.five_numbers],
            "iqrs": list(result.iqrs),
            "mean_gaps": list(result.mean_gaps),
            "spearman_gap_iqr": result.spearman_gap_iqr,
        },
    }


def _concentration_svg(results: list[tuple[str, ExperimentResult]]) -> str:
    plot = LinePlot(
        title="Empirical deviation frequency vs. bound",
        xlabel="epsilon (log scale)",
        ylabel="probability",
    )
    markers = ("circle", "square", "triangle")
    for label, result in results:
        eps = list(result.config.epsilons)
        prefix = f"{label} " if label else ""
        for s in result.series:
            tag = f"i={s.index}" if s.index is not None else s.statistic
            plot.add(f"{prefix}freq {tag}", eps, list(s.frequencies))
        for k, b in enumerate(result.bound_series):
            tag = f"i={b.index}" if b.index is not None else b.statistic
            ys = [min(v, 1.0) if np.isfinite(v) else float("nan") for v in b.mean]
            plot.add(f"{prefix}{b.theorem} {tag}", eps, ys, marker=markers[k % len(markers)])
    return plot.render()


def _cmd_simulate(args) -> int:
    # a --config run takes each run's seed from its file unless --seed is given
    seed = args.seed if args.config and not args.preset else _resolve_seed(args)
    runs = _runs_from_args(args, seed)
    files: dict[str, str] = {}
    summary_runs = []
    concentration = []
    for label, mode, cfg in runs:
        suffix = f"_{label}" if label else ""
        if mode == "boxplot":
            result = boxplot_stats(cfg, workers=args.workers)
            files[f"results{suffix}.csv"] = _boxplot_csv(result)
            summary = _boxplot_summary(result)
            if not args.no_svg:
                files[f"boxplot{suffix}.svg"] = render_boxplot(
                    [str(i) for i in result.indices],
                    list(result.five_numbers),
                    title="Eigenvalue statistic by order",
                    xlabel="eigenvalue order",
                    ylabel="value",
                )
        else:
            result = run_concentration(cfg, workers=args.workers)
            files[f"results{suffix}.csv"] = _result_csv(result)
            summary = _result_summary(result)
            concentration.append((label, result))
        rng = {"master_seed": cfg.seed, "subseeds": list(result.subseeds)}
        summary_runs.append({"label": label, "mode": mode, "config": cfg.to_dict(), "rng": rng, **summary})
    if concentration and not args.no_svg:
        files["plot.svg"] = _concentration_svg(concentration)
    files["summary.json"] = _json({"runs": summary_runs})
    config_payload = {
        "runs": [{"label": label, "mode": mode, "config": cfg.to_dict()} for label, mode, cfg in runs]
    }
    files["config.json"] = _json(config_payload)
    inputs = {"config": args.config} if args.config else {}
    _write_outputs("simulate", args, files, seed, config_payload, inputs)
    print(f"wrote {len(files)} files to {Path(args.out)}")
    return 0


# --- align -------------------------------------------------------------------


def _cmd_align(args) -> int:
    if args.label_col:
        samples, labels = load_csv_with_labels(args.data, args.label_col)
    else:
        if not args.labels:
            raise DataError("labels required: pass --labels FILE or --label-col NAME")
        samples = load_csv(args.data, header=args.header)
        labels = load_labels(args.labels)
    spec = kernel_from_cli(args.kernel)
    epsilons = _parse_eps(args.eps)
    g = gram(samples, spec)
    report = alignment_report(g, labels, epsilons, theta_mode=args.theta_mode)

    statistics = {
        "a_kn": report.a_kn,
        "theta": report.theta,
        "c_theta": report.c_theta,
        "l_mid": report.l_mid,
        "frob": report.frob,
        "ratio": report.ratio,
        "ratio_approx": report.ratio_approx,
    }
    rows = [["kta", "", "", "", kind, _fval(value), "", ""] for kind, value in statistics.items()]
    for theorem, values in sorted(report.bounds.items()):
        rows.extend(
            ["kta", "", _fval(e), theorem, "bound", _fval(v), "", "vacuous" if v >= 1.0 else ""]
            for e, v in zip(report.epsilons, values)
        )

    payload = {
        "n": samples.n,
        "p": samples.p,
        "kernel": spec.describe(),
        "theta_mode": report.theta_mode,
        "m": samples.n,  # C(theta)'s m is n
        "population_alignment": None,  # not computable from a single sample
        **{kind: float(v) if np.isfinite(v) else None for kind, v in statistics.items()},
        "epsilons": list(report.epsilons),
        "bounds": report.bounds,
        "skipped": report.skipped,
    }
    files = {"alignment.csv": _csv(rows), "alignment.json": _json(payload)}
    inputs = {"data": args.data}
    if args.labels:
        inputs["labels"] = args.labels
    _write_outputs("align", args, files, None, vars_config(args), inputs)
    print(f"wrote {Path(args.out) / 'alignment.csv'}")
    return 0


# --- audit -------------------------------------------------------------------


def _cmd_audit(args) -> int:
    seed = _resolve_seed(args)
    cfg = ExperimentConfig(
        n=args.n,
        p=args.p,
        trials=2,  # unused by the oracles; config requires >= 2
        seed=seed,
        kernel=_kernel_dict(args.kernel),
        indices=(args.index,),
        bounds=(),
    )
    oracle_params = {
        "interlacing_matrices": args.interlacing_matrices,
        "perturbation_trials": args.oracle_trials,
        "expansion_trials": args.expansion_trials,
        "index": args.index,
        "zero_perturbation": args.zero_perturbation,
    }
    table = run_oracles(cfg, workers=args.workers, **oracle_params)
    rows = [(r.name, r.trials, r.violations, r.skipped, r.max_violation) for r in table.rows]
    summary = {
        "config": cfg.to_dict(),
        "oracle_params": oracle_params,
        "rows": [dict(zip(AUDIT_HEADER.split(","), row)) for row in rows],
    }
    files = {
        "audit.csv": _csv(([*row[:4], _fval(row[4])] for row in rows), AUDIT_HEADER),
        "summary.json": _json(summary),
    }
    _write_outputs("audit", args, files, seed, cfg.to_dict(), {})
    for row in table.rows:
        print(
            f"{row.name}: trials={row.trials} violations={row.violations} "
            f"skipped={row.skipped} max_violation={row.max_violation:.3e}"
        )
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbounds",
        description="Concentration bounds for kernel matrix spectra, with Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form bound report for a dataset")
    p.add_argument("--data", required=True, help="CSV of samples, one per line")
    p.add_argument("--header", action="store_true", help="skip the first line of --data")
    p.add_argument("--centered", action="store_true", help="mean-center before the covariance")
    p.add_argument("--kernel", default="gaussian:1.0", help="gaussian:SIGMA | linear | polynomial:D:C")
    p.add_argument("--stat", default="eig:1", help="comma list of eig:i, topk:k, tail:k, eigvec:i")
    p.add_argument("--eps", default=None, help="comma list of epsilons (default: 40 log-spaced in [1e-4, 1])")
    p.add_argument("--theta", type=float, default=None, help="use this theta instead of estimating it")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="report around degenerate theorems instead of exiting 4")
    p.add_argument("--out", default="specbounds_out", help="output directory")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("simulate", help="seeded Monte Carlo concentration experiments")
    p.add_argument("--preset", choices=PRESETS, default=None)
    p.add_argument("--config", default=None, help="JSON experiment config (single or {runs: [...]})")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--kernel", default="gaussian:1.0")
    p.add_argument("--indices", default="1,2,3", help="comma list, ranges allowed (1..15)")
    p.add_argument("--statistics", default="eigenvalue")
    p.add_argument("--bounds", default="adjacent_gap")
    p.add_argument("--mode", default="concentration", choices=("concentration", "boxplot"))
    p.add_argument("--eps", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--out", default="specbounds_out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("align", help="kernel target-alignment report")
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--labels", default=None, help="one-column CSV of +/-1 labels")
    p.add_argument("--label-col", default=None, help="label column name inside --data (implies header)")
    p.add_argument("--kernel", default="gaussian:1.0")
    p.add_argument("--eps", default=None)
    p.add_argument("--theta-mode", default="drop", choices=("drop", "zero"))
    p.add_argument("--out", default="specbounds_out")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("audit", help="brute-force oracle suite")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--kernel", default="gaussian:1.0")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle-trials", type=int, default=500, help="replace-one perturbation trials")
    p.add_argument("--interlacing-matrices", type=int, default=200)
    p.add_argument("--expansion-trials", type=int, default=50)
    p.add_argument("--index", type=int, default=1, help="eigen-order checked by the expansion oracles")
    p.add_argument("--zero-perturbation", action="store_true",
                   help="replace each sample with itself (smoke test: zero violations)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="specbounds_out")
    p.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SpecBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
