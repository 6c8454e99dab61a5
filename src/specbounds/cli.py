"""Command-line front end.

Subcommands:
  bounds     closed-form bound report for a dataset and kernel
  simulate   seeded Monte Carlo concentration experiments (presets available)
  align      kernel target-alignment report with both bounds
  audit      brute-force oracle suite; violation rates per inequality

Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical degeneracy.

Results CSV contract (bounds/simulate/align):
  statistic,index,epsilon,theorem,kind,value,stderr,flags
Audit CSV:
  inequality,trials,violations,skipped,max_violation

All randomness flows from --seed; an omitted seed is generated, printed, and
stored in the manifest.  Manifests carry the resolved config, input file
hashes, tool version, and output names (no timestamps), so identical commands
re-run to byte-identical CSV/JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
from .alignment import alignment_report, theta_statistic
from .dataset import covariance_stats, load_csv, load_csv_with_labels, load_labels
from .errors import ConfigError, DataError, DegeneracyError, SpecBoundsError
from .experiments import (
    BoxplotResult,
    ExperimentConfig,
    ExperimentResult,
    boxplot_stats,
    default_epsilons,
    run_concentration,
    run_oracles,
)
from .kernels import diag_sup, gram, kernel_from_cli, lipschitz
from .spectral import eig_sym
from .svgplot import LinePlot, render_boxplot

PRESETS = ("example1-fig2-top", "example1-fig2-bottom", "fig1-boxplot")


# --- small IO helpers --------------------------------------------------------


def _fval(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _csv_line(fields) -> str:
    return ",".join("" if f is None else str(f) for f in fields)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command: str, out_dir: Path, seed, config, inputs: dict, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "master_seed": seed,
        "config": config,
        "input_hashes": {name: _sha256(p) for name, p in inputs.items()},
        "outputs": sorted(outputs),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"generated seed: {seed}")
    return seed


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    out = _out_dir(args)
    samples = load_csv(args.data, header=args.header)
    spec = kernel_from_cli(args.kernel)
    epsilons = _parse_eps(args.eps)
    stats = _parse_stats(args.stat)
    g = gram(samples, spec)
    spectrum = eig_sym(g)
    meta: dict = {
        "n": samples.n,
        "p": samples.p,
        "kernel": spec.describe(),
        "epsilons": list(epsilons),
    }
    cov = lip = None
    missing: dict[str, str] = {}
    try:
        cov = covariance_stats(samples, centered=args.centered)
        lip = lipschitz(spec, samples)
        norms = bnd.error_norm_bound(spec.kind, cov, lip, samples.n)
        meta.update(
            {
                "whitened_radius": cov.whitened_radius,
                "cov_lambda_1": cov.lambda_1,
                "cov_lambda_p": cov.lambda_p,
                "cov_gap_1p": cov.gap_1p,
                "lipschitz": lip,
                "error_norm_printed": norms.printed,
                "error_norm_conservative": norms.conservative,
            }
        )
    except DegeneracyError as exc:
        meta["covariance_skipped"] = str(exc)
        missing = dict.fromkeys(("cov", "lip"), str(exc))
    r2 = diag_sup(samples, spec)
    meta["diag_sup_sq"] = r2
    theta, estimated = None, False
    if args.theta is not None:
        theta = args.theta
        if not 0.0 < theta <= 1.0:
            raise ConfigError(f"--theta must lie in (0, 1], got {theta}")
    elif any("theta" in bnd.THEOREMS[t].needs for stat, _ in stats for t in bnd.theorems_for(stat)):
        try:
            theta, estimated = theta_statistic(g, spectrum=spectrum), True
        except (DegeneracyError, DataError) as exc:
            missing["theta"] = str(exc)
    if theta is not None and theta <= 0.0:
        missing["theta"] = "estimated theta is 0; the theta bound is undefined"
        theta = None
    if "theta" in missing:
        meta["theta_skipped"] = missing["theta"]

    x = bnd.BoundInputs(n=samples.n, spectrum=spectrum.eigenvalues, cov=cov, lip=lip, diag_sup_sq=r2,
                        theta=theta, theta_estimated=estimated, kernel=spec.kind, missing=missing)
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
    _write_json(out / "metadata.json", meta)
    if skipped and not args.allow_degenerate:
        listed = "; ".join(f"{key}: {reason}" for key, reason in skipped.items())
        raise DegeneracyError(
            f"{len(skipped)} theorem(s) skipped: {listed} (pass --allow-degenerate to keep going)"
        )

    lines = ["statistic,index,epsilon,theorem,kind,value,stderr,flags"]
    for row in rows:
        flags = list(row.flags) + (["vacuous"] if row.vacuous else [])
        lines.append(
            _csv_line(
                [row.statistic, row.index, _fval(row.epsilon), row.theorem, "bound",
                 _fval(row.raw), "", ";".join(flags)]
            )
        )
    _write(out / "report.csv", "\n".join(lines) + "\n")
    _manifest("bounds", out, None, vars_config(args), {"data": args.data}, ["report.csv", "metadata.json"])
    print(f"wrote {out / 'report.csv'}")
    return 0


def vars_config(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# --- simulate ----------------------------------------------------------------


def preset_runs(name: str, seed: int, trials: int | None, epsilons) -> list[dict]:
    """Built-in experiment presets; returns [{label, mode, config}, ...]."""
    eps = list(epsilons if epsilons is not None else default_epsilons())
    trials = 1000 if trials is None else trials
    kernel = {"family": "gaussian", "sigma": 1.0}
    if name == "example1-fig2-top":
        cfg = {
            "generator": "gaussian", "n": 100, "p": 1, "trials": trials,
            "seed": seed, "kernel": kernel, "epsilons": eps,
            "indices": [1, 2, 3], "statistics": ["eigenvalue"], "bounds": ["adjacent_gap"],
        }
        return [{"label": "", "mode": "concentration", "config": cfg}]
    if name == "example1-fig2-bottom":
        runs = []
        for p in (2, 5):
            cfg = {
                "generator": "gaussian", "n": 100, "p": p, "trials": trials,
                "seed": seed, "kernel": kernel, "epsilons": eps,
                "indices": [1, 2, 3], "statistics": ["eigenvalue"], "bounds": ["covgap_distance"],
            }
            runs.append({"label": f"p{p}", "mode": "concentration", "config": cfg})
        return runs
    if name == "fig1-boxplot":
        cfg = {
            "generator": "gaussian", "n": 100, "p": 5, "trials": trials,
            "seed": seed, "kernel": kernel, "epsilons": eps,
            "indices": list(range(1, 16)), "statistics": ["eigenvalue"], "bounds": [],
        }
        return [{"label": "", "mode": "boxplot", "config": cfg}]
    raise ConfigError(f"unknown preset {name!r} (known: {PRESETS})")


def _runs_from_args(args, seed: int) -> list[dict]:
    epsilons = _parse_eps(args.eps)
    if args.preset:
        return preset_runs(args.preset, seed, args.trials, epsilons)
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DataError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        runs = payload["runs"] if isinstance(payload, dict) and "runs" in payload else [
            {"label": "", "mode": "concentration", "config": payload}
        ]
        for run in runs:
            run.setdefault("label", "")
            run.setdefault("mode", "concentration")
            if args.trials is not None:
                run["config"]["trials"] = args.trials
            if args.seed is not None:
                run["config"]["seed"] = seed
            if args.eps is not None:
                run["config"]["epsilons"] = list(epsilons)
        return runs
    if args.n is None or args.p is None:
        raise ConfigError("simulate needs --preset, --config, or at least --n and --p")
    cfg = {
        "generator": "gaussian", "n": args.n, "p": args.p,
        "trials": 1000 if args.trials is None else args.trials,
        "seed": seed, "kernel": _kernel_dict(args.kernel),
        "epsilons": list(epsilons),
        "indices": list(_parse_indices(args.indices)),
        "statistics": args.statistics.split(","),
        "bounds": [b for b in args.bounds.split(",") if b] if args.bounds else ["adjacent_gap"],
    }
    return [{"label": "", "mode": args.mode, "config": cfg}]


def _kernel_dict(token: str) -> dict:
    spec = kernel_from_cli(token)
    return {"family": spec.name, **spec.params}


def _result_csv(result: ExperimentResult) -> str:
    lines = ["statistic,index,epsilon,theorem,kind,value,stderr,flags"]
    eps = result.config.epsilons
    for s in result.series:
        lines.append(
            _csv_line([s.statistic, s.index, "", "", "mc_mean", _fval(s.mc_mean), _fval(s.mc_se), ""])
        )
        for j, e in enumerate(eps):
            lines.append(
                _csv_line(
                    [s.statistic, s.index, _fval(e), "", "empirical_freq",
                     _fval(s.frequencies[j]), _fval(s.frequency_se[j]), ""]
                )
            )
    for b in result.bound_series:
        base_flags = []
        if b.excluded:
            base_flags.append(f"excluded={b.excluded}")
        for j, e in enumerate(eps):
            for kind, arr in (("bound_mean", b.mean), ("bound_p10", b.p10)):
                v = arr[j]
                flags = list(base_flags)
                if not np.isfinite(v):
                    flags.append("all_excluded")
                elif v >= 1.0:
                    flags.append("vacuous")
                lines.append(
                    _csv_line(
                        [b.statistic, b.index, _fval(e), b.theorem, kind, _fval(v), "", ";".join(flags)]
                    )
                )
    return "\n".join(lines) + "\n"


def _boxplot_csv(result: BoxplotResult) -> str:
    lines = ["statistic,index,epsilon,theorem,kind,value,stderr,flags"]
    names = ("min", "q1", "median", "q3", "max")
    for i, five, iqr, mg in zip(result.indices, result.five_numbers, result.iqrs, result.mean_gaps):
        for name, v in zip(names, five):
            lines.append(_csv_line(["eigenvalue", i, "", "", name, _fval(v), "", ""]))
        lines.append(_csv_line(["eigenvalue", i, "", "", "iqr", _fval(iqr), "", ""]))
        lines.append(_csv_line(["eigenvalue", i, "", "", "mean_gap", _fval(mg), "", ""]))
    lines.append(
        _csv_line(["eigenvalue", "", "", "", "spearman_gap_iqr", _fval(result.spearman_gap_iqr), "", ""])
    )
    return "\n".join(lines) + "\n"


def _result_summary(result: ExperimentResult) -> dict:
    eps = list(result.config.epsilons)
    return {
        "config": result.config.to_dict(),
        "scaling_note": (
            "statistic is eigenvalue of the raw Gram matrix divided by n; "
            "spectral bound inputs (gaps, lambda_1) come from the raw Gram spectrum"
        ),
        "rng": {"master_seed": result.config.seed, "subseeds": list(result.subseeds)},
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
    return {
        "config": result.config.to_dict(),
        "rng": {"master_seed": result.config.seed, "subseeds": list(result.subseeds)},
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
    out = _out_dir(args)
    seed = _resolve_seed(args)
    runs = _runs_from_args(args, seed)
    outputs = []
    summary_runs = []
    svg_inputs = []
    boxplots = []
    for run in runs:
        cfg = ExperimentConfig.from_dict(run["config"])
        label = run["label"]
        suffix = f"_{label}" if label else ""
        if run["mode"] == "boxplot":
            result = boxplot_stats(cfg, workers=args.workers)
            _write(out / f"results{suffix}.csv", _boxplot_csv(result))
            outputs.append(f"results{suffix}.csv")
            summary_runs.append({"label": label, "mode": "boxplot", **_boxplot_summary(result)})
            boxplots.append((label, result))
        else:
            result = run_concentration(cfg, workers=args.workers)
            _write(out / f"results{suffix}.csv", _result_csv(result))
            outputs.append(f"results{suffix}.csv")
            summary_runs.append({"label": label, "mode": "concentration", **_result_summary(result)})
            svg_inputs.append((label, result))
    _write_json(out / "summary.json", {"runs": summary_runs})
    outputs.append("summary.json")
    config_payload = {"runs": [{"label": r["label"], "mode": r["mode"], "config": r["config"]} for r in runs]}
    _write_json(out / "config.json", config_payload)
    outputs.append("config.json")
    if not args.no_svg:
        if svg_inputs:
            _write(out / "plot.svg", _concentration_svg(svg_inputs))
            outputs.append("plot.svg")
        for label, result in boxplots:
            suffix = f"_{label}" if label else ""
            svg = render_boxplot(
                [str(i) for i in result.indices],
                list(result.five_numbers),
                title="Eigenvalue statistic by order",
                xlabel="eigenvalue order",
                ylabel="value",
            )
            _write(out / f"boxplot{suffix}.svg", svg)
            outputs.append(f"boxplot{suffix}.svg")
    inputs = {"config": args.config} if args.config else {}
    _manifest("simulate", out, seed, config_payload, inputs, outputs)
    print(f"wrote {len(outputs)} files to {out}")
    return 0


# --- align -------------------------------------------------------------------


def _cmd_align(args) -> int:
    out = _out_dir(args)
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

    lines = ["statistic,index,epsilon,theorem,kind,value,stderr,flags"]
    for kind, value in (
        ("a_kn", report.a_kn),
        ("theta", report.theta),
        ("c_theta", report.c_theta),
        ("l_mid", report.l_mid),
        ("frob", report.frob),
        ("ratio", report.ratio),
        ("ratio_approx", report.ratio_approx),
    ):
        lines.append(_csv_line(["kta", "", "", "", kind, _fval(value), "", ""]))
    for theorem, values in sorted(report.bounds.items()):
        for e, v in zip(report.epsilons, values):
            flags = "vacuous" if v >= 1.0 else ""
            lines.append(_csv_line(["kta", "", _fval(e), theorem, "bound", _fval(v), "", flags]))
    _write(out / "alignment.csv", "\n".join(lines) + "\n")
    def _jf(v):
        return None if not np.isfinite(v) else float(v)

    payload = {
        "n": samples.n,
        "p": samples.p,
        "kernel": spec.describe(),
        "theta_mode": report.theta_mode,
        "m": samples.n,  # C(theta)'s m is n
        "a_kn": report.a_kn,
        "population_alignment": None,  # not computable from a single sample
        "theta": _jf(report.theta),
        "c_theta": _jf(report.c_theta),
        "l_mid": report.l_mid,
        "frob": report.frob,
        "ratio": _jf(report.ratio),
        "ratio_approx": _jf(report.ratio_approx),
        "epsilons": list(report.epsilons),
        "bounds": report.bounds,
        "skipped": report.skipped,
    }
    _write_json(out / "alignment.json", payload)
    inputs = {"data": args.data}
    if args.labels:
        inputs["labels"] = args.labels
    _manifest("align", out, None, vars_config(args), inputs, ["alignment.csv", "alignment.json"])
    print(f"wrote {out / 'alignment.csv'}")
    return 0


# --- audit -------------------------------------------------------------------


def _cmd_audit(args) -> int:
    out = _out_dir(args)
    seed = _resolve_seed(args)
    cfg = ExperimentConfig(
        n=args.n,
        p=args.p,
        trials=2,  # unused by the oracles; config requires >= 2
        seed=seed,
        kernel=_kernel_dict(args.kernel),
        indices=(args.index,),
        statistics=("eigenvalue",),
        bounds=(),
    )
    table = run_oracles(
        cfg,
        interlacing_matrices=args.interlacing_matrices,
        perturbation_trials=args.oracle_trials,
        expansion_trials=args.expansion_trials,
        index=args.index,
        workers=args.workers,
        zero_perturbation=args.zero_perturbation,
    )
    lines = ["inequality,trials,violations,skipped,max_violation"]
    for row in table.rows:
        lines.append(
            _csv_line([row.name, row.trials, row.violations, row.skipped, _fval(row.max_violation)])
        )
    _write(out / "audit.csv", "\n".join(lines) + "\n")
    _write_json(
        out / "summary.json",
        {
            "config": cfg.to_dict(),
            "oracle_params": {
                "interlacing_matrices": args.interlacing_matrices,
                "perturbation_trials": args.oracle_trials,
                "expansion_trials": args.expansion_trials,
                "index": args.index,
                "zero_perturbation": args.zero_perturbation,
            },
            "rows": [
                {
                    "inequality": r.name,
                    "trials": r.trials,
                    "violations": r.violations,
                    "skipped": r.skipped,
                    "max_violation": r.max_violation,
                }
                for r in table.rows
            ],
        },
    )
    _manifest("audit", out, seed, cfg.to_dict(), {}, ["audit.csv", "summary.json"])
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
