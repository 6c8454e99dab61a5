"""Command-line front end.

Subcommands:
  bounds     closed-form bound report for a dataset and kernel
  simulate   seeded Monte Carlo concentration experiments (presets available)
  align      kernel target-alignment report with both bounds
  audit      brute-force oracle suite; violation rates per inequality

Exit codes: 0 ok, else the raised error class's `exit_code` (2 config error,
3 data error, 4 numerical degeneracy), or 2 for an argparse usage error.
Each subcommand checks every flag before it reads a file, so a bad flag is
exit code 2 whatever the data.  Every JSON file goes through `_json`, which
writes a non-finite float as null and hands its text to `_write` as the
encoder's chunks, never joined into one string.

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
import itertools
import json
import math
import os
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bnd
# theta_statistic and covariance_stats go unused here (experiments.sample_inputs
# computes the bound inputs), but the benchmark's tracer patches them by name
from .alignment import kta, theta_statistic  # noqa: F401
from .dataset import covariance_stats, load_csv, load_csv_with_labels, load_labels  # noqa: F401
from .errors import ConfigError, DataError, DegeneracyError, SpecBoundsError
from .experiments import (
    BoxplotResult,
    ExperimentConfig,
    ExperimentResult,
    KNOWN_STATISTICS,
    boxplot_stats,
    check_oracle_counts,
    check_workers,
    default_epsilons,
    run_concentration,
    run_oracles,
    sample_inputs,
)
from .kernels import gram, kernel_config, kernel_from_config
from .spectral import eig_sym, gap_tolerance
from .svgplot import LinePlot, render_boxplot

MODES = ("concentration", "boxplot")
RESULTS_HEADER = "statistic,index,epsilon,theorem,kind,value,stderr,flags"
AUDIT_HEADER = "inequality,trials,violations,skipped,max_violation"

Run = tuple[str, str, ExperimentConfig]  # (label, mode, config) of one simulate run
NAME_MAX = 255  # bytes in one file name on common file systems (ext4, XFS, APFS, NTFS)


# --- small IO helpers --------------------------------------------------------


def _fval(v) -> str:
    """One CSV field: empty for None, the digits of an integer, or the repr
    of a float."""
    if type(v) is float:
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _csv(rows, header: str = RESULTS_HEADER) -> str:
    """CSV text: the header, then one line per row of string fields."""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def _json(obj, non_finite: list[str] | None = None):
    """The strict JSON text of `obj` (nested dicts, lists and tuples) as an
    iterator of chunks, for `_write` to write as they come: the text of
    `json.dumps(obj, indent=2, sort_keys=True)` and a newline, with every
    non-finite float written as null, since JSON has no NaN or Infinity.

    The tree is checked and copied when `_json` is called, not when the
    chunks are read: a value json.dumps would reject is a TypeError here,
    so a write never stops halfway.  The dotted path of each non-finite
    float (a list item by its position) is appended to `non_finite` when
    it is given."""
    nulled = _nulled(obj, "", [] if non_finite is None else non_finite)
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    return itertools.chain(encoder.iterencode(nulled), ("\n",))


def _nulled(obj, where: str, found: list[str]):
    """`obj` with each non-finite float replaced by None and its path appended
    to `found`.  Every value json.dumps would reject is a TypeError, and so
    is a dict key that is not a string, which json.dumps would write as one."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        found.append(where)
        return None
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("JSON object keys must be strings")
        return {k: _nulled(v, f"{where}.{k}" if where else k, found) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(v, f"{where}[{j}]", found) for j, v in enumerate(obj)]
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable (at {where or 'the top'})")


def _write(path: Path, text) -> None:
    """Write `text`, one string or an iterable of string chunks such as
    `_json` returns, to `path` as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def _write_files(out: Path, files: dict) -> None:
    """Write each name -> text (a string or `_json`'s chunks) into `out`,
    creating it first."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write(out / name, text)
    except OSError as exc:
        raise DataError(f"cannot write to {out}: {exc}") from exc


def _sha256(path: str) -> str:
    import hashlib  # loads OpenSSL; only runs that read input files pay for it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_outputs(command: str, args, files: dict, seed, config, inputs: dict) -> None:
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


def _seeded(args, build):
    """(seed, build(seed)) with --seed, or with a generated seed that is
    printed only once `build` has accepted it, so a bad flag exits 2 with
    nothing on stdout."""
    if args.seed is not None:
        return args.seed, build(args.seed)
    import secrets  # only a run without a seed needs it

    seed = secrets.randbits(63)
    built = build(seed)
    print(f"generated seed: {seed}")
    return seed, built


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
                lo, hi = map(int, tok.split(".."))
                if hi < lo:
                    raise ConfigError(f"index range {tok!r} in {text!r} runs backwards")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(tok))
        return tuple(out)
    except ValueError as exc:
        raise ConfigError(f"cannot parse index list {text!r}: {exc}") from exc


# --- bounds ------------------------------------------------------------------

# each statistic with an order is a --stat token alias:order
_STAT_ALIASES = {s.alias: name for name, s in bnd.STATISTICS.items() if s.order}
_STAT_TOKENS = [f"{s.alias}:{s.order}" for s in bnd.STATISTICS.values() if s.order]


def _parse_stats(text: str) -> list[tuple[str, int]]:
    stats = []
    for tok in text.split(","):
        parts = tok.split(":")
        if len(parts) != 2 or parts[0] not in _STAT_ALIASES:
            raise ConfigError(f"cannot parse statistic {tok!r}; expected "
                              f"{', '.join(_STAT_TOKENS[:-1])}, or {_STAT_TOKENS[-1]}")
        try:
            stat = (_STAT_ALIASES[parts[0]], int(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"bad index in statistic {tok!r}") from exc
        if stat[1] < 1:  # an order above n is a data error, found once the data is read
            raise ConfigError(f"statistic {tok!r} needs an order of at least 1")
        if stat in stats:
            raise ConfigError(f"--stat lists {tok!r} more than once")
        stats.append(stat)
    return stats


def _inputs(samples, spec, g, needs, **kw) -> bnd.BoundInputs:
    """`sample_inputs` from the full eigendecomposition of g, which theta reuses."""
    spectrum = eig_sym(g)
    return sample_inputs(samples, spec, g, spectrum.eigenvalues, needs, spectrum=spectrum, **kw)


def _cmd_bounds(args) -> int:
    out = Path(args.out)
    spec = kernel_from_config(kernel_config(args.kernel))
    epsilons = _parse_eps(args.eps)
    stats = _parse_stats(args.stat)
    if args.theta is not None and not 0.0 < args.theta <= 1.0:
        raise ConfigError(f"--theta must lie in (0, 1], got {args.theta}")
    # the covariance, Lipschitz constant and diagonal sup go into the
    # metadata whichever theorems run; a given --theta is not estimated
    needs = bnd.theorem_needs(t for stat, _ in stats for t in bnd.theorems_for(stat)) | {"diag_sup_sq", "cov", "lip"}
    if args.theta is not None:
        needs -= {"theta"}
    samples = load_csv(args.data, header=args.header)
    x = _inputs(samples, spec, gram(samples, spec), needs, centered=args.centered)
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
    non_finite: list[str] = []
    text = _json(meta, non_finite)
    if non_finite:  # list the paths of the values written as null
        meta["non_finite"] = sorted(non_finite)
        text = _json(meta)
    files = {"metadata.json": text}
    if skipped and not args.allow_degenerate:
        _write_files(out, files)
        listed = "; ".join(f"{key}: {reason}" for key, reason in skipped.items())
        raise DegeneracyError(
            f"{len(skipped)} theorem(s) skipped: {listed} (pass --allow-degenerate to keep going)"
        )

    files["report.csv"] = _csv(
        [row.statistic, _fval(row.index), _fval(row.epsilon), row.theorem, "bound", _fval(row.raw), "",
         ";".join(row.flags + (("vacuous",) if row.vacuous else ()))]
        for row in rows
    )
    _write_outputs("bounds", args, files, None, vars(args), {"data": args.data})
    print(f"wrote {out / 'report.csv'}")
    return 0


# --- simulate ----------------------------------------------------------------


# each preset is a run list, read as a --config file's is
PRESETS = {
    "example1-fig2-top": [{"config": {"n": 100, "p": 1}}],
    "example1-fig2-bottom": [{"label": f"p{p}", "config": {"n": 100, "p": p, "bounds": ["covgap_distance"]}}
                             for p in (2, 5)],
    "fig1-boxplot": [{"mode": "boxplot",
                      "config": {"n": 100, "p": 5, "indices": list(range(1, 16)), "bounds": []}}],
}
# the flags that set a run's config fields, each with its argparse arguments
RUN_FLAGS = {
    "n": {"type": int},
    "p": {"type": int},
    "kernel": {"type": kernel_config, "help": "gaussian[:SIGMA] | linear | polynomial[:D[:C]]"},
    "indices": {"type": _parse_indices, "help": "comma list, ranges allowed (1..15)"},
    "statistics": {"type": lambda text: text.split(","), "help": f"comma list of {', '.join(KNOWN_STATISTICS)}"},
    "bounds": {"type": lambda text: [b for b in text.split(",") if b]},  # an empty --bounds runs no bound
}


def _load_config(path: str):
    """The run list of a --config file: its "runs", or its one config."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return payload["runs"] if isinstance(payload, dict) and "runs" in payload else [{"config": payload}]


def _runs(runs, source: str, overrides: dict) -> list[Run]:
    """The runs of a run list [{"label", "mode", "config"}, ...], each config with
    `overrides` applied: presets, --config files and the flags all end here."""
    if not isinstance(runs, list) or not all(isinstance(r, dict) and "config" in r for r in runs):
        raise ConfigError(f'{source}: "runs" must be a list of {{"label", "mode", "config"}} objects')
    if not runs:
        raise ConfigError(f'{source}: "runs" is empty')
    out = []
    for run in runs:
        unknown = sorted(set(run) - {"label", "mode", "config"})
        if unknown:
            raise ConfigError(f"{source}: unknown run key(s) {unknown}")
        mode = run.get("mode", "concentration")
        if mode not in MODES:
            raise ConfigError(f"{source}: unknown mode {mode!r} (known: {MODES})")
        config = run["config"]
        if isinstance(config, dict):
            config = {**config, **overrides}
            if mode == "boxplot":  # checked before the defaults fill in the keys the config leaves out
                named = config.get("statistics")  # from_dict rejects a value that is not a list
                others = [s for s in named if s != "eigenvalue"] if isinstance(named, list) else []
                if others:
                    raise ConfigError(f"{source}: a boxplot run reads only the eigenvalue statistic, got {others}")
                if config.get("bounds"):
                    raise ConfigError(f"{source}: a boxplot run evaluates no bound, got {config['bounds']}")
        label = run.get("label", "")
        if not isinstance(label, str):
            raise ConfigError(f"{source}: run label must be a string, got {label!r}")
        if label in (".", "..") or any(c in label for c in "/\\\0"):
            raise ConfigError(f"{source}: run label {label!r} is not a file-name part (results_<label>.csv)")
        longest = len(f"results_{label}.csv".encode("utf-8"))  # as long as boxplot_<label>.svg
        if longest > NAME_MAX:
            raise ConfigError(f"{source}: run label {label[:20]!r}... makes a {longest}-byte file name "
                              f"(results_<label>.csv); the limit is {NAME_MAX} bytes")
        if any(label == other for other, _, _ in out):
            raise ConfigError(f"{source}: run label {label!r} is used more than once")
        out.append((label, mode, ExperimentConfig.from_dict(config)))
    return out


def _runs_from_args(args, seed: int | None) -> list[Run]:
    eps = None if args.eps is None else _parse_eps(args.eps)
    overrides = {k: v for k, v in {"trials": args.trials, "seed": seed, "epsilons": eps}.items() if v is not None}
    given = [name for name in (*RUN_FLAGS, "mode") if getattr(args, name) is not None]
    if args.preset or args.config:
        if given:
            raise ConfigError(f"--{', --'.join(given)} cannot be combined with --preset or --config")
        if args.preset:
            return _runs(PRESETS[args.preset], f"preset {args.preset}", overrides)
        return _runs(_load_config(args.config), f"config {args.config}", overrides)
    if args.n is None or args.p is None:
        raise ConfigError("simulate needs --preset, --config, or at least --n and --p")
    run = {"config": {name: getattr(args, name) for name in given if name != "mode"}}
    if args.mode is not None:
        run["mode"] = args.mode
    return _runs([run], "simulate flags", overrides)


def _result_csv(result: ExperimentResult) -> str:
    eps = result.config.epsilons
    rows = []
    for s in result.series:
        index = _fval(s.index)
        rows.append([s.statistic, index, "", "", "mc_mean", _fval(s.mc_mean), _fval(s.mc_se), ""])
        rows.extend(
            [s.statistic, index, _fval(e), "", "empirical_freq", _fval(f), _fval(se), ""]
            for e, f, se in zip(eps, s.frequencies.tolist(), s.frequency_se.tolist())
        )
    for b in result.bound_series:
        excluded = [f"excluded={b.excluded}"] if b.excluded else []
        index = _fval(b.index)
        for e, mean, p10 in zip(eps, b.mean.tolist(), b.p10.tolist()):
            for kind, v in (("bound_mean", mean), ("bound_p10", p10)):
                if not math.isfinite(v):
                    flags = excluded + ["all_excluded"]
                elif v >= 1.0:
                    flags = excluded + ["vacuous"]
                else:
                    flags = excluded
                rows.append([b.statistic, index, _fval(e), b.theorem, kind, _fval(v), "", ";".join(flags)])
    return _csv(rows)


def _boxplot_csv(result: BoxplotResult) -> str:
    rows = []
    names = ("min", "q1", "median", "q3", "max", "iqr", "mean_gap")
    for i, five, iqr, mg in zip(result.indices, result.five_numbers, result.iqrs, result.mean_gaps):
        rows.extend(
            ["eigenvalue", _fval(i), "", "", name, _fval(v), "", ""] for name, v in zip(names, (*five, iqr, mg))
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
                    {"epsilon": e, "mean": m, "p10": q}
                    for e, m, q in zip(eps, b.mean.tolist(), b.p10.tolist())
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


def _series_tag(statistic: str, index: int | None) -> str:
    """A plot series' statistic as its --stat token (eig:2, topk:2), or kta."""
    alias = bnd.STATISTICS[statistic].alias
    return alias if index is None else f"{alias}:{index}"


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
            plot.add(f"{prefix}freq {_series_tag(s.statistic, s.index)}", eps, list(s.frequencies))
        for k, b in enumerate(result.bound_series):
            ys = [min(v, 1.0) if np.isfinite(v) else float("nan") for v in b.mean]
            plot.add(f"{prefix}{b.theorem} {_series_tag(b.statistic, b.index)}", eps, ys,
                     marker=markers[k % len(markers)])
    return plot.render()


def _cmd_simulate(args) -> int:
    check_workers(args.workers)
    # a --config run takes each run's seed from its file unless --seed is given
    if args.config:
        seed, runs = args.seed, _runs_from_args(args, args.seed)
    else:
        seed, runs = _seeded(args, lambda s: _runs_from_args(args, s))
    files: dict = {}
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
    spec = kernel_from_config(kernel_config(args.kernel))
    epsilons = _parse_eps(args.eps)
    if not (args.label_col or args.labels):
        raise ConfigError("labels required: pass --labels FILE or --label-col NAME")
    if args.label_col:
        samples, labels = load_csv_with_labels(args.data, args.label_col)
    else:
        samples = load_csv(args.data, header=args.header)
        labels = load_labels(args.labels)
    g = gram(samples, spec)
    a_kn = kta(g, labels)
    if samples.n < 3:  # each kta theorem reads L or theta, and both need n >= 3
        raise DataError("need n >= 3 eigenvalues for the middle-spectrum norm")
    x = _inputs(samples, spec, g, bnd.theorem_needs(bnd.theorems_for("kta")), a_kn=a_kn)
    report = bnd.evaluate_bounds(x, "kta", None, epsilons)
    bounds: dict[str, list[float]] = {}
    for row in report.rows:
        bounds.setdefault(row.theorem, []).append(row.raw)

    statistics = {
        "a_kn": a_kn,
        "theta": math.nan if x.theta is None else x.theta,
        "c_theta": report.metadata.get("c_theta", math.nan),
        "l_mid": x.l_mid,
        "frob": x.frob,
        "ratio": x.frob / x.l_mid if x.l_mid > gap_tolerance(float(x.spectrum[0])) else math.inf,
        "ratio_approx": x.ratio,
    }
    rows = [["kta", "", "", "", kind, _fval(value), "", ""] for kind, value in statistics.items()]
    rows.extend(  # theorems by name; the stable sort keeps each one's epsilons in order
        ["kta", "", _fval(row.epsilon), row.theorem, "bound", _fval(row.raw), "", "vacuous" if row.vacuous else ""]
        for row in sorted(report.rows, key=lambda row: row.theorem)
    )

    payload = {
        "n": samples.n,
        "p": samples.p,
        "kernel": spec.describe(),
        "m": samples.n,  # C(theta)'s m is n
        "population_alignment": None,  # not computable from a single sample
        **statistics,
        "epsilons": list(epsilons),
        "bounds": bounds,
        "skipped": report.skipped,
    }
    files = {"alignment.csv": _csv(rows), "alignment.json": _json(payload)}
    inputs = {"data": args.data}
    if args.labels:
        inputs["labels"] = args.labels
    _write_outputs("align", args, files, None, vars(args), inputs)
    print(f"wrote {Path(args.out) / 'alignment.csv'}")
    return 0


# --- audit -------------------------------------------------------------------


def _cmd_audit(args) -> int:
    kernel = {} if args.kernel is None else {"kernel": args.kernel}
    check_oracle_counts(args.interlacing_matrices, args.oracle_trials, args.expansion_trials)
    check_workers(args.workers)
    # trials is unused by the oracles; the config requires at least 2
    seed, cfg = _seeded(args, lambda s: ExperimentConfig.from_dict(
        {"n": args.n, "p": args.p, "trials": 2, "seed": s, **kernel, "indices": [args.index], "bounds": []}))
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
        "audit.csv": _csv(([row[0], *map(_fval, row[1:])] for row in rows), AUDIT_HEADER),
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


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call, so nothing may mutate it.  It binds no command function: `main`
    looks up `_cmd_<command>` when it runs."""
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
    p.add_argument("--kernel", default="gaussian:1.0", help=RUN_FLAGS["kernel"]["help"])
    p.add_argument("--stat", default="eig:1", help=f"comma list of {', '.join(_STAT_TOKENS)}")
    p.add_argument("--eps", default=None, help="comma list of epsilons (default: 40 log-spaced in [1e-4, 1])")
    p.add_argument("--theta", type=float, default=None, help="use this theta instead of estimating it")
    p.add_argument("--allow-degenerate", action="store_true",
                   help="report around degenerate theorems instead of exiting 4")
    p.add_argument("--out", default="specbounds_out", help="output directory")

    p = sub.add_parser("simulate", help="seeded Monte Carlo concentration experiments")
    runs = p.add_mutually_exclusive_group()
    runs.add_argument("--preset", choices=PRESETS, default=None)
    runs.add_argument("--config", default=None, help="JSON experiment config (single or {runs: [...]})")
    # no run field has a default here: ExperimentConfig holds them
    for name, flag in RUN_FLAGS.items():
        p.add_argument(f"--{name}", default=None, **flag)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--mode", default=None, choices=MODES)
    p.add_argument("--eps", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-svg", action="store_true")
    p.add_argument("--out", default="specbounds_out")

    p = sub.add_parser("align", help="kernel target-alignment report")
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    labels = p.add_mutually_exclusive_group()
    labels.add_argument("--labels", default=None, help="one-column CSV of +/-1 labels")
    labels.add_argument("--label-col", default=None, help="label column name inside --data (implies header)")
    p.add_argument("--kernel", default="gaussian:1.0", help=RUN_FLAGS["kernel"]["help"])
    p.add_argument("--eps", default=None)
    p.add_argument("--out", default="specbounds_out")

    p = sub.add_parser("audit", help="brute-force oracle suite")
    for name, default in (("n", 100), ("p", 5), ("kernel", None)):
        p.add_argument(f"--{name}", default=default, **RUN_FLAGS[name])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle-trials", type=int, default=500, help="replace-one perturbation trials")
    p.add_argument("--interlacing-matrices", type=int, default=200)
    p.add_argument("--expansion-trials", type=int, default=50)
    p.add_argument("--index", type=int, default=1, help="eigen-order checked by the expansion oracles")
    p.add_argument("--zero-perturbation", action="store_true",
                   help="replace each sample with itself (smoke test: zero violations)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="specbounds_out")
    return parser


def main(argv=None) -> int:
    try:  # parsing too: the run flags' parsers raise ConfigError
        args = build_parser().parse_args(argv)
        out = Path(args.out)
        base = next(p for p in (out, *out.parents) if os.path.exists(p))
        if not os.path.isdir(base):  # then no write can succeed: stop before any work
            raise ConfigError(f"--out {args.out} exists and is not a directory" if base == out
                              else f"--out {args.out} is below {base}, which is not a directory")
        return globals()[f"_cmd_{args.command}"](args)
    except SpecBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
