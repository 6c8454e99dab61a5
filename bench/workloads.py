"""The benchmark's workloads: CLI invocations, seeded inputs and output checks.

Each workload is a fixed list of `specbounds` CLI invocations that run back
to back in one process (a closed loop with one caller).  Every path handed to
the CLI is relative to the workload's working directory, so the manifests,
which embed `--data` and `--out`, hash the same in every checkout.

Imported by the worker only after `specbounds` has been imported and timed,
so importing numpy here costs nothing that set-up time does not already
count.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Files whose bytes are a pure function of the inputs and the seed.  SVG
# plots are deterministic too but are left out, as in the manifest contract.
DETERMINISTIC_PATTERNS = (
    "results*.csv",
    "summary.json",
    "config.json",
    "audit.csv",
    "report.csv",
    "metadata.json",
    "alignment.*",
    "manifest.json",
)

# Audit rows that are theorems about exact arithmetic (up to a tolerance):
# a violation there is a defect, not data.
MUST_HOLD = ("interlacing", "eigenvalue_stability", "perturbation_norm_conservative")

MC_BOUNDS = "adjacent_gap,topk_gap,tail_gap,covgap_distance,covgap_second_order,covgap_second_order_alt"
THETA_STATS = "eig:1,eig:2,topk:2,tail:2,eigvec:1"


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload run; `full()` is what the benchmark measures."""

    mc_trials: int
    boxplot_trials: int
    audit_n: int
    audit_interlacing: int
    audit_perturbation: int
    audit_expansion: int
    theta_n: int

    @classmethod
    def full(cls) -> "Sizes":
        # mc-bounds and the audit use the paper's sizes; the boxplot doubles
        # the preset's 1000 trials so one repetition is long enough to time.
        return cls(1000, 2000, 100, 200, 500, 50, 300)

    @classmethod
    def small(cls) -> "Sizes":
        # the smallest counts the CLI accepts, for the self-test
        return cls(12, 12, 20, 100, 100, 3, 30)


P = 5  # feature dimension of every workload, as in the paper's figures


def invocations(name: str, seed: int, sizes: Sizes, workers: int = 1) -> list[list[str]]:
    """The CLI argument lists one repetition of workload `name` runs."""
    w = ["--workers", str(workers)]
    if name == "mc-bounds":
        return [[
            "simulate", "--n", "100", "--p", str(P), "--kernel", "gaussian:1.0",
            "--statistics", "eigenvalue,topk_sum,tail_sum", "--indices", "1..3",
            "--bounds", MC_BOUNDS, "--trials", str(sizes.mc_trials),
            "--seed", str(seed), "--no-svg", "--out", "out", *w,
        ]]
    if name == "fig1-boxplot":
        return [[
            "simulate", "--preset", "fig1-boxplot", "--trials", str(sizes.boxplot_trials),
            "--seed", str(seed), "--out", "out", *w,
        ]]
    if name == "audit":
        return [[
            "audit", "--n", str(sizes.audit_n), "--p", str(P),
            "--interlacing-matrices", str(sizes.audit_interlacing),
            "--oracle-trials", str(sizes.audit_perturbation),
            "--expansion-trials", str(sizes.audit_expansion),
            "--seed", str(seed), "--out", "out", *w,
        ]]
    if name == "theta-single":
        # single-process commands: --workers does not apply
        return [
            ["bounds", "--data", "data.csv", "--stat", THETA_STATS, "--out", "out_bounds"],
            ["align", "--data", "data.csv", "--labels", "labels.csv", "--out", "out_align"],
        ]
    raise KeyError(name)


def trials(name: str, sizes: Sizes) -> int:
    """Units of work `ms_per_trial` divides by: Monte Carlo or oracle trials,
    and for theta-single the one dataset."""
    return {
        "mc-bounds": sizes.mc_trials,
        "fig1-boxplot": sizes.boxplot_trials,
        "audit": sizes.audit_interlacing + sizes.audit_perturbation + sizes.audit_expansion,
        "theta-single": 1,
    }[name]


def prepare(name: str, seed: int, sizes: Sizes, work: Path) -> None:
    """Write the workload's input files into `work` (theta-single only).

    Values are written with `repr`, which round-trips a float exactly, so
    the CLI loads the very samples generated here.
    """
    if name != "theta-single":
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((sizes.theta_n, P))
    y = rng.choice([-1, 1], size=sizes.theta_n)
    data = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x)
    (work / "data.csv").write_text(data, encoding="utf-8")
    (work / "labels.csv").write_text("".join(f"{int(v)}\n" for v in y), encoding="utf-8")
    back = np.array([[float(t) for t in line.split(",")] for line in data.splitlines()])
    if not np.array_equal(back, x):
        raise RuntimeError("generated samples do not round-trip through CSV")


def clear_outputs(work: Path) -> None:
    for d in work.glob("out*"):
        shutil.rmtree(d)


def digest(work: Path) -> str:
    """sha256 over the names and bytes of every deterministic output file."""
    h = hashlib.sha256()
    files = sorted(
        {p for d in work.glob("out*") for pat in DETERMINISTIC_PATTERNS for p in d.glob(pat)}
    )
    for p in files:
        h.update(p.relative_to(work).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(name: str, sizes: Sizes, work: Path) -> list[str]:
    """Problems found in one repetition's outputs; empty when they are correct."""
    try:
        return {
            "mc-bounds": _check_mc,
            "fig1-boxplot": _check_boxplot,
            "audit": _check_audit,
            "theta-single": _check_theta,
        }[name](sizes, work)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_mc(sizes: Sizes, work: Path) -> list[str]:
    run = _load(work / "out" / "summary.json")["runs"][0]
    problems = []
    if len(run["statistics"]) != 9 or len(run["bounds"]) != 18:
        problems.append("expected 9 statistic series and 18 bound series")
    for s in run["statistics"]:
        freqs = [f["value"] for f in s["frequencies"]]
        if len(freqs) != 40 or any(not 0.0 <= f <= 1.0 for f in freqs):
            problems.append(f"{s['statistic']}:{s['index']}: frequencies outside [0, 1]")
        if any(b > a for a, b in zip(freqs, freqs[1:])):
            problems.append(f"{s['statistic']}:{s['index']}: frequency grows with epsilon")
    eig_means = [s["mc_mean"] for s in run["statistics"] if s["statistic"] == "eigenvalue"]
    if eig_means != sorted(eig_means, reverse=True):
        problems.append("mean eigenvalues are not in descending order")
    for b in run["bounds"]:
        if not 0 <= b["excluded"] <= sizes.mc_trials:
            problems.append(f"{b['theorem']}: excluded count out of range")
        if any(v["mean"] is not None and not v["mean"] >= 0.0 for v in b["values"]):
            problems.append(f"{b['theorem']}: negative or NaN bound mean")
    return problems


def _check_boxplot(sizes: Sizes, work: Path) -> list[str]:
    box = _load(work / "out" / "summary.json")["runs"][0]["boxplot"]
    problems = []
    if box["indices"] != list(range(1, 16)):
        problems.append("expected eigen-orders 1..15")
    for i, five in zip(box["indices"], box["five_numbers"]):
        if five != sorted(five):
            problems.append(f"order {i}: five-number summary is not ordered")
    medians = [f[2] for f in box["five_numbers"]]
    if medians != sorted(medians, reverse=True):
        problems.append("median eigenvalues are not in descending order")
    if not -1.0 <= box["spearman_gap_iqr"] <= 1.0:
        problems.append("Spearman correlation outside [-1, 1]")
    if not (work / "out" / "boxplot.svg").is_file():
        problems.append("boxplot.svg missing")
    return problems


def _check_audit(sizes: Sizes, work: Path) -> list[str]:
    rows = {r["inequality"]: r for r in _load(work / "out" / "summary.json")["rows"]}
    problems = []
    if len(rows) != 7:
        problems.append(f"expected 7 oracle rows, got {len(rows)}")
    for name in MUST_HOLD:
        r = rows[name]
        if r["trials"] <= 0 or r["violations"] != 0:
            problems.append(f"{name}: {r['violations']} violations in {r['trials']} trials")
    if rows["interlacing"]["trials"] != sizes.audit_interlacing:
        problems.append("interlacing ran the wrong number of matrices")
    return problems


def _check_theta(sizes: Sizes, work: Path) -> list[str]:
    problems = []
    meta = _load(work / "out_bounds" / "metadata.json")
    align = _load(work / "out_align" / "alignment.json")
    if "theta_skipped" in meta or align["skipped"]:
        problems.append("theta or an alignment bound was skipped")
    theta_b = meta["statistics"]["eigenvalue:1"]["theta"]
    theta_a = align["theta"]
    # theta is a ratio of eigenvalues, so the 1/n scaling of `bounds` and
    # the raw scaling of `align` must agree up to rounding
    if not 0.0 < theta_a <= 1.0 or not math.isclose(theta_b, theta_a, rel_tol=1e-9):
        problems.append(f"theta disagrees: bounds {theta_b!r}, align {theta_a!r}")
    # kernel target-alignment, recomputed independently from the inputs
    x = np.loadtxt(work / "data.csv", delimiter=",")
    y = np.loadtxt(work / "labels.csv")
    sq = np.sum(x * x, axis=1)
    k = np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0))
    a_kn = float(y @ k @ y) / (len(y) * float(np.linalg.norm(k)))
    if not math.isclose(align["a_kn"], a_kn, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"alignment {align['a_kn']!r} != recomputed {a_kn!r}")
    lines = (work / "out_bounds" / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    seen = {(f[0], f[1], f[3]) for f in (line.split(",") for line in lines)}
    for want in (("eigenvalue", "1", "theta_top"), ("topk_sum", "2", "topk_gap"),
                 ("tail_sum", "2", "tail_gap"), ("eigenvector", "1", "eigvec_uniform")):
        if want not in seen:
            problems.append(f"report.csv has no {':'.join(want)} rows")
    return problems
