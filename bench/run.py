"""specbounds benchmark: seeded CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload mc-bounds --seed 1 --seconds 15 --trace 0

Each run makes its inputs from `--seed`, samples set-up time in a few fresh
interpreters, then runs the workload in one more fresh interpreter (see
worker.py) for `--seconds` seconds after a warm-up repetition.  The CLI
calls run back to back with `--workers 1` and single-threaded BLAS: a closed
loop with one caller.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced repetitions and reports per-layer metrics (see tracer.py).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit, the failed fraction, the sha256 of the deterministic outputs
and the software and machine the run used.

Workloads, and why each is in the benchmark:
  mc-bounds     simulate with six bounds over the 40-point epsilon grid:
                dominated by 720 scalar bound evaluations per trial and
                per-trial overhead; never calls theta.
  fig1-boxplot  the eigenvalue boxplot preset with SVG output: Gram build
                plus eigvalsh, no bounds and no theta, so it is the floor
                that bound-evaluation changes must leave alone.
  audit         the brute-force oracle suite: eig_sym with eigenvectors,
                per-drop Python loops and replace-one perturbations.
  theta-single  `bounds` and `align` on one seeded n=300 dataset written as
                CSV: the only workload that runs theta_statistic (600
                leave-one-out eigensolves), CSV loading and evaluate_bounds.

Set-up time is the import of `specbounds.cli` in a fresh interpreter; the
reported value is the median over the probes and the workload process.

Every reported time is calibrated: the wall time is multiplied by a
reference time over the time a fixed calibration loop took right next to it
(worker.calibrate).  The shared host this was tuned on changes speed by up
to a quarter within tens of seconds; calibrating cut the spread of `run_s`
across runs from 10-16% to 3-5%.  The uncalibrated median is printed too.

To print the end-to-end metrics of every workload:

    for w in mc-bounds fig1-boxplot audit theta-single; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0 | sed -n 1,5p
    done
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-bounds", "fig1-boxplot", "audit", "theta-single")
PROBES = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ms_per_trial": "ms",
}

# per-layer metrics of a traced run (tracer.py); `.s` and `_s` are self
# times except the oracle sections, which are inclusive
LAYER_UNITS = {
    "bounds.evals": "count",
    "bounds.s": "s",
    "bounds.excluded_frac": "ratio",
    "experiments.trials": "count",
    "experiments.self_s": "s",
    "experiments.self_ms_per_trial": "ms",
    "experiments.oracle_interlacing_s": "s",
    "experiments.oracle_perturbation_s": "s",
    "experiments.oracle_expansion_s": "s",
    "kernels.gram.calls": "count",
    "kernels.gram.s": "s",
    "kernels.gram.bytes": "B",
    "spectral.eigvalsh.calls": "count",
    "spectral.eigvalsh.s": "s",
    "spectral.eigvalsh.flops": "flop",
    "spectral.eig_sym.calls": "count",
    "spectral.eig_sym.s": "s",
    "spectral.eig_sym.flops": "flop",
    "spectral.perturb_replace.calls": "count",
    "spectral.perturb_replace.s": "s",
    "alignment.theta.calls": "count",
    "alignment.theta.s": "s",
    "alignment.theta.eigensolves": "count",
    "dataset.covariance_stats.calls": "count",
    "dataset.covariance_stats.s": "s",
    "dataset.whitened_norm.calls": "count",
    "dataset.whitened_norm.s": "s",
    "dataset.load_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "svgplot.render_s": "s",
    "trace.overhead_s": "s",
}


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specbounds benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "specbounds" / "cli.py").is_file():
        print(f"error: no specbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    env = _child_env()
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # one extra probe first, whose time (cold caches, bytecode compilation)
    # is not reported
    setup = []
    for _ in range((1 if args.small else PROBES) + 1):
        probe = _worker(["--probe"], env, timeout=60)
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            print("error: specbounds failed to import", file=sys.stderr)
            return 2
        setup.append(float(probe.stdout.strip().splitlines()[-1]))
    setup = setup[1:]

    result_file = work.parent / f"{args.workload}.result.json"
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--work", str(work), "--result", str(result_file)]
    if args.small:
        child_args.append("--small")
    try:
        child = _worker(child_args, env, timeout=RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"error: benchmark worker exited with code {child.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text(encoding="utf-8"))
    setup.append(res["setup_s"])

    if args.trace:
        units = LAYER_UNITS
        metrics = res["layers"]
    else:
        units = END_TO_END_UNITS
        run_s = statistics.median(res["run_s"])
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "ms_per_trial": 1e3 * run_s / res["trials"],
        }

    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':36s} {res['failed'] / res['attempted']:14.6g} 1"
          f"   ({res['failed']} of {res['attempted']} repetitions)")
    for problem in res["problems"]:
        print(f"problem: {problem}")
    print(f"repetitions: untraced {len(res['run_s'])}, traced {len(res['traced_wall_s'])};"
          f" median uncalibrated wall {statistics.median(res['wall_s']):.6g} s")
    print(f"digest {args.workload} seed={args.seed}: {res['digest']}")
    print("env: " + json.dumps({"git_sha": _git_sha(), **res["env"]}, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
