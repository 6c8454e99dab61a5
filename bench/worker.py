"""One benchmark process: imports specbounds, then runs a workload repeatedly.

`run.py` starts this file in a fresh interpreter per run, so the peak
resident memory it reports belongs to one workload alone, and starts it with
`--probe` a few more times to sample set-up time.  The BLAS thread variables
are pinned before numpy is first imported.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --work DIR --result FILE [--small]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_REPS = 3
# Seconds the calibration loop takes on the machine the benchmark was tuned
# on (2-core Intel Xeon VM, single-threaded OpenBLAS); see `calibrate`.
CALIBRATION_REF_S = 0.09
# A run must end within the 180 s the benchmark contract allows, set-up
# probes included; stop starting repetitions after this many seconds.
HARD_LIMIT_S = 120.0


def time_import() -> float:
    """Seconds to import the CLI entry point, which loads the whole package."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    import specbounds.cli  # noqa: F401

    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds for a fixed mix of interpreted scalar math and small LAPACK
    eigensolves, the kinds of work the workloads spend their time on.

    The shared host's speed drifts by up to a quarter within tens of
    seconds, so each reported time is scaled by CALIBRATION_REF_S over the
    calibration time measured next to it.  This code is the benchmark's own
    and no program change can speed it up.
    """
    import math

    import numpy as np

    a = np.random.default_rng(0).standard_normal((100, 100))
    a = a + a.T
    t0 = time.perf_counter()
    for _ in range(160):
        np.linalg.eigvalsh(a)
        s = 0.0
        for i in range(1500):
            s += math.exp(-1e-3 * i)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, small: bool = False,
        workers: int = 1) -> dict:
    """Run workload `name` for `seconds` after one warm-up repetition.

    With `trace`, untraced and traced repetitions alternate, so the traced
    minus the untraced median is the tracing overhead.  Every repetition's
    outputs are checked and hashed; a repetition fails when a CLI call exits
    non-zero or raises, when a check fails, or when its digest differs from
    the first repetition's.  Times are calibrated (see `calibrate`) from the
    calibrations run just before and just after each repetition.
    """
    # imported here, after time_import() has timed the package's first import
    import tracer as tracing
    import workloads as wl
    import specbounds.cli as cli

    sizes = wl.Sizes.small() if small else wl.Sizes.full()
    work.mkdir(parents=True, exist_ok=True)
    wl.prepare(name, seed, sizes, work)
    argvs = wl.invocations(name, seed, sizes, workers)
    tr = tracing.Tracer()
    reps: list[dict] = []

    def rep(traced: bool, cal_before: float) -> float:
        wl.clear_outputs(work)
        problems: list[str] = []
        if traced:
            tr.reset()
            tr.install()
        call = tr.call_cli if traced else cli.main
        t0 = time.perf_counter()
        try:
            for argv in argvs:
                code = call(argv)
                if code != 0:
                    problems.append(f"{argv[0]} exited with code {code}")
                    break
        except Exception as exc:  # a raising CLI call fails the repetition, not the run
            problems.append(f"{argv[0]} raised {exc!r}")
        finally:
            wall = time.perf_counter() - t0
            tr.uninstall()
        cal_after = calibrate()
        scale = CALIBRATION_REF_S / (0.5 * (cal_before + cal_after))
        record = {"traced": traced, "wall_s": wall, "run_s": wall * scale, "digest": None}
        if not problems:
            problems = wl.check(name, sizes, work)
            record["digest"] = wl.digest(work)
            if reps and record["digest"] != reps[0]["digest"]:
                problems.append("outputs differ from the first repetition of this seed")
        if traced:
            record["layers"] = tr.metrics(scale)
            record["self_sum_s"] = tr.self_time_sum()
        record["problems"] = problems
        reps.append(record)
        return cal_after

    cwd = os.getcwd()
    os.chdir(work)  # the CLI sees only relative paths, so manifests match across checkouts
    try:
        start = time.perf_counter()
        cal = rep(False, calibrate())  # warm-up: checked, not timed
        deadline = time.perf_counter() + seconds
        while True:
            cal = rep(False, cal)
            if trace:
                cal = rep(True, cal)
            now = time.perf_counter()
            timed = len(reps) - 1
            if (now >= deadline and timed >= MIN_REPS * (1 + trace)) or now - start > HARD_LIMIT_S:
                break
    finally:
        os.chdir(cwd)

    untraced = [r for r in reps[1:] if not r["traced"]]
    traced = [r for r in reps[1:] if r["traced"]]
    result = {
        "attempted": len(reps),
        "failed": sum(1 for r in reps if r["problems"]),
        "problems": sorted({p for r in reps for p in r["problems"]}),
        "digest": reps[0]["digest"],
        "trials": wl.trials(name, sizes),
        "run_s": [r["run_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "self_sum_s": [r["self_sum_s"] for r in traced],
    }
    if trace:
        layers = [r["layers"] for r in traced]
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - statistics.median(result["run_s"])
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="print calibrated set-up seconds and exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    setup_s = time_import() * CALIBRATION_REF_S / calibrate()
    if args.probe:
        print(repr(setup_s))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work, args.small)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
