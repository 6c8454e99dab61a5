"""Per-layer tracing of specbounds from outside the program.

`Tracer.install()` replaces public functions with timing wrappers at the
names their callers look up at call time, and `uninstall()` puts the
originals back.  `cli`, `experiments`, `spectral` and `alignment` bind
`gram`, `eig_sym`, `theta_statistic` and `covariance_stats` with
`from ... import`, so those names are patched in the importing module; numpy's
`eigvalsh` and the `bounds.bound_*` functions are looked up as attributes and
are patched there.  Tracing needs `--workers 1`: a wrapper cannot be pickled
under the name of the function it replaces.

Spans stay in memory.  A span's self time is its duration minus the time of
the spans it encloses, so the self times of one repetition sum to no more
than its wall time.  The scalar bound functions run 720 times per Monte Carlo
trial, and two clock reads cost about as much as one call, so every call is
counted but only every BOUND_SAMPLE_EVERY-th is timed; its time, scaled up,
stands for the calls in between.  The period is prime, so it does not lock
onto the 40-point epsilon grid.

Operation counts that are labelled computed are derived from array shapes,
not measured: symmetric eigenvalues take 4/3 n^3 flops, eigenvalues with
eigenvectors 9 n^3 (Golub and Van Loan's counts), and `eig_sym` adds two
n x n products for its orthonormality and reconstruction checks (2 n^3 each).
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import numpy as np

import specbounds.alignment as alignment
import specbounds.bounds as bounds
import specbounds.cli as cli
import specbounds.experiments as experiments
import specbounds.spectral as spectral
import specbounds.svgplot as svgplot

EIGVALSH_FLOPS = 4.0 / 3.0
EIG_SYM_FLOPS = 9.0 + 2.0 + 2.0
BOUND_SAMPLE_EVERY = 31

BOUND_FUNCTIONS = (
    "bound_trace_uniform",
    "bound_theta",
    "bound_gap",
    "bound_topk_sum",
    "bound_tail_sum",
    "bound_distance",
    "bound_inner",
    "bound_second_order",
    "bound_eigvec_pointwise",
    "bound_eigvec_uniform",
)

ORACLES = {
    "_interlacing_trial": "experiments.oracle_interlacing",
    "_perturbation_trial": "experiments.oracle_perturbation",
    "_expansion_trial": "experiments.oracle_expansion",
}


class Tracer:
    """Spans and counts of one traced repetition; `reset()` between repetitions."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.stack: list[list[float]] = []   # child time of each open span
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()   # computed and derived counts
        self.bound_evals = [0]
        self.theta_depth = 0

    def reset(self) -> None:
        # cleared in place: the installed wrappers hold these containers
        for container in (self.stack, self.self_s, self.total_s, self.calls, self.counts):
            container.clear()
        self.bound_evals[0] = 0
        self.theta_depth = 0

    # --- wrappers ----------------------------------------------------------

    def span(self, key: str, fn, before=None, after=None):
        """Wrap `fn` in a span; `before(args)` and `after(args, result)` add counts."""
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[key] += dt - frame[0]
                total_s[key] += dt
                calls[key] += 1
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _bound(self, fn):
        stack, self_s, evals = self.stack, self.self_s, self.bound_evals
        clock, every = time.perf_counter, BOUND_SAMPLE_EVERY

        # every caller passes the bound's arguments by position
        @functools.wraps(fn)
        def wrapper(*args):
            n = evals[0] = evals[0] + 1
            if n % every:
                return fn(*args)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = every * (clock() - t0)
                self_s["bounds"] += dt
                stack[-1][0] += dt

        return wrapper

    # --- computed counts ---------------------------------------------------

    def _gram_bytes(self, args) -> None:
        s = args[0]
        self.counts["kernels.gram.bytes"] += 8 * (s.n * s.p + s.n * s.n)

    def _eigvalsh_ops(self, args) -> None:
        a = np.asarray(args[0])
        m = a.shape[-1]
        batch = a.size // (m * m) if m else 0
        self.counts["spectral.eigvalsh.flops"] += batch * EIGVALSH_FLOPS * m**3
        if self.theta_depth:
            self.counts["alignment.theta.eigensolves"] += batch

    def _eig_sym_ops(self, args) -> None:
        g = args[0]
        n = (g.entries if hasattr(g, "entries") else np.asarray(g)).shape[0]
        self.counts["spectral.eig_sym.flops"] += EIG_SYM_FLOPS * n**3

    def _bytes_written(self, args, _result) -> None:
        self.counts["cli.bytes_written"] += os.path.getsize(args[0])

    def _bound_pairs(self, _args, result) -> None:
        self.counts["bounds.pairs"] += len(result.bound_series) * result.config.trials
        self.counts["bounds.excluded"] += sum(b.excluded for b in result.bound_series)

    def _trial(self, _args) -> None:
        self.counts["experiments.trials"] += 1

    def _theta(self, fn):
        inner = self.span("alignment.theta", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.theta_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.theta_depth -= 1

        return wrapper

    # --- installation ------------------------------------------------------

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        span = self.span
        p = self._patch
        p(cli, "_write", lambda f: span("cli.write", f, after=self._bytes_written))
        p(cli, "render_boxplot", lambda f: span("svgplot.render", f))
        p(svgplot.LinePlot, "render", lambda f: span("svgplot.render", f))
        p(cli, "run_concentration", lambda f: span("experiments", f, after=self._bound_pairs))
        p(cli, "boxplot_stats", lambda f: span("experiments", f))
        p(cli, "run_oracles", lambda f: span("experiments", f))
        for name in ("_concentration_trial", "_boxplot_trial"):
            p(experiments, name, lambda f: span("experiments", f, before=self._trial))
        for name, key in ORACLES.items():
            p(experiments, name, lambda f, k=key: span(k, f, before=self._trial))
        for mod in (cli, experiments, spectral):
            p(mod, "gram", lambda f: span("kernels.gram", f, before=self._gram_bytes))
        p(np.linalg, "eigvalsh", lambda f: span("spectral.eigvalsh", f, before=self._eigvalsh_ops))
        for mod in (cli, experiments, alignment):
            p(mod, "eig_sym", lambda f: span("spectral.eig_sym", f, before=self._eig_sym_ops))
        p(experiments, "perturb_replace", lambda f: span("spectral.perturb_replace", f))
        for mod in (cli, experiments, alignment):
            p(mod, "theta_statistic", self._theta)
        for mod in (cli, experiments):
            p(mod, "covariance_stats", lambda f: span("dataset.covariance_stats", f))
        p(experiments, "whitened_norm", lambda f: span("dataset.whitened_norm", f))
        for name in ("load_csv", "load_labels", "load_csv_with_labels"):
            p(cli, name, lambda f: span("dataset.load", f))
        p(bounds, "evaluate_bounds", lambda f: span("bounds", f))
        for name in BOUND_FUNCTIONS:
            p(bounds, name, self._bound)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # --- results -----------------------------------------------------------

    def call_cli(self, argv: list[str]) -> int:
        """Run one CLI invocation as the root span `cli`."""
        return self.span("cli", cli.main)(argv)

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the repetition traced since the last reset,
        with every time multiplied by `scale`."""
        s = defaultdict(float, {key: scale * v for key, v in self.self_s.items()})
        t = defaultdict(float, {key: scale * v for key, v in self.total_s.items()})
        c, k = self.calls, self.counts
        trials = k["experiments.trials"]
        experiments_self = s["experiments"] + sum(s[key] for key in ORACLES.values())
        return {
            "bounds.evals": self.bound_evals[0],
            "bounds.s": s["bounds"],
            "bounds.excluded_frac": k["bounds.excluded"] / k["bounds.pairs"] if k["bounds.pairs"] else 0.0,
            "experiments.trials": trials,
            "experiments.self_s": experiments_self,
            "experiments.self_ms_per_trial": 1e3 * experiments_self / trials if trials else 0.0,
            # oracle sections are inclusive times, not self times
            "experiments.oracle_interlacing_s": t["experiments.oracle_interlacing"],
            "experiments.oracle_perturbation_s": t["experiments.oracle_perturbation"],
            "experiments.oracle_expansion_s": t["experiments.oracle_expansion"],
            "kernels.gram.calls": c["kernels.gram"],
            "kernels.gram.s": s["kernels.gram"],
            "kernels.gram.bytes": k["kernels.gram.bytes"],
            "spectral.eigvalsh.calls": c["spectral.eigvalsh"],
            "spectral.eigvalsh.s": s["spectral.eigvalsh"],
            "spectral.eigvalsh.flops": k["spectral.eigvalsh.flops"],
            "spectral.eig_sym.calls": c["spectral.eig_sym"],
            "spectral.eig_sym.s": s["spectral.eig_sym"],
            "spectral.eig_sym.flops": k["spectral.eig_sym.flops"],
            "spectral.perturb_replace.calls": c["spectral.perturb_replace"],
            "spectral.perturb_replace.s": s["spectral.perturb_replace"],
            "alignment.theta.calls": c["alignment.theta"],
            "alignment.theta.s": s["alignment.theta"],
            "alignment.theta.eigensolves": k["alignment.theta.eigensolves"],
            "dataset.covariance_stats.calls": c["dataset.covariance_stats"],
            "dataset.covariance_stats.s": s["dataset.covariance_stats"],
            "dataset.whitened_norm.calls": c["dataset.whitened_norm"],
            "dataset.whitened_norm.s": s["dataset.whitened_norm"],
            "dataset.load_s": s["dataset.load"],
            "cli.self_s": s["cli"],
            "cli.write_s": s["cli.write"],
            "cli.bytes_written": k["cli.bytes_written"],
            "svgplot.render_s": s["svgplot.render"],
        }

    def self_time_sum(self) -> float:
        """Total self time of every span of the repetition."""
        return sum(self.self_s.values())
