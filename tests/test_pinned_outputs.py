"""Seeded outputs pinned to sha256 digests at small sizes.

A change that means to keep every output byte (a speed-up, a refactor)
must leave these digests as they are; a change that moves any bit of a
Monte Carlo, boxplot or oracle result fails here, in tier-1, and not only
in the benchmark's digests.  A change that alters outputs on purpose
records the new digests and says why in CHANGES.md.  The digests were
recorded with numpy 2.4 and its bundled OpenBLAS on x86-64; another LAPACK
build may round the eigensolves differently.
"""

import hashlib

import numpy as np
import pytest

from specbounds.experiments import ExperimentConfig, boxplot_stats, run_concentration, run_oracles

# the benchmark's mc-bounds statistics and bounds, at n = 50
MC_BOUNDS = ("adjacent_gap", "topk_gap", "tail_gap", "covgap_distance", "covgap_second_order",
             "covgap_second_order_alt")


def _digest(*parts) -> str:
    """sha256 over arrays' bytes (with dtype and shape) and other values' repr,
    which round-trips every float exactly."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode() + part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


CONCENTRATION = {
    "mc-bounds": (dict(n=50, p=5, trials=200, seed=11, indices=(1, 2, 3),
                       statistics=("eigenvalue", "topk_sum", "tail_sum"), bounds=MC_BOUNDS),
                  "1cef7c1d6dfa5da07ad880d885e440e7b163b36dbc06d7b9e6c370ea10e4c15f"),
    # theta and kta, and every trial excluded from adjacent_gap at i = n
    "theta-kta": (dict(n=20, p=3, trials=30, seed=14, indices=(1, 20), statistics=("eigenvalue", "kta"),
                       bounds=("adjacent_gap", "theta_top", "diag_uniform", "covgap_second_order", "kta_theta",
                               "kta_spectral")),
                  "b1504fa3a93e51d5401907dd956e42a5033ee5729a0404e315ec3cbc534349da"),
}


@pytest.mark.parametrize("name", list(CONCENTRATION))
def test_concentration_outputs_are_pinned(name):
    config, pinned = CONCENTRATION[name]
    result = run_concentration(ExperimentConfig(**config))
    parts = [result.subseeds]
    for s in result.series:
        parts += [s.statistic, s.index, s.values, s.mc_mean, s.mc_se, s.frequencies, s.frequency_se,
                  s.five_number, s.iqr]
    for b in result.bound_series:
        parts += [b.theorem, b.statistic, b.index, b.mean, b.p10, b.excluded, b.reason]
    assert _digest(*parts) == pinned


def test_boxplot_outputs_are_pinned():
    cfg = ExperimentConfig(n=60, p=5, trials=40, seed=12, indices=tuple(range(1, 16)), bounds=())
    result = boxplot_stats(cfg)
    digest = _digest(result.subseeds, result.indices, result.five_numbers, result.iqrs, result.mean_gaps,
                     result.spearman_gap_iqr)
    assert digest == "2a8db7f8ea18236f2f48cafcba196fc791f1241f862db9ea6839e838d25e98d6"


def test_oracle_outputs_are_pinned():
    cfg = ExperimentConfig(n=30, p=5, trials=2, seed=13, indices=(1,), bounds=())
    table = run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100, expansion_trials=3)
    rows = [(r.name, r.trials, r.violations, r.skipped, r.max_violation) for r in table.rows]
    assert _digest(rows) == "eb4f23855b94951dcfce2d9f0b8a2203a9f26315bd5f68b8d6209b556a7d728c"
