"""Seeded outputs pinned to sha256 digests at small sizes.

A change that means to keep every output byte (a speed-up, a refactor)
must leave these digests as they are; a change that moves any bit of a
Monte Carlo, boxplot or oracle result, or of a CSV or JSON file that a command
writes, fails here, in tier-1, and not only in the benchmark's digests.  A change that alters outputs on purpose
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
    # an inner-product kernel: covgap_inner, diag_uniform and the kta variants
    # that read the ratio and the Frobenius norm
    "inner-kta": (dict(n=12, p=3, trials=40, seed=15, indices=(1, 2, 12), statistics=("eigenvalue", "kta"),
                       kernel={"family": "polynomial", "degree": 2, "offset": 1.0},
                       bounds=("covgap_inner", "diag_uniform", "kta_spectral_approx", "kta_spectral_bdiff",
                               "covgap_second_order_alt", "adjacent_gap")),
                  "f61a5675ad18f1073620473ad0584c4492e578f728f8118d8aaaeb2e8682901c"),
    # p > n: every trial's sample covariance is singular, with its own lambda_p
    # in the reason
    "singular-cov": (dict(n=4, p=6, trials=30, seed=16, indices=(1, 2, 4),
                          statistics=("eigenvalue", "topk_sum", "tail_sum"),
                          bounds=("covgap_distance", "covgap_second_order", "adjacent_gap", "topk_gap", "tail_gap")),
                     "9ec237fbdeed4a3e4dccbaa28822a08f5e1d3df80bd33fb3273a329be00f2940"),
    # p = 1: a zero covariance gap (gamma = 0), and deep orders where some
    # trials' gaps are degenerate and others' are not
    "low-p-gaps": (dict(n=12, p=1, trials=40, seed=17, indices=(1, 9, 10, 11),
                        statistics=("eigenvalue", "topk_sum", "tail_sum"),
                        bounds=("adjacent_gap", "covgap_second_order", "topk_gap", "tail_gap")),
                   "68dc4460a97527df83672144c95bf76f1068cf6c7d9cfd4e99263f5b0581b80b"),
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


def _oracle_digest(cfg: ExperimentConfig) -> str:
    table = run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100, expansion_trials=3)
    return _digest([(r.name, r.trials, r.violations, r.skipped, r.max_violation) for r in table.rows])


def test_oracle_outputs_are_pinned():
    cfg = ExperimentConfig(n=30, p=5, trials=2, seed=13, indices=(1,), bounds=())
    assert _oracle_digest(cfg) == "eb4f23855b94951dcfce2d9f0b8a2203a9f26315bd5f68b8d6209b556a7d728c"


def test_violating_oracle_outputs_are_pinned():
    # gaussian, sigma = 1, at p = 2: perturbation_norm_inner fails in about
    # one trial in ten, so max_violation carries the bits of lhs - rhs
    cfg = ExperimentConfig(n=100, p=2, trials=2, seed=21, indices=(1,), bounds=(),
                           kernel={"family": "gaussian", "sigma": 1.0})
    assert _oracle_digest(cfg) == "0b6569c4f1ff7f3beb9002bf503f2ddd914f6ef4f8e03a18a2d24afcb44573b6"


def _write_dataset(tmp_path):
    """A seeded 60-point, p = 5 CSV with +-1 labels, written with repr so
    the CLI reads back the very floats drawn."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((60, 5))
    y = rng.choice([-1, 1], size=60)
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in x))
    labels = tmp_path / "labels.csv"
    labels.write_text("".join(f"{int(v)}\n" for v in y))
    return str(data), str(labels)


# the benchmark's theta-single statistics, and both kta cases: theta defined
# (gaussian) and undefined (linear on p = 5, so kta_theta is skipped and
# alignment.csv writes nan)
CLI_OUTPUTS = {
    "bounds": (("bounds", "--stat", "eig:1,eig:2,topk:2,tail:2,eigvec:1"), ("report.csv", "metadata.json"),
               "239d2a9d2a0f62ff0ce05220c223518088b088265546b73ecf0b5cfe26e65677"),
    "align-gaussian": (("align", "--kernel", "gaussian:1.0"), ("alignment.csv", "alignment.json"),
                       "9b98685efe68e6119859a77e46fdb80ff0da20da0889d389cdfe0ce11932a349"),
    "align-linear": (("align", "--kernel", "linear"), ("alignment.csv", "alignment.json"),
                     "8fcba736eb57eb10657c7fe9a8cf42337dfb925c2a01dc04ce90513f07f7df47"),
}


@pytest.mark.parametrize("name", list(CLI_OUTPUTS))
def test_cli_outputs_are_pinned(tmp_path, name):
    from specbounds.cli import main

    argv, files, pinned = CLI_OUTPUTS[name]
    data, labels = _write_dataset(tmp_path)
    out = tmp_path / "out"
    extra = ("--labels", labels) if argv[0] == "align" else ()
    assert main([*argv, "--data", data, *extra, "--out", str(out)]) == 0
    assert _digest(*((out / f).read_bytes() for f in files)) == pinned


# simulate and audit through the CLI, so the pins cover the JSON and CSV
# writers as well as the results; plot.svg and boxplot.svg are not pinned
RUN_OUTPUTS = {
    # adjacent_gap at order n = 12 has no next gap, so every trial is
    # excluded and summary.json writes that bound's means as null
    "simulate-excluded": (("simulate", "--n", "12", "--p", "2", "--trials", "6", "--seed", "3", "--indices", "1,12",
                           "--bounds", "adjacent_gap,diag_uniform"),
                          ("results.csv", "summary.json", "config.json", "manifest.json"),
                          "1ab0e9a143328290dcbcf95751b5d8b1cacf613f2c69991d5478afa554c5b2d4"),
    "simulate-fig1-boxplot": (("simulate", "--preset", "fig1-boxplot", "--trials", "8", "--seed", "5"),
                              ("results.csv", "summary.json", "config.json", "manifest.json"),
                              "f75d8e3ccced1a4a0a4973007116032e7827233ad6c5d897e46352f308a392c8"),
    "audit": (("audit", "--n", "30", "--seed", "13", "--interlacing-matrices", "100", "--oracle-trials", "100",
               "--expansion-trials", "1"),
              ("audit.csv", "summary.json", "manifest.json"),
              "fd72f5b6c7a880b0eda8fc2679a2405bfeba1062d7c40cb9a76bd64eb0c705dd"),
}


@pytest.mark.parametrize("name", list(RUN_OUTPUTS))
def test_run_outputs_are_pinned(tmp_path, name):
    from specbounds.cli import main

    argv, files, pinned = RUN_OUTPUTS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    written = [(out / f).read_bytes() for f in files]
    if name == "simulate-excluded":
        assert b"null" in written[1]
    assert _digest(*written) == pinned
