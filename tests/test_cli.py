import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specbounds import bounds as bnd
from specbounds import experiments
from specbounds.cli import main
from specbounds.dataset import load_csv
from specbounds.experiments import ExperimentConfig, _draw, _keys, _trial_inputs, subseed
from specbounds.kernels import gaussian, gram
from test_properties import theta_brute_force

RANK1_ROWS = 8


def run_cli(*args):
    return main(list(args))


def _write_fixture(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("1,0\n0,2\n-1,0\n0,-2\n")
    return str(data)


def _write_rank1(tmp_path):
    # samples along one direction scaled by the labels: the linear-kernel Gram
    # equals the label outer product, so alignment is exactly 1
    rng = np.random.default_rng(80)
    y = rng.choice([-1.0, 1.0], size=RANK1_ROWS)
    data = tmp_path / "rank1.csv"
    data.write_text("\n".join(f"{v},{0.0}" for v in y) + "\n")
    labels = tmp_path / "y.csv"
    labels.write_text("\n".join(str(int(v)) for v in y) + "\n")
    return str(data), str(labels)


def test_bounds_report_surface(tmp_path):
    data = _write_fixture(tmp_path)
    out = tmp_path / "out"
    assert run_cli("bounds", "--data", data, "--kernel", "gaussian:1.0",
                   "--stat", "eig:1", "--eps", "0.1", "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "statistic,index,epsilon,theorem,kind,value,stderr,flags"
    theorems = {line.split(",")[3] for line in lines[1:]}
    assert {"diag_uniform", "theta_top", "adjacent_gap", "covgap_distance",
            "covgap_second_order"} <= theorems
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["cov_gap_1p"] == pytest.approx(1.5)
    assert meta["whitened_radius"] == pytest.approx(np.sqrt(2.0))
    assert meta["lipschitz"] == 0.5
    manifest = json.loads((out / "manifest.json").read_text())
    assert "data" in manifest["input_hashes"]
    assert "report.csv" in manifest["outputs"]


def test_bounds_deterministic_files(tmp_path):
    data = _write_fixture(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert run_cli("bounds", "--data", data, "--stat", "eig:1,topk:2",
                       "--out", str(out)) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "metadata.json").read_bytes() == (out2 / "metadata.json").read_bytes()


def test_bounds_degenerate_gap_exit_4(tmp_path, capsys):
    data = tmp_path / "id3.csv"
    data.write_text("1,0,0\n0,1,0\n0,0,1\n")
    code = run_cli("bounds", "--data", str(data), "--kernel", "linear",
                   "--stat", "eig:1", "--out", str(tmp_path / "o"))
    assert code == 4
    assert "theorem assumes distinct eigenvalues" in capsys.readouterr().err
    code = run_cli("bounds", "--data", str(data), "--kernel", "linear",
                   "--stat", "eig:1", "--allow-degenerate", "--out", str(tmp_path / "o2"))
    assert code == 0


def test_bounds_eigvec_stat(tmp_path):
    rng = np.random.default_rng(82)
    rows = rng.standard_normal((12, 2))
    data = tmp_path / "g.csv"
    data.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    out = tmp_path / "out"
    assert run_cli("bounds", "--data", str(data), "--kernel", "gaussian:1.0",
                   "--stat", "eigvec:1", "--eps", "0.5,1.0", "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    theorems = {line.split(",")[3] for line in lines[1:]}
    assert theorems == {"eigvec_pointwise", "eigvec_uniform"}
    meta = json.loads((out / "metadata.json").read_text())
    stats_meta = meta["statistics"]["eigenvector:1"]
    assert "eigvec_c" in stats_meta and "eigvec_exponent_offset" in stats_meta


def test_bounds_singular_covariance_exit_4(tmp_path, capsys):
    data = tmp_path / "rank1.csv"
    data.write_text("1,2\n2,4\n3,6\n")  # all rows collinear
    code = run_cli("bounds", "--data", str(data), "--stat", "eig:1",
                   "--out", str(tmp_path / "o"))
    assert code == 4
    assert "singular" in capsys.readouterr().err
    # exit 4 still writes metadata.json, and neither report.csv nor manifest.json
    meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
    assert "covariance_skipped" in meta
    assert meta["skipped_theorems"]["eigenvalue:1:covgap_distance"] == meta["covariance_skipped"]
    assert not (tmp_path / "o" / "report.csv").exists()
    assert not (tmp_path / "o" / "manifest.json").exists()
    # a statistic whose theorems read only the spectrum needs no covariance
    data4 = tmp_path / "rank1x4.csv"
    data4.write_text("1,2\n2,4\n3,6\n-1,-2\n")
    assert run_cli("bounds", "--data", str(data4), "--stat", "topk:2", "--eps", "0.1,0.2",
                   "--out", str(tmp_path / "o4")) == 0
    lines = (tmp_path / "o4" / "report.csv").read_text().splitlines()[1:]
    assert [line.split(",")[3] for line in lines] == ["topk_gap", "topk_gap"]
    assert "covariance_skipped" in json.loads((tmp_path / "o4" / "metadata.json").read_text())
    assert run_cli("bounds", "--data", str(data4), "--stat", "eig:1",
                   "--out", str(tmp_path / "o5")) == 4
    assert "singular" in capsys.readouterr().err
    code = run_cli("bounds", "--data", str(data), "--stat", "eig:1,eigvec:1",
                   "--allow-degenerate", "--out", str(tmp_path / "o2"))
    assert code == 0
    meta = json.loads((tmp_path / "o2" / "metadata.json").read_text())
    assert "covariance_skipped" in meta
    skipped = meta["skipped_theorems"]
    assert any("eigvec" in k for k in skipped)
    # every theorem that reads the covariance is listed with its reason
    for theorem in ("covgap_distance", "covgap_second_order", "covgap_second_order_alt"):
        assert skipped[f"eigenvalue:1:{theorem}"] == meta["covariance_skipped"]
    assert skipped["eigenvector:1:eigvec_pointwise"] == meta["covariance_skipped"]
    assert "eigenvalue:1:covgap_inner" not in skipped
    # with a regular covariance, exit 4 names every skipped theorem, not only the first
    data = tmp_path / "tri.csv"
    data.write_text("1,0\n0,2\n-1,-1\n")
    code = run_cli("bounds", "--data", str(data), "--stat", "eig:3,tail:3", "--out", str(tmp_path / "o3"))
    assert code == 4
    err = capsys.readouterr().err
    assert "2 theorem(s) skipped" in err
    assert "eigenvalue:3:adjacent_gap: gap to the next eigenvalue is undefined" in err
    assert "tail_sum:3:tail_gap: theorem assumes distinct eigenvalues" in err
    assert not (tmp_path / "o3" / "report.csv").exists()
    assert not (tmp_path / "o3" / "manifest.json").exists()
    meta = json.loads((tmp_path / "o3" / "metadata.json").read_text())
    assert sorted(meta["skipped_theorems"]) == ["eigenvalue:3:adjacent_gap", "tail_sum:3:tail_gap"]


def test_bounds_estimates_theta_only_when_a_theorem_reads_it(tmp_path, monkeypatch):
    rng = np.random.default_rng(83)
    data = tmp_path / "g.csv"
    rows = rng.standard_normal((40, 3))
    data.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return theta(*args, **kwargs)

    theta = experiments.theta_statistic
    monkeypatch.setattr(experiments, "theta_statistic", counting)
    out = tmp_path / "topk"
    assert run_cli("bounds", "--data", str(data), "--stat", "topk:2", "--allow-degenerate",
                   "--out", str(out)) == 0
    assert calls == []
    assert "theta_skipped" not in json.loads((out / "metadata.json").read_text())
    out = tmp_path / "eig"
    assert run_cli("bounds", "--data", str(data), "--stat", "eig:1", "--out", str(out)) == 0
    assert len(calls) == 1
    reported = json.loads((out / "metadata.json").read_text())["statistics"]["eigenvalue:1"]
    expected = theta_brute_force(gram(load_csv(str(data)), gaussian(1.0)))
    assert reported["theta"] == expected and reported["theta_estimated"] is True


def test_bounds_skips_theta_top_when_theta_is_undefined(tmp_path, capsys):
    # theta_top is reported as skipped with theta's reason, never silently dropped
    rng = np.random.default_rng(84)
    low_rank = tmp_path / "g.csv"  # a linear kernel on 2-d data: rank 2, theta undefined
    rows = rng.standard_normal((20, 2))
    low_rank.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
    zero = tmp_path / "diag.csv"  # G = diag(9, 4, 1): dropping the third row keeps 9 and 4, so theta is 0
    zero.write_text("3,0,0\n0,2,0\n0,0,1\n")
    for data, reason in ((low_rank, "theta undefined"), (zero, "estimated theta is 0")):
        argv = ("bounds", "--data", str(data), "--kernel", "linear", "--stat", "eig:1", "--eps", "0.1")
        assert run_cli(*argv, "--out", str(tmp_path / "o4")) == 4
        assert "eigenvalue:1:theta_top: " + reason in capsys.readouterr().err
        out = tmp_path / "o0"
        assert run_cli(*argv, "--allow-degenerate", "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["skipped_theorems"]["eigenvalue:1:theta_top"] == meta["theta_skipped"]
        theorems = {line.split(",")[3] for line in (out / "report.csv").read_text().splitlines()[1:]}
        assert "theta_top" not in theorems and {"diag_uniform", "adjacent_gap"} <= theorems


def test_bounds_reproduces_simulate_trial_bounds(tmp_path):
    # one simulate trial's samples through `bounds`: the same raw-spectrum
    # inputs, so the same bound values (eigh and eigvalsh eigenvalues differ
    # in the last bits, hence the tolerance)
    cfg = ExperimentConfig(n=40, p=3, trials=2, seed=21, epsilons=(0.01, 0.05, 0.2),
                           statistics=("eigenvalue", "topk_sum", "tail_sum"),
                           bounds=("adjacent_gap", "topk_gap", "tail_gap", "covgap_distance"))
    trial_seed = subseed(cfg.seed, 1)
    _, _, samples = _draw(cfg, trial_seed)
    data = tmp_path / "trial.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in samples.rows))
    keys = _keys(cfg)
    _, x = _trial_inputs(cfg, trial_seed, keys)
    stats = ",".join(f"{alias}:{i}" for alias in ("eig", "topk", "tail") for i in cfg.indices)
    out = tmp_path / "o"
    assert run_cli("bounds", "--data", str(data), "--stat", stats,
                   "--eps", ",".join(map(repr, cfg.epsilons)), "--out", str(out)) == 0
    reported = {}
    for line in (out / "report.csv").read_text().splitlines()[1:]:
        f = line.split(",")
        reported.setdefault((f[3], f[0], int(f[1])), []).append(float(f[5]))
    eps = np.asarray(cfg.epsilons)
    for theorem, statistic, i in keys[1]:
        expected = bnd.theorem_grid(theorem, bnd.theorem_params(theorem, x, i), eps).tolist()
        got = reported[(theorem, statistic, i)]
        assert len(got) == len(expected)
        assert all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(got, expected)), (theorem, i)
    assert len(keys[1]) == 12


def test_scaling_flag_removed(tmp_path):
    data = _write_fixture(tmp_path)
    labels = tmp_path / "y.csv"
    labels.write_text("1\n-1\n1\n-1\n")
    for argv in (["bounds", "--data", data], ["align", "--data", data, "--labels", str(labels)],
                 ["simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--scaling", "raw", "--out", str(tmp_path / "o"))
        assert exc.value.code == 2


def test_bounds_data_errors_exit_3(tmp_path):
    missing = run_cli("bounds", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"))
    assert missing == 3
    bad = tmp_path / "bad.csv"
    bad.write_text("1,a\n2,3\n")
    assert run_cli("bounds", "--data", str(bad), "--out", str(tmp_path / "o")) == 3


def test_bounds_config_errors_exit_2(tmp_path):
    data = _write_fixture(tmp_path)
    assert run_cli("bounds", "--data", data, "--kernel", "rbf:1",
                   "--out", str(tmp_path / "o")) == 2
    assert run_cli("bounds", "--data", data, "--stat", "median:1",
                   "--out", str(tmp_path / "o")) == 2
    assert run_cli("bounds", "--data", data, "--eps", "0.2,0.1",
                   "--out", str(tmp_path / "o")) == 2
    # a repeated statistic would write every row twice
    assert run_cli("bounds", "--data", data, "--stat", "eig:1,topk:2,eig:1",
                   "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("eps", ["nan", "0.1,inf", "inf"])
def test_non_finite_epsilons_exit_2(tmp_path, eps):
    data = _write_fixture(tmp_path)
    labels = tmp_path / "y.csv"
    labels.write_text("1\n-1\n1\n-1\n")
    out = tmp_path / "o"
    assert run_cli("bounds", "--data", data, "--eps", eps, "--out", str(out)) == 2
    assert run_cli("align", "--data", data, "--labels", str(labels), "--eps", eps,
                   "--out", str(out)) == 2
    assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1",
                   "--eps", eps, "--no-svg", "--out", str(out)) == 2
    assert not (out / "report.csv").exists()


def test_simulate_preset_config_values(tmp_path):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--preset", "example1-fig2-top", "--seed", "7",
                   "--trials", "5", "--out", str(out)) == 0
    config = json.loads((out / "config.json").read_text())
    cfg = config["runs"][0]["config"]
    assert (cfg["n"], cfg["p"]) == (100, 1)
    assert cfg["kernel"] == {"family": "gaussian", "sigma": 1.0}
    assert cfg["indices"] == [1, 2, 3]
    assert cfg["bounds"] == ["adjacent_gap"]
    assert cfg["seed"] == 7
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"][0]["rng"]["subseeds"]) == 5


def test_simulate_svg_pure_formatting(tmp_path):
    with_svg, without = tmp_path / "a", tmp_path / "b"
    for out, flag in ((with_svg, []), (without, ["--no-svg"])):
        assert run_cli("simulate", "--preset", "example1-fig2-top", "--seed", "3",
                       "--trials", "4", "--out", str(out), *flag) == 0
    assert (with_svg / "results.csv").read_bytes() == (without / "results.csv").read_bytes()
    assert (with_svg / "summary.json").read_bytes() == (without / "summary.json").read_bytes()
    assert (with_svg / "plot.svg").exists()
    assert not (without / "plot.svg").exists()
    svg = (with_svg / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_simulate_bottom_preset_two_runs(tmp_path):
    out = tmp_path / "sb"
    assert run_cli("simulate", "--preset", "example1-fig2-bottom", "--seed", "5",
                   "--trials", "4", "--out", str(out)) == 0
    assert (out / "results_p2.csv").exists()
    assert (out / "results_p5.csv").exists()
    config = json.loads((out / "config.json").read_text())
    assert [r["config"]["p"] for r in config["runs"]] == [2, 5]


def test_simulate_fig1_preset_boxplot(tmp_path):
    out = tmp_path / "sf"
    assert run_cli("simulate", "--preset", "fig1-boxplot", "--seed", "5",
                   "--trials", "6", "--out", str(out)) == 0
    lines = (out / "results.csv").read_text().splitlines()
    kinds = {line.split(",")[4] for line in lines[1:]}
    assert {"min", "q1", "median", "q3", "max", "iqr", "mean_gap", "spearman_gap_iqr"} <= kinds
    assert (out / "boxplot.svg").exists()


def test_simulate_emitted_config_reruns_identically(tmp_path):
    first, second = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("simulate", "--preset", "example1-fig2-top", "--seed", "11",
                   "--trials", "6", "--out", str(first)) == 0
    assert run_cli("simulate", "--config", str(first / "config.json"),
                   "--out", str(second)) == 0
    assert (first / "results.csv").read_bytes() == (second / "results.csv").read_bytes()
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    # an explicit --trials overrides the file's count, 0 included
    assert run_cli("simulate", "--config", str(first / "config.json"), "--trials", "0",
                   "--out", str(tmp_path / "r3")) == 2
    # and an explicit --eps overrides the file's grid
    assert run_cli("simulate", "--config", str(first / "config.json"), "--eps", "0.1,0.2",
                   "--no-svg", "--out", str(tmp_path / "r4")) == 0
    (run,) = json.loads((tmp_path / "r4" / "config.json").read_text())["runs"]
    assert run["config"]["epsilons"] == [0.1, 0.2]
    # a config written when the scale was an option reruns at the fixed scale,
    # and one asking for another scale is refused
    payload = json.loads((first / "config.json").read_text())
    assert "scaling" not in payload["runs"][0]["config"]
    for scaling, code in (("one_over_n", 0), ("raw", 2)):
        payload["runs"][0]["config"]["scaling"] = scaling
        old = tmp_path / f"{scaling}.json"
        old.write_text(json.dumps(payload))
        out = tmp_path / scaling
        assert run_cli("simulate", "--config", str(old), "--out", str(out)) == code
        if code == 0:
            assert (out / "results.csv").read_bytes() == (first / "results.csv").read_bytes()
            assert (out / "summary.json").read_bytes() == (first / "summary.json").read_bytes()
        else:
            assert not (out / "results.csv").exists()


def test_simulate_trials_smoke_fast(tmp_path):
    import time

    start = time.time()
    assert run_cli("simulate", "--preset", "example1-fig2-top", "--seed", "2",
                   "--trials", "2", "--no-svg", "--out", str(tmp_path / "s")) == 0
    assert time.time() - start < 1.0


def test_simulate_needs_inputs(tmp_path):
    out = tmp_path / "o"
    assert run_cli("simulate", "--out", str(out)) == 2
    assert not out.exists()


def test_failed_runs_create_no_output_directory(tmp_path):
    # the output directory appears at the first write, so a run that stops
    # with a config or data error leaves nothing behind
    out = tmp_path / "o"
    data = _write_fixture(tmp_path)
    assert run_cli("bounds", "--data", data, "--theta", "1.5", "--out", str(out)) == 2
    assert run_cli("bounds", "--data", str(tmp_path / "nope.csv"), "--out", str(out)) == 3
    assert run_cli("align", "--data", data, "--out", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("payload,message", [
    ({"runs": [{"label": "x"}]}, '"runs" must be a list'),
    ({"runs": "x"}, '"runs" must be a list'),
    ([1, 2], "JSON object"),
    ({"n": 10, "p": 2, "trials": 3, "seed": 1, "kernel": "gaussian"}, "kernel config"),
    ({"n": 10, "p": 2, "trials": 3, "seed": 1, "bogus": 3}, "unknown key"),
    ({"runs": [{"mode": "violin", "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}}]}, "unknown mode"),
    ({"runs": [{"colour": "red", "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}}]}, "unknown run key"),
    ({"n": 10, "p": 2, "trials": 2.7, "seed": 1}, "'trials' must be an integer"),
    # two runs with one label would write one results file
    ({"runs": [{"label": "a", "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}},
               {"label": "a", "config": {"n": 10, "p": 2, "trials": 3, "seed": 2}}]}, "'a' is used more than once"),
    # a number and its string would also name one file, results_1.csv
    ({"runs": [{"label": 1, "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}}]}, "label must be a string"),
    ({"runs": [{"label": None, "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}},
               {"config": {"n": 10, "p": 2, "trials": 3, "seed": 2}}]}, "label must be a string"),
])
def test_simulate_invalid_config_exit_2(tmp_path, capsys, payload, message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(config), "--no-svg", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_empty_bounds_runs_no_bound(tmp_path):
    for token in ("", ","):
        out = tmp_path / f"o{len(token)}"
        assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1",
                       "--bounds", token, "--no-svg", "--out", str(out)) == 0
        (run,) = json.loads((out / "config.json").read_text())["runs"]
        assert run["config"]["bounds"] == []


def test_simulate_config_without_seed_reruns_identically(tmp_path, capsys):
    # each run's seed is in its config, so none is generated and the
    # manifest records none
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 10, "p": 2, "trials": 3, "seed": 4, "scaling": "one_over_n"}))
    first, second = tmp_path / "r1", tmp_path / "r2"
    for out in (first, second):
        assert run_cli("simulate", "--config", str(config), "--no-svg", "--out", str(out)) == 0
    assert "generated seed" not in capsys.readouterr().out
    manifest = (first / "manifest.json").read_bytes()
    assert manifest == (second / "manifest.json").read_bytes()
    assert json.loads(manifest)["master_seed"] is None
    # config.json is the validated config: the legacy key dropped, defaults filled in
    (run,) = json.loads((first / "config.json").read_text())["runs"]
    assert run["config"] == ExperimentConfig(n=10, p=2, trials=3, seed=4).to_dict()


def test_bounds_and_simulate_share_the_singular_covariance_reason(tmp_path):
    # p > n makes every trial's covariance singular; `bounds` on the first
    # trial's samples reports the reason `simulate` records for that trial
    cfg = ExperimentConfig(n=4, p=6, trials=2, seed=1, epsilons=(0.1,), indices=(1,),
                           bounds=("covgap_distance",))
    _, _, samples = _draw(cfg, subseed(cfg.seed, 0))
    data = tmp_path / "trial.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in samples.rows))
    assert run_cli("bounds", "--data", str(data), "--allow-degenerate", "--out", str(tmp_path / "b")) == 0
    meta = json.loads((tmp_path / "b" / "metadata.json").read_text())
    reason = meta["skipped_theorems"]["eigenvalue:1:covgap_distance"]
    assert reason.startswith("sample covariance is singular")
    assert run_cli("simulate", "--n", "4", "--p", "6", "--trials", "2", "--seed", "1", "--indices", "1",
                   "--bounds", "covgap_distance", "--eps", "0.1", "--no-svg",
                   "--out", str(tmp_path / "s")) == 0
    (bound,) = json.loads((tmp_path / "s" / "summary.json").read_text())["runs"][0]["bounds"]
    assert bound["excluded"] == 2 and bound["reason"] == reason


@pytest.mark.parametrize("kernel,bound", [("gaussian:1.0", "covgap_inner"), ("linear", "covgap_distance")])
def test_simulate_kernel_restricted_bound_exit_2(tmp_path, kernel, bound):
    out = tmp_path / "o"
    assert run_cli("simulate", "--n", "40", "--p", "3", "--trials", "20", "--seed", "1",
                   "--kernel", kernel, "--bounds", bound, "--eps", "0.1,0.5", "--no-svg",
                   "--out", str(out)) == 2
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("flags", [
    ("--statistics", "kta,kta", "--indices", "1", "--bounds", "kta_spectral"),
    ("--indices", "1,1"),
    ("--bounds", "adjacent_gap,adjacent_gap"),
    ("--trials", "0"),
    ("--eps", ""),
    ("--p", "0"),
    ("--n", "1", "--indices", "1"),
    ("--workers", "0"),
])
def test_simulate_invalid_flags_exit_2(tmp_path, flags):
    # a repeated entry, zero trials, an empty grid, an impossible size or no
    # worker is an error, never a default or a failure inside the first trial
    out = tmp_path / "o"
    assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "5", "--seed", "1",
                   "--no-svg", *flags, "--out", str(out)) == 2
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("flags", [("--p", "0"), ("--n", "1", "--index", "1"), ("--workers", "0")])
def test_audit_invalid_sizes_exit_2(tmp_path, flags):
    out = tmp_path / "o"
    assert run_cli("audit", "--n", "10", "--seed", "1", *flags, "--out", str(out)) == 2
    assert not out.exists()


def test_benchmark_tracer_sees_every_trial(tmp_path, monkeypatch):
    # the benchmark's tracer patches module attributes by name; a renamed or
    # bypassed hook shows up here as a missing count
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.call_cli(["simulate", "--n", "20", "--p", "3", "--trials", "5",
                                "--bounds", "adjacent_gap,covgap_distance", "--no-svg",
                                "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["experiments.trials"] == 5
    assert metrics["spectral.eigvalsh.calls"] == 5
    assert metrics["kernels.gram.calls"] == 5


def test_align_rank1_fixture(tmp_path):
    data, labels = _write_rank1(tmp_path)
    out = tmp_path / "al"
    assert run_cli("align", "--data", data, "--labels", labels, "--kernel", "linear",
                   "--eps", "0.5,1.0", "--out", str(out)) == 0
    payload = json.loads((out / "alignment.json").read_text())
    assert payload["a_kn"] == pytest.approx(1.0, rel=1e-12)
    assert payload["m"] == RANK1_ROWS  # C(theta)'s m is n
    lines = (out / "alignment.csv").read_text().splitlines()
    a_line = [l for l in lines if ",a_kn," in l][0]
    assert float(a_line.split(",")[5]) == pytest.approx(1.0, rel=1e-12)


def test_align_theta_mode_flag(tmp_path):
    rng = np.random.default_rng(81)
    rows = rng.standard_normal((10, 2))
    data = tmp_path / "g.csv"
    data.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    labels = tmp_path / "y.csv"
    labels.write_text("\n".join("1" if i % 2 else "-1" for i in range(10)) + "\n")
    for mode in ("drop", "zero"):
        out = tmp_path / f"al_{mode}"
        assert run_cli("align", "--data", str(data), "--labels", str(labels),
                       "--kernel", "gaussian:1.0", "--theta-mode", mode,
                       "--out", str(out)) == 0
        payload = json.loads((out / "alignment.json").read_text())
        assert payload["theta_mode"] == mode
        assert 0.0 <= payload["theta"] <= 1.0


def test_align_label_col(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x1,y,x2\n1,1,0\n-1,-1,0\n2,1,0\n-2,-1,0\n")
    out = tmp_path / "al"
    assert run_cli("align", "--data", str(data), "--label-col", "y",
                   "--kernel", "gaussian:1.0", "--out", str(out)) == 0


def test_align_missing_labels_exit_3(tmp_path):
    data = _write_fixture(tmp_path)
    assert run_cli("align", "--data", data, "--out", str(tmp_path / "o")) == 3
    bad = tmp_path / "y.csv"
    bad.write_text("1\n2\n1\n-1\n")
    assert run_cli("align", "--data", data, "--labels", str(bad),
                   "--out", str(tmp_path / "o")) == 3


def test_audit_surface_and_zero_perturbation(tmp_path):
    out = tmp_path / "aud"
    assert run_cli("audit", "--n", "20", "--p", "2", "--seed", "9",
                   "--oracle-trials", "100", "--interlacing-matrices", "100",
                   "--expansion-trials", "2", "--zero-perturbation",
                   "--out", str(out)) == 0
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "inequality,trials,violations,skipped,max_violation"
    assert len(lines) == 8  # header + 7 inequalities
    for line in lines[1:]:
        assert int(line.split(",")[2]) == 0  # zero violations everywhere
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == [
        "interlacing",
        "eigenvalue_stability",
        "perturbation_norm_printed",
        "perturbation_norm_conservative",
        "second_order_eigenvalue",
        "eigvec_expansion_residual",
        "perturbation_norm_inner",
    ]


def test_audit_trial_count_scales(tmp_path):
    out = tmp_path / "aud"
    assert run_cli("audit", "--n", "15", "--p", "2", "--seed", "9",
                   "--oracle-trials", "120", "--interlacing-matrices", "100",
                   "--expansion-trials", "2", "--out", str(out)) == 0
    lines = (out / "audit.csv").read_text().splitlines()
    stability = [l for l in lines if l.startswith("eigenvalue_stability")][0]
    assert int(stability.split(",")[1]) == 120


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "specbounds", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


DEMOS = {
    "bound_report_walkthrough": "adjacent_gap",
    "alignment_and_oracles": "eigenvalue_stability",
    "concentration_experiment": "spearman",
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_bound_report_demo_runs(tmp_path, demo):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "demos" / f"{demo}.py")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[demo] in proc.stdout
    if demo == "concentration_experiment":
        written = sorted(p.name for p in (tmp_path / "specbounds_out").iterdir())
        assert written == ["concentration.svg", "eigenvalue_boxplot.svg"]


def test_generated_seed_printed(tmp_path, capsys):
    out = tmp_path / "s"
    assert run_cli("simulate", "--n", "10", "--p", "1", "--trials", "2",
                   "--no-svg", "--out", str(out)) == 0
    captured = capsys.readouterr().out
    assert "generated seed:" in captured
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["master_seed"], int)
