import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from specbounds import bounds as bnd
from specbounds import experiments
from specbounds import cli
from specbounds import errors
from specbounds.cli import build_parser, main
from specbounds.dataset import covariance_stats, load_csv
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


def test_bounds_skips_topk_at_order_n(tmp_path, capsys):
    # lambda_{n+1} does not exist: topk:n is a skipped theorem, as eig:n and
    # tail:n are, not a data error that drops the whole report
    rng = np.random.default_rng(84)
    data = tmp_path / "ten.csv"
    data.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rng.standard_normal((10, 3))))
    reason = "the top-k gap is undefined for k = n"
    assert run_cli("bounds", "--data", str(data), "--stat", "eig:1,topk:10", "--out", str(tmp_path / "o")) == 4
    assert f"topk_sum:10:topk_gap: {reason}" in capsys.readouterr().err
    out = tmp_path / "o2"
    assert run_cli("bounds", "--data", str(data), "--stat", "eig:1,topk:10", "--allow-degenerate",
                   "--out", str(out)) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["skipped_theorems"] == {"topk_sum:10:topk_gap": reason}
    assert meta["statistics"]["topk_sum:10"] == {"range_gap": None}
    assert {line.split(",")[0] for line in (out / "report.csv").read_text().splitlines()[1:]} == {"eigenvalue"}
    # an order above n is still a data error
    assert run_cli("bounds", "--data", str(data), "--stat", "topk:11", "--out", str(tmp_path / "o3")) == 3


@pytest.mark.parametrize("kernel", ["linear", "polynomial:3:0"])
def test_bounds_theta_on_a_zero_spectrum_skips_theta_top(tmp_path, capsys, kernel):
    # lambda_1 = 0 is a property of the data, not of the flags: theta_top is
    # skipped like every other degenerate theorem
    data = tmp_path / "zero.csv"
    data.write_text("0,0\n" * 4)
    reason = "lambda_1 must be positive, got 0.0"
    flags = ("--kernel", kernel, "--stat", "eig:1", "--theta", "0.5")
    assert run_cli("bounds", "--data", str(data), *flags, "--out", str(tmp_path / "o")) == 4
    assert f"eigenvalue:1:theta_top: {reason}" in capsys.readouterr().err
    out = tmp_path / "o2"
    assert run_cli("bounds", "--data", str(data), *flags, "--allow-degenerate", "--out", str(out)) == 0
    assert json.loads((out / "metadata.json").read_text())["skipped_theorems"]["eigenvalue:1:theta_top"] == reason


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
    flags = _theta_top_flags(out)
    assert flags and all("estimated_theta" in f for f in flags)
    # a given --theta is used as it is: not estimated, and not flagged as estimated
    out = tmp_path / "given"
    assert run_cli("bounds", "--data", str(data), "--stat", "eig:1", "--theta", "0.5", "--out", str(out)) == 0
    assert len(calls) == 1
    reported = json.loads((out / "metadata.json").read_text())["statistics"]["eigenvalue:1"]
    assert reported["theta"] == 0.5 and reported["theta_estimated"] is False
    flags = _theta_top_flags(out)
    assert flags and not any("estimated_theta" in f for f in flags)


def _theta_top_flags(out: Path) -> list[set]:
    """The flags of each theta_top row of out/report.csv."""
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    return [set(f[7].split(";")) for f in rows if f[3] == "theta_top"]


def test_bounds_centered_covariance(tmp_path):
    # the covariance statistics of --centered are those of the mean-centred samples
    data = tmp_path / "shifted.csv"
    rows = np.random.default_rng(85).standard_normal((30, 3)) + 3.0
    data.write_text("".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
    samples = load_csv(str(data))
    for centered in (False, True):
        out = tmp_path / f"c{centered:d}"
        flags = ("--centered",) if centered else ()
        assert run_cli("bounds", "--data", str(data), *flags, "--allow-degenerate", "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["cov_lambda_1"] == covariance_stats(samples, centered=centered).lambda_1
    assert covariance_stats(samples).lambda_1 != covariance_stats(samples, centered=True).lambda_1


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
        # align skips kta_theta by the same rule, with the same reason
        labels = tmp_path / "y.csv"
        labels.write_text("".join("1\n" if i % 2 else "-1\n" for i in range(len(data.read_text().splitlines()))))
        out = tmp_path / "al"
        assert run_cli("align", "--data", str(data), "--labels", str(labels), "--kernel", "linear",
                       "--eps", "0.1", "--out", str(out)) == 0
        payload = _strict_json_files(out)["alignment.json"]
        assert payload["skipped"]["kta_theta"] == meta["theta_skipped"]
        assert payload["theta"] is None and payload["c_theta"] is None


def test_bounds_skips_diag_uniform_on_a_zero_diagonal(tmp_path, capsys):
    # all-zero data under the linear kernel: the diagonal supremum is 0
    data = tmp_path / "zero.csv"
    data.write_text("0,0\n0,0\n0,0\n0,0\n")
    argv = ("bounds", "--data", str(data), "--kernel", "linear", "--stat", "eig:1")
    assert run_cli(*argv, "--out", str(tmp_path / "o4")) == 4
    assert "eigenvalue:1:diag_uniform: diagonal supremum must be positive" in capsys.readouterr().err
    out = tmp_path / "o0"
    assert run_cli(*argv, "--allow-degenerate", "--out", str(out)) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["skipped_theorems"]["eigenvalue:1:diag_uniform"] == "diagonal supremum must be positive, got 0.0"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json_files(out: Path) -> dict:
    """Every JSON file a run wrote into `out`, parsed with NaN and Infinity refused."""
    return {f.name: json.loads(f.read_text(), parse_constant=_reject_constant) for f in sorted(out.glob("*.json"))}


def test_bounds_metadata_is_strict_json(tmp_path):
    # the gap at eigen-order 1 of an all-zero linear Gram matrix is 0, so
    # both gap sums are +inf: written as null and listed, never as Infinity
    data = tmp_path / "zero.csv"
    data.write_text("0,0\n0,0\n0,0\n0,0\n")
    out = tmp_path / "o"
    assert run_cli("bounds", "--data", str(data), "--kernel", "linear", "--stat", "eig:1",
                   "--allow-degenerate", "--out", str(out)) == 0
    meta = json.loads((out / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert meta["statistics"]["eigenvalue:1"] == {"gap_next": 0.0, "inv_gap_sq_sum": None,
                                                   "resolvent_sum": None}
    assert meta["non_finite"] == ["statistics.eigenvalue:1.inv_gap_sq_sum",
                                  "statistics.eigenvalue:1.resolvent_sum"]
    # a finite run has no list
    finite = tmp_path / "f"
    assert run_cli("bounds", "--data", _write_fixture(tmp_path), "--stat", "eig:1",
                   "--out", str(finite)) == 0
    meta = json.loads((finite / "metadata.json").read_text(), parse_constant=_reject_constant)
    assert "non_finite" not in meta


def test_bounds_reproduces_simulate_trial_bounds(tmp_path):
    # one simulate trial's samples through `bounds`: the same raw-spectrum
    # inputs, so the same bound values (eigh and eigvalsh eigenvalues differ
    # in the last bits, hence the tolerance)
    cfg = ExperimentConfig(n=40, p=3, trials=2, seed=21, epsilons=(0.01, 0.05, 0.2),
                           statistics=("eigenvalue", "topk_sum", "tail_sum"),
                           bounds=("adjacent_gap", "topk_gap", "tail_gap", "covgap_distance"))
    trial_seed = subseed(cfg.seed, 1)
    _, samples = _draw(cfg, trial_seed)
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
    # an order below 1 is refused as the flag is parsed; one above n is a data error
    for stat in ("eig:0", "eigvec:0", "topk:0", "tail:-1"):
        assert run_cli("bounds", "--data", data, "--stat", stat, "--out", str(tmp_path / "o")) == 2
    assert run_cli("bounds", "--data", data, "--stat", "eig:5", "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("argv", [
    ("bounds", "--stat", "eig:0"),
    ("bounds", "--kernel", "rbf:1"),
    ("bounds", "--eps", "0.2,0.1"),
    ("align", "--labels", "{missing}", "--kernel", "rbf:1"),
    ("align", "--labels", "{missing}", "--eps", "nan"),
    # 1/(2 sigma^2) overflows or vanishes
    *(("bounds", "--kernel", f"gaussian:{sigma}") for sigma in ("1e-300", "1e-200", "1e-160", "1e300")),
    *(("align", "--labels", "{missing}", "--kernel", f"gaussian:{sigma}") for sigma in ("1e-300", "1e-200")),
])
def test_bad_flags_exit_2_before_any_file_is_read(tmp_path, argv):
    # every flag is checked before the data is read: a bad flag is a config
    # error even when the data file cannot be read
    missing = str(tmp_path / "nope.csv")
    out = tmp_path / "o"
    command, *flags = (a.format(missing=missing) for a in argv)
    assert run_cli(command, "--data", missing, *flags, "--out", str(out)) == 2
    assert not out.exists()


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


def test_simulate_plot_legend_names_each_series_once(tmp_path):
    # an eigenvalue and a top-k sum at the same order: each legend entry
    # carries its --stat token, so no two entries read alike
    out = tmp_path / "lg"
    assert run_cli("simulate", "--n", "20", "--p", "2", "--trials", "5", "--seed", "1",
                   "--statistics", "eigenvalue,topk_sum", "--indices", "2",
                   "--bounds", "adjacent_gap,topk_gap", "--out", str(out)) == 0
    texts = re.findall(r"<text [^>]*>([^<]*)</text>", (out / "plot.svg").read_text())
    legend = texts[-4:]  # the legend is drawn last, one entry per series
    assert legend == ["freq eig:2", "freq topk:2", "adjacent_gap eig:2", "topk_gap topk:2"]
    assert len(set(legend)) == len(legend)


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


def test_simulate_boxplot_summary_is_strict_json(tmp_path):
    # order n has no next gap, so its mean gap and the gap-IQR rank
    # correlation are undefined: both are written as null, never as NaN
    out = tmp_path / "bx"
    assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "5", "--seed", "1", "--mode", "boxplot",
                   "--indices", "9,10", "--out", str(out)) == 0
    (run,) = _strict_json_files(out)["summary.json"]["runs"]
    assert run["boxplot"]["mean_gaps"][0] is not None and run["boxplot"]["mean_gaps"][1] is None
    assert run["boxplot"]["spearman_gap_iqr"] is None


def test_json_writes_the_text_of_json_dumps_with_non_finite_floats_as_null():
    finite = {
        "b": [1, -0.0, 1e-300, 2.5e300, np.float64(0.1), 2**70, True, False, None, (), {}, [],
              "\u00e9\"\\\n\t\x01\u2028\U0001f600"],
        "a": {"z": 3, "y": {"x": [{"w": 0.30000000000000004}, [[]]]}, "\u00e9": "key"},
        "": 7,
        "c": (4, "x"),
    }
    assert "".join(cli._json(finite)) == json.dumps(finite, indent=2, sort_keys=True) + "\n"
    assert "".join(cli._json([])) == "[]\n" and "".join(cli._json(1.5)) == "1.5\n"
    paths: list[str] = []
    text = "".join(cli._json({"c": -math.inf, "a": [1.0, math.nan, {"b": math.inf}], "d": "nan"}, paths))
    assert text == json.dumps({"a": [1.0, None, {"b": None}], "c": None, "d": "nan"},
                              indent=2, sort_keys=True) + "\n"
    assert sorted(paths) == ["a[1]", "a[2].b", "c"]
    assert "".join(cli._json([[math.nan]], paths)) == "[\n  [\n    null\n  ]\n]\n" and paths[-1] == "[0][0]"
    for unsupported in ({"a": np.int64(1)}, [np.bool_(True)], {1: "int key"}, {"a": {1, 2}}):
        with pytest.raises(TypeError):
            cli._json(unsupported)


def test_json_rejects_what_json_dumps_rejects_before_anything_is_written(tmp_path):
    # the chunks are written as the encoder yields them, so every leaf is
    # checked when _json is called: no file is left half written
    for leaf in (np.int64(1), np.bool_(True), np.float32(0.5), {1, 2}, b"x", 1j, object()):
        with pytest.raises(TypeError):
            json.dumps(leaf)
        with pytest.raises(TypeError, match=r"not JSON serializable \(at a\[1\]\.b\)"):
            cli._json({"a": [1.0, {"b": leaf}]})
    with pytest.raises(TypeError):
        cli._write_files(tmp_path / "o", {"results.csv": "x\n", "summary.json": cli._json({"a": [np.int64(1)]})})
    assert not (tmp_path / "o").exists()


def test_simulate_streams_every_json_file(tmp_path, monkeypatch):
    # _write gets a JSON file's chunks, never the joined text, and writes the
    # bytes json.dumps would
    texts = {}
    write = cli._write

    def spy(path, text):
        if path.suffix == ".json":
            assert not isinstance(text, str), path.name
            text = "".join(text)
        texts[path.name] = text
        write(path, text)

    monkeypatch.setattr(cli, "_write", spy)
    out = tmp_path / "o"
    assert run_cli("simulate", "--n", "12", "--p", "2", "--trials", "4", "--seed", "3", "--no-svg",
                   "--out", str(out)) == 0
    assert sorted(texts) == ["config.json", "manifest.json", "results.csv", "summary.json"]
    for name, text in texts.items():
        assert (out / name).read_text() == text
        if name.endswith(".json"):
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_benchmark_tracer_installs_and_restores_every_target(tmp_path, monkeypatch):
    # the benchmark's tracer patches module attributes by name: a renamed
    # target fails install() here, in tier-1, and not only under --trace 1
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        targets = [(owner, name, original) for owner, name, original in tracer._saved]
        assert targets and all(getattr(owner, name) is not original for owner, name, original in targets)
        assert tracer.call_cli(["simulate", "--n", "12", "--p", "2", "--trials", "3", "--seed", "3",
                                "--no-svg", "--out", str(tmp_path / "o")]) == 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original for owner, name, original in targets)
    written = sum(f.stat().st_size for f in (tmp_path / "o").iterdir())
    assert tracer.metrics()["cli.bytes_written"] == written


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
    # a config written when the scale or the generator was an option reruns
    # with the fixed one, and one asking for another is refused
    payload = json.loads((first / "config.json").read_text())
    (run,) = payload["runs"]
    assert "scaling" not in run["config"]
    for key, value, code in (("scaling", "one_over_n", 0), ("scaling", "raw", 2),
                             ("generator", "gaussian", 0), ("generator", "uniform", 2)):
        old = tmp_path / f"{value}.json"
        old.write_text(json.dumps({"runs": [{**run, "config": {**run["config"], key: value}}]}))
        out = tmp_path / value
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
    assert run_cli("align", "--data", data, "--out", str(out)) == 2
    assert run_cli("align", "--data", data, "--labels", str(tmp_path / "nope.csv"), "--out", str(out)) == 3
    assert run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)) == 3
    assert run_cli("simulate", "--config", data, "--out", str(out)) == 2  # a CSV file is not JSON
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
    # a boolean is not read as 1
    ({"n": 10, "p": True, "trials": 3, "seed": 1}, "'p' must be an integer"),
    # a label is a file-name suffix, results_<label>.csv, never a path
    *(({"runs": [{"label": label, "config": {"n": 10, "p": 2, "trials": 3, "seed": 1}}]}, "not a file-name part")
      for label in ("a/b", "a\\b", "a\0b", ".", "..")),
    ({"runs": []}, '"runs" is empty'),
    # a string where a list belongs (before: read one character at a time, so
    # "12" ran indices 1 and 2 and "kta" reported statistic 'k')
    *(({"n": 20, "p": 2, "trials": 3, "seed": 1, key: value}, f"key {key!r} must be a list, got {value!r}")
      for key, value in (("indices", "12"), ("indices", "3"), ("statistics", "kta"), ("bounds", "adjacent_gap"),
                         ("epsilons", "0.1"))),
    # eigenvector has theorems but no Monte Carlo value
    ({"n": 10, "p": 2, "trials": 3, "seed": 1, "statistics": ["eigenvector"]},
     "unknown statistic 'eigenvector' (known: ('eigenvalue', 'topk_sum', 'tail_sum', 'kta'))"),
    # a bound of a statistic the run does not list would write no row
    ({"n": 10, "p": 2, "trials": 3, "seed": 1, "bounds": ["kta_theta", "topk_gap"]},
     "bound 'kta_theta' bounds the kta statistic, which statistics ['eigenvalue'] does not list"),
    # a boxplot run reads the eigenvalue statistic and no bound, whatever the config names
    ({"runs": [{"mode": "boxplot", "config": {"n": 10, "p": 2, "trials": 3, "seed": 1, "statistics": ["kta"],
                                              "bounds": ["adjacent_gap"]}}]},
     "a boxplot run reads only the eigenvalue statistic, got ['kta']"),
    ({"runs": [{"mode": "boxplot", "config": {"n": 10, "p": 2, "trials": 3, "seed": 1, "bounds": ["adjacent_gap"]}}]},
     "a boxplot run evaluates no bound, got ['adjacent_gap']"),
    # 1/(2 sigma^2) overflows or vanishes
    *(({"n": 10, "p": 2, "trials": 3, "seed": 1, "kernel": {"family": "gaussian", "sigma": sigma}},
       f"gaussian bandwidth {sigma!r}") for sigma in (1e-300, 1e-160, 1e300)),
])
def test_simulate_invalid_config_exit_2(tmp_path, capsys, payload, message):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(config), "--no-svg", "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _exit_code(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


SIZES = {"n": 10, "p": 2, "trials": 3, "seed": 1}


@pytest.mark.parametrize("argv,config", [
    (("simulate", "--config", "{c}"), {**SIZES, "kernel": {"family": "gaussian", "sigmaa": 5.0}}),
    (("simulate", "--config", "{c}"), {**SIZES, "kernel": {"family": "polynomial", "degree": 2.5}}),
    (("simulate", "--config", "{c}"), {**SIZES, "kernel": {"family": "gaussian", "sigma": True}}),
    (("simulate", "--config", "{c}"), {**SIZES, "kernel": {"family": "polynomial", "domain_bound": "abc"}}),
    (("simulate", "--config", "{c}"), {**SIZES, "kernel": {"family": "polynomial", "domain_bound": 0.5}}),
    (("simulate", "--config", "{c}"), {"runs": [{"label": "a/b", "config": SIZES}]}),
    (("simulate", "--config", "{c}"), {"runs": []}),
    (("simulate", "--config", "{c}", "--n", "50", "--kernel", "linear"), SIZES),
    (("simulate", "--config", "{c}", "--mode", "boxplot"), SIZES),
    (("simulate", "--preset", "fig1-boxplot", "--indices", "1"), None),
    (("simulate", "--preset", "example1-fig2-top", "--config", "{c}"), SIZES),
    *((("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1", "--kernel", token), None)
      for token in ("linear:7", "gaussian:1:2", "gaussian:inf", "polynomial:2:nan", "polynomial:2.5")),
    (("bounds", "--data", "{d}", "--header", "--kernel", "gaussian:nan"), None),
    (("align", "--data", "{d}", "--labels", "{y}", "--label-col", "lab"), None),
    # results_<label>.csv above 255 bytes (before: every trial ran, then OSError, exit 1)
    *((("simulate", "--config", "{c}"), {"runs": [{"label": label, "config": SIZES}]})
      for label in ("x" * 300, "x" * 244, "é" * 122)),
])
def test_rejected_run_definitions_exit_2(tmp_path, capsys, argv, config):
    # each exits 2 with one error line, no traceback and no output directory
    # (before, each ran, ignored part of its input or failed later)
    paths = {"c": tmp_path / "c.json", "d": tmp_path / "d.csv", "y": tmp_path / "y.csv"}
    paths["c"].write_text(json.dumps(config))
    paths["d"].write_text("lab,x\n" + "".join(f"{(-1) ** i},{i}\n" for i in range(10)))
    paths["y"].write_text("1\n-1\n" * 6)  # 12 labels for 10 rows
    out = tmp_path / "o"
    argv = [a.format(**paths) for a in argv]
    assert _exit_code(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_run_label_at_the_file_name_limit_runs(tmp_path):
    # 243 bytes of label make the 255-byte results_<label>.csv and boxplot_<label>.svg
    config = tmp_path / "c.json"
    runs = [{"label": "x" * 243, "config": SIZES},
            {"label": "é" * 121 + "x", "mode": "boxplot", "config": {**SIZES, "indices": [1]}}]
    config.write_text(json.dumps({"runs": runs}))
    out = tmp_path / "o"
    assert run_cli("simulate", "--config", str(config), "--out", str(out)) == 0
    assert (out / f"results_{'x' * 243}.csv").exists()
    assert (out / f"boxplot_{'é' * 121}x.svg").exists()


@pytest.mark.parametrize("token,kernel", [
    ("gaussian", {"family": "gaussian"}),
    ("gaussian:0.5", {"family": "gaussian", "sigma": 0.5}),
    ("linear", {"family": "linear"}),
    ("polynomial", {"family": "polynomial"}),
    ("polynomial:3", {"family": "polynomial", "degree": 3}),
    ("polynomial:2:1.5", {"family": "polynomial", "degree": 2, "offset": 1.5}),
])
def test_kernel_flag_and_config_dict_build_one_config(tmp_path, token, kernel):
    # a --kernel token and its config dict go through one validator and come
    # out as one canonical config
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**SIZES, "kernel": kernel}))
    by_flag = cli._runs_from_args(build_parser().parse_args(
        ["simulate", "--n", "10", "--p", "2", "--trials", "3", "--kernel", token]), 1)
    by_config = cli._runs_from_args(build_parser().parse_args(["simulate", "--config", str(config)]), None)
    assert by_flag == by_config
    ((_, _, cfg),) = by_flag
    assert cfg.kernel == {"family": cfg.kernel_spec().name, **cfg.kernel_spec().params}


def test_simulate_config_with_kernel_defaults_reruns_identically(tmp_path):
    # a kernel dict that leaves out sigma, or writes an int for a float, is
    # written back in canonical form, and that form re-runs byte for byte
    first, second = tmp_path / "r1", tmp_path / "r2"
    for kernel, canonical in (({"family": "gaussian"}, '{"family": "gaussian", "sigma": 1.0}'),
                              ({"family": "polynomial", "offset": 1},
                               '{"degree": 2, "family": "polynomial", "offset": 1.0}')):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SIZES, "kernel": kernel}))
        assert run_cli("simulate", "--config", str(config), "--out", str(first)) == 0
        assert run_cli("simulate", "--config", str(first / "config.json"), "--out", str(second)) == 0
        for name in ("config.json", "results.csv", "summary.json", "plot.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        (run,) = json.loads((first / "config.json").read_text())["runs"]
        assert json.dumps(run["config"]["kernel"], sort_keys=True) == canonical


def test_simulate_empty_bounds_runs_no_bound(tmp_path):
    for token in ("", ","):
        out = tmp_path / f"o{len(token)}"
        assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1",
                       "--bounds", token, "--no-svg", "--out", str(out)) == 0
        (run,) = json.loads((out / "config.json").read_text())["runs"]
        assert run["config"]["bounds"] == []



def test_simulate_kta_alone_runs_no_bound(tmp_path):
    # the default bound follows the statistics: adjacent_gap only when
    # eigenvalue is listed (before: --statistics kta alone exited 2)
    out = tmp_path / "kta"
    assert run_cli("simulate", "--n", "10", "--p", "3", "--trials", "3", "--seed", "1",
                   "--statistics", "kta", "--no-svg", "--out", str(out)) == 0
    (run,) = json.loads((out / "config.json").read_text())["runs"]
    assert run["config"]["bounds"] == []
    assert {line.split(",")[4] for line in (out / "results.csv").read_text().splitlines()[1:]} == {
        "mc_mean", "empirical_freq"}
    assert run_cli("simulate", "--n", "10", "--p", "3", "--trials", "3", "--seed", "1", "--no-svg",
                   "--out", str(tmp_path / "default")) == 0
    (run,) = json.loads((tmp_path / "default" / "config.json").read_text())["runs"]
    assert run["config"]["bounds"] == ["adjacent_gap"]


def test_simulate_rank_one_gram_excludes_the_spectral_kta_bounds(tmp_path):
    # p = 1 with the linear kernel: every G has rank one, and L is rounding
    # noise (before: no trial excluded, bound_mean 2.0 at every epsilon)
    out = tmp_path / "o"
    assert run_cli("simulate", "--n", "20", "--p", "1", "--trials", "5", "--seed", "1", "--kernel", "linear",
                   "--statistics", "kta", "--bounds", "kta_spectral,kta_spectral_approx", "--no-svg",
                   "--out", str(out)) == 0
    (run,) = json.loads((out / "summary.json").read_text())["runs"]
    assert [(b["theorem"], b["excluded"]) for b in run["bounds"]] == [("kta_spectral", 5),
                                                                    ("kta_spectral_approx", 5)]
    for b in run["bounds"]:
        assert b["reason"] == bnd.L_ZERO_MESSAGE
        assert {v["mean"] for v in b["values"]} == {None}


def test_align_rank_one_gram_skips_the_spectral_kta_theorems(tmp_path):
    # three identical rows make G all ones; L (1.58e-17 here) and lambda_2 are
    # rounding noise (before: the kta_spectral rows read 2.0 and ratio_approx
    # was -1.89e17)
    data, labels = tmp_path / "x.csv", tmp_path / "y.csv"
    data.write_text("1,2\n1,2\n1,2\n")
    labels.write_text("1\n-1\n1\n")
    out = tmp_path / "al"
    assert run_cli("align", "--data", str(data), "--labels", str(labels), "--out", str(out)) == 0
    payload = json.loads((out / "alignment.json").read_text())
    assert payload["bounds"] == {}
    assert payload["ratio"] is None and payload["ratio_approx"] is None
    assert payload["l_mid"] < 1e-10
    assert {payload["skipped"][t] for t in ("kta_spectral", "kta_spectral_approx", "kta_spectral_bdiff")} == {
        bnd.L_ZERO_MESSAGE}
    assert ",bound," not in (out / "alignment.csv").read_text()

def test_simulate_index_column_follows_the_index_flags(tmp_path):
    # a range of --indices names every order in it; kta has no order, so its
    # rows leave the index column empty
    for flags, indices, column in ((("--indices", "1..3"), [1, 2, 3], {"1", "2", "3"}),
                                   (("--statistics", "kta", "--bounds", "kta_spectral"), [1, 2, 3], {""})):
        out = tmp_path / flags[1]
        assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1", *flags,
                       "--eps", "0.1", "--no-svg", "--out", str(out)) == 0
        (run,) = json.loads((out / "config.json").read_text())["runs"]
        assert run["config"]["indices"] == indices
        assert {line.split(",")[1] for line in (out / "results.csv").read_text().splitlines()[1:]} == column


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
    _, samples = _draw(cfg, subseed(cfg.seed, 0))
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
    ("--indices", "1,5..3"),  # a reversed range (before: silently dropped, leaving [1])
    # bounds and statistics the run would never evaluate (before: exit 0 with no row for them)
    ("--statistics", "eigenvalue", "--bounds", "kta_theta,topk_gap"),
    ("--mode", "boxplot", "--statistics", "kta", "--bounds", "adjacent_gap"),
])
def test_simulate_invalid_flags_exit_2(tmp_path, flags):
    # a repeated entry, zero trials, an empty grid, an impossible size or no
    # worker is an error, never a default or a failure inside the first trial
    out = tmp_path / "o"
    assert run_cli("simulate", "--n", "10", "--p", "2", "--trials", "5", "--seed", "1",
                   "--no-svg", *flags, "--out", str(out)) == 2
    assert not (out / "results.csv").exists()


@pytest.mark.parametrize("flags", [("--p", "0"), ("--n", "1", "--index", "1"), ("--workers", "0"),
                                   ("--kernel", "rbf:1")])
def test_audit_invalid_sizes_exit_2(tmp_path, flags):
    out = tmp_path / "o"
    assert run_cli("audit", "--n", "10", "--seed", "1", *flags, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("cls,code", [
    (errors.SpecBoundsError, 2), (errors.ConfigError, 2), (errors.DataError, 3), (errors.ParseError, 3),
    (errors.DegeneracyError, 4), (errors.DegenerateGapError, 4), (errors.SingularCovarianceError, 4),
    (errors.ValidityConditionError, 4),
])
def test_error_classes_carry_their_exit_codes(tmp_path, capsys, monkeypatch, cls, code):
    def failing(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_bounds", failing)
    assert cls.exit_code == code
    assert run_cli("bounds", "--data", "d.csv", "--out", str(tmp_path / "o")) == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("argv,sub,code", [
    (("bounds", "--data", "{d}", "--allow-degenerate"), "", 2),
    (("align", "--data", "{d}", "--labels", "{y}"), "", 2),
    (("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1"), "", 2),
    (("audit", "--n", "10", "--p", "2", "--seed", "1", "--oracle-trials", "100",
      "--interlacing-matrices", "100", "--expansion-trials", "1"), "", 2),
    # a directory inside a file cannot be created: found before any trial runs
    # (before: every trial ran, then the first write failed with exit 3)
    (("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1"), "sub", 2),
])
def test_out_naming_a_file_exits_without_writing(tmp_path, capsys, argv, sub, code):
    # before: FileExistsError or NotADirectoryError, a traceback and exit 1
    paths = {"d": _write_fixture(tmp_path), "y": tmp_path / "y.csv"}
    paths["y"].write_text("1\n-1\n1\n-1\n")
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    assert run_cli(*(a.format(**paths) for a in argv), "--out", str(taken / sub)) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert taken.read_bytes() == b"not a directory\n"


@pytest.mark.parametrize("argv,err", [
    (("bounds", "--data", "d.csv", "--stat", "foo:1"),
     "error: cannot parse statistic 'foo:1'; expected eig:i, topk:k, tail:k, or eigvec:i\n"),
    (("simulate", "--n", "10", "--p", "2", "--trials", "3", "--seed", "1", "--statistics", "eigenvector"),
     "error: unknown statistic 'eigenvector' (known: ('eigenvalue', 'topk_sum', 'tail_sum', 'kta'))\n"),
])
def test_statistic_errors_list_the_registry(tmp_path, capsys, argv, err):
    # the texts built from `bounds.STATISTICS`, pinned byte for byte
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()



def test_parser_is_built_once(tmp_path, monkeypatch):
    # main reuses one parser, and its namespaces bind no command function:
    # main looks up _cmd_<command> at each call, so a patched one runs
    assert build_parser() is build_parser()
    assert "func" not in vars(build_parser().parse_args(["bounds", "--data", "d.csv"]))
    seen = []
    monkeypatch.setattr(cli, "_cmd_audit", lambda args: seen.append(args.n) or 0)
    assert run_cli("audit", "--n", "7", "--out", str(tmp_path / "a")) == 0
    assert run_cli("audit", "--n", "9", "--out", str(tmp_path / "a")) == 0
    assert seen == [7, 9]

def test_help_strings_come_from_the_registries():
    # --stat and --statistics list the registry's names; every --kernel shows the run flag's grammar
    commands = next(a for a in build_parser()._actions if a.choices and "bounds" in a.choices).choices
    helps = {(command, flag): action.help
             for command, sub in commands.items() for flag, action in sub._option_string_actions.items()}
    assert helps["bounds", "--stat"] == "comma list of eig:i, topk:k, tail:k, eigvec:i"
    assert helps["simulate", "--statistics"] == "comma list of eigenvalue, topk_sum, tail_sum, kta"
    assert {helps[command, "--kernel"] for command in commands} == {"gaussian[:SIGMA] | linear | polynomial[:D[:C]]"}


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


def test_benchmark_tracer_times_each_oracle_trial(monkeypatch):
    # each perturbation hook call runs its trial's replace-one solve, so the
    # tracer's oracle_perturbation span times the section's per-trial work
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    depth, inside = [0], [0]
    trial, perturb = experiments._perturbation_trial, experiments.perturb_replace

    def spy_trial(args):
        depth[0] += 1
        try:
            return trial(args)
        finally:
            depth[0] -= 1

    def spy_perturb(*args):
        inside[0] += depth[0] > 0
        return perturb(*args)

    monkeypatch.setattr(experiments, "_perturbation_trial", spy_trial)
    monkeypatch.setattr(experiments, "perturb_replace", spy_perturb)
    cfg = ExperimentConfig(n=10, p=2, trials=2, seed=4, indices=(1,), bounds=())
    tracer = Tracer()
    tracer.install()
    try:
        experiments.run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100, expansion_trials=1)
    finally:
        tracer.uninstall()
    assert inside[0] == 100
    calls = [tracer.calls[f"experiments.oracle_{name}"] for name in ("interlacing", "perturbation", "expansion")]
    assert calls == [100, 100, 1]


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


def test_readme_command_line_flags_are_accepted():
    # every --flag the README's command-line section names is an option of
    # some subcommand, so a removed flag cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    commands = next(a for a in build_parser()._actions if a.choices and "bounds" in a.choices).choices
    accepted = {flag for sub in commands.values() for flag in sub._option_string_actions}
    assert {"--seed", "--workers", "--allow-degenerate", "--label-col"} <= named
    assert sorted(named - accepted) == []


def test_readme_kernel_grammar_lines_round_trip():
    # every JSON line of the README's kernel grammar is a canonical kernel:
    # it loads, and a run's config writes it back unchanged, types included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Kernel config grammar (JSON)\n", 1)[1]
    lines = section.split("```json\n", 1)[1].split("```", 1)[0].splitlines()
    assert [json.loads(line)["kernel"]["family"] for line in lines] == ["gaussian", "linear", "polynomial"]
    for line in lines:
        cfg = ExperimentConfig.from_dict({**SIZES, **json.loads(line)})
        assert json.dumps({"kernel": cfg.to_dict()["kernel"]}) == line


def test_readme_statistics_match_the_registry():
    # the bounds section lists exactly the --stat tokens of `bounds.STATISTICS`,
    # and the simulate section exactly the statistics a run may list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### bounds\n", 1)[1].split("\n### ", 1)[0]
    line = section.split("\nStatistics: ", 1)[1].split(". ", 1)[0]
    tokens = [f"{s.alias}:{s.order}" for s in bnd.STATISTICS.values() if s.order]
    assert re.findall(r"`([^`]+)`", line) == tokens
    section = readme.split("\n### simulate\n", 1)[1].split("\n### ", 1)[0]
    sentence = section.split("The statistics a run may list", 1)[1].split(";", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == experiments.KNOWN_STATISTICS


def test_readme_audit_table_lists_the_oracle_rows():
    # the README's audit table names every row `run_oracles` returns, in order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### audit\n", 1)[1].split("\n### ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    cfg = ExperimentConfig(n=6, p=2, trials=2, seed=1, indices=(1,), bounds=())
    table = experiments.run_oracles(cfg, interlacing_matrices=100, perturbation_trials=100,
                                    expansion_trials=1)
    assert listed == [row.name for row in table.rows]


def test_align_theta_mode_flag(tmp_path):
    rng = np.random.default_rng(81)
    rows = rng.standard_normal((10, 2))
    data = tmp_path / "g.csv"
    data.write_text("\n".join(",".join(map(str, r)) for r in rows) + "\n")
    labels = tmp_path / "y.csv"
    labels.write_text("\n".join("1" if i % 2 else "-1" for i in range(10)) + "\n")
    # theta always drops the s-th row and column: the zero mode is gone, and
    # with it the flag and the output key
    argv = ("align", "--data", str(data), "--labels", str(labels), "--kernel", "gaussian:1.0")
    out = tmp_path / "al"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--theta-mode", "drop", "--out", str(out))
    assert exc.value.code == 2 and not out.exists()
    assert run_cli(*argv, "--out", str(out)) == 0
    payload = json.loads((out / "alignment.json").read_text())
    assert "theta_mode" not in payload
    assert 0.0 <= payload["theta"] <= 1.0


def test_align_needs_three_samples_exit_3(tmp_path, capsys):
    # every kta theorem reads L or theta, so two samples stop the run with no output
    data = tmp_path / "d.csv"
    data.write_text("1,0\n0,2\n")
    labels = tmp_path / "y.csv"
    labels.write_text("1\n-1\n")
    out = tmp_path / "al"
    assert run_cli("align", "--data", str(data), "--labels", str(labels), "--out", str(out)) == 3
    assert "need n >= 3 eigenvalues for the middle-spectrum norm" in capsys.readouterr().err
    assert not out.exists()


def test_align_label_col(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("x1,y,x2\n1,1,0\n-1,-1,0\n2,1,0\n-2,-1,0\n")
    out = tmp_path / "al"
    assert run_cli("align", "--data", str(data), "--label-col", "y",
                   "--kernel", "gaussian:1.0", "--out", str(out)) == 0


def test_align_without_labels_exits_2_before_reading(tmp_path, capsys):
    # a missing flag: no file is read, so a data path that does not exist
    # changes nothing
    for data in (_write_fixture(tmp_path), str(tmp_path / "absent.csv")):
        assert run_cli("align", "--data", data, "--out", str(tmp_path / "o")) == 2
        assert "labels required: pass --labels FILE or --label-col NAME" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("audit", "--p", "0"),
    ("audit", "--n", "1"),
    ("audit", "--oracle-trials", "99"),
    ("simulate", "--n", "10", "--p", "0"),
    ("simulate", "--n", "10", "--p", "2", "--trials", "5", "--workers", "0"),
    ("audit", "--n", "10", "--p", "2", "--workers", "0"),
])
def test_rejected_sizes_print_no_generated_seed(tmp_path, capsys, argv):
    # without --seed a seed is generated, but printed only for a run that starts
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_align_bad_labels_file_exit_3(tmp_path):
    data = _write_fixture(tmp_path)
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
    # without --kernel the run takes the config's default kernel
    written = _strict_json_files(out)
    assert written["summary.json"]["config"]["kernel"] == {"family": "gaussian", "sigma": 1.0}
    assert written["manifest.json"]["config"] == written["summary.json"]["config"]


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "specbounds", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_cli_import_loads_no_process_pool():
    # only a run with more than one worker imports the pool, and multiprocessing with it
    root = Path(__file__).resolve().parents[1]
    code = ("import sys, specbounds.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_hashing():
    # hashlib (OpenSSL) is loaded by a run that hashes an input file, and
    # secrets by a run that generates its seed, not by the import
    root = Path(__file__).resolve().parents[1]
    code = ("import sys, specbounds.cli; "
            "print([m for m in ('hashlib', 'secrets') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
