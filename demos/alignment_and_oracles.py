"""Kernel target-alignment on a labeled synthetic task, then the brute-force
oracle suite confirming the inequalities the bounds rest on.
"""

import numpy as np

import specbounds as sb
from specbounds.experiments import ExperimentConfig, run_oracles, sample_inputs

rng = np.random.default_rng(3)
n = 40
labels = rng.choice([-1.0, 1.0], size=n)
# two separated clusters keyed to the labels, plus noise
rows = labels[:, None] * np.array([2.0, 0.5]) + 0.4 * rng.standard_normal((n, 2))
samples = sb.SampleSet(rows=rows, provenance="two-clusters")

# the inputs and report the `align` command builds: theta, ||K||_F, L and
# lambda_1/lambda_2 from sample_inputs, every kta theorem from evaluate_bounds
kernel = sb.gaussian(1.0)
g = sb.gram(samples, kernel)
spectrum = sb.eig_sym(g)
x = sample_inputs(samples, kernel, g, spectrum.eigenvalues, {"theta", "frob", "l_mid", "ratio"},
                  spectrum=spectrum, a_kn=sb.kta(g, labels))
epsilons = (0.05, 0.1, 0.2, 0.4)
report = sb.evaluate_bounds(x, "kta", None, epsilons)

print(f"alignment A(K) = {x.a_kn:.4f}")
print(f"theta = {x.theta:.4f}, C(theta) = {report.metadata['c_theta']:.4f} (m = n = {n})")
print(f"L = {x.l_mid:.4f}, ||K||_F = {x.frob:.4f}, "
      f"exact ratio = {x.frob / x.l_mid:.4f}, lambda_1/lambda_2 = {x.ratio:.4f}")
print("\nper-epsilon bounds (raw values, >= 1 means vacuous):")
theorems = sorted({row.theorem for row in report.rows})
raw = {(row.theorem, row.epsilon): row.raw for row in report.rows}
print("eps      " + "  ".join(f"{k:<20}" for k in theorems))
for eps in epsilons:
    print(f"{eps:<8} " + "  ".join(f"{raw[k, eps]:<20.6g}" for k in theorems))

print("\noracle suite (500 replace-one trials, 200 interlacing matrices):")
cfg = ExperimentConfig(
    n=100, p=5, trials=2, seed=3,
    kernel={"family": "gaussian", "sigma": 1.0},
    indices=(1,), statistics=("eigenvalue",), bounds=(),
)
table = run_oracles(cfg, interlacing_matrices=200, perturbation_trials=500, expansion_trials=50)
for row in table.rows:
    print(f"  {row.name:<32} trials={row.trials:<4} violations={row.violations:<3} "
          f"skipped={row.skipped:<3} max excess={row.max_violation:.2e}")
