"""Kernel target-alignment on a labeled synthetic task, then the brute-force
oracle suite confirming the inequalities the bounds rest on.
"""

import numpy as np

import specbounds as sb
from specbounds.experiments import ExperimentConfig, run_oracles

rng = np.random.default_rng(3)
n = 40
labels = rng.choice([-1.0, 1.0], size=n)
# two separated clusters keyed to the labels, plus noise
rows = labels[:, None] * np.array([2.0, 0.5]) + 0.4 * rng.standard_normal((n, 2))
samples = sb.SampleSet(rows=rows, provenance="two-clusters")

g = sb.gram(samples, sb.gaussian(1.0))
report = sb.alignment_report(g, labels, epsilons=(0.05, 0.1, 0.2, 0.4))

print(f"alignment A(K) = {report.a_kn:.4f}")
print(f"theta = {report.theta:.4f}, C(theta) = {report.c_theta:.4f} (m = n = {n})")
print(f"L = {report.l_mid:.4f}, ||K||_F = {report.frob:.4f}, "
      f"exact ratio = {report.ratio:.4f}, lambda_1/lambda_2 = {report.ratio_approx:.4f}")
print("\nper-epsilon bounds (raw values, >= 1 means vacuous):")
header = "eps      " + "  ".join(f"{k:<20}" for k in sorted(report.bounds))
print(header)
for j, eps in enumerate(report.epsilons):
    row = f"{eps:<8} " + "  ".join(f"{report.bounds[k][j]:<20.6g}" for k in sorted(report.bounds))
    print(row)

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
