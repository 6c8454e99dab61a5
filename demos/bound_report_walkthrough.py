"""Walk through every closed-form bound on one synthetic dataset.

Generates Gaussian samples, builds a Gaussian-kernel Gram matrix, and prints
each bound over a small deviation grid together with the statistics feeding
it (covariance gap, whitened radius, spectral gaps, theta).
"""

import numpy as np

import specbounds as sb

n, p, seed = 120, 4, 42
samples = sb.gen_gaussian(n, p, seed)
kernel = sb.gaussian(1.0)

g = sb.gram(samples, kernel)
spectrum = sb.eig_sym(g)
cov = sb.covariance_stats(samples)
lip = sb.lipschitz(kernel)
r2 = sb.diag_sup(samples, kernel)
theta = sb.theta_statistic(g)

print(f"dataset: n={n}, p={p}, gaussian kernel sigma=1")
print(f"covariance: lambda_1={cov.lambda_1:.4f}, lambda_p={cov.lambda_p:.4f}, "
      f"gap={cov.gap_1p:.4f}, whitened radius M={cov.whitened_radius:.4f}")
print(f"kernel: lipschitz={lip}, diagonal supremum R^2={r2}")
print(f"top of spectrum: {np.round(spectrum.eigenvalues[:5], 5)}")
print(f"theta (leave-one-out shrinkage): {theta:.5f}")

norms = sb.error_norm_bound("distance", cov, lip, n)
print(f"replace-one perturbation norm bounds: printed={norms.printed:.4f}, "
      f"conservative={norms.conservative:.4f}")

inputs = sb.BoundInputs(
    n=n,
    spectrum=spectrum.eigenvalues,
    cov=cov,
    lip=lip,
    diag_sup_sq=r2,
    kernel="distance",
    theta=theta,
    theta_estimated=True,
)
report = sb.evaluate_bounds(inputs, "eigenvalue", 1, (0.01, 0.05, 0.1, 0.25, 0.5))

print("\ntheorem                    eps      raw value      flags")
for row in report.rows:
    flags = ",".join(row.flags) + (",vacuous" if row.vacuous else "")
    print(f"{row.theorem:<26} {row.epsilon:<8} {row.raw:<14.6g} {flags.strip(',')}")

print("\nmetadata echoed with the report:")
for key in ("gap_next", "resolvent_sum", "gamma_printed", "gamma_alt"):
    print(f"  {key} = {report.metadata.get(key)}")
