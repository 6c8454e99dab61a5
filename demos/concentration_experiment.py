"""Monte Carlo concentration experiment: empirical deviation frequencies of
the leading eigenvalue statistics against the per-eigenvalue gap bound, and
the boxplot statistics whose spread follows the spectral gaps.

Writes an SVG line plot and an SVG boxplot to specbounds_out/ under the
working directory, the CLI's default output directory.
"""

from pathlib import Path

import numpy as np

from specbounds.experiments import ExperimentConfig, boxplot_stats, run_concentration
from specbounds.svgplot import LinePlot, render_boxplot

out_dir = Path("specbounds_out")
out_dir.mkdir(exist_ok=True)

cfg = ExperimentConfig(
    n=100,
    p=1,
    trials=300,
    seed=7,
    kernel={"family": "gaussian", "sigma": 1.0},
    indices=(1, 2, 3),
    statistics=("eigenvalue",),
    bounds=("adjacent_gap",),
)
result = run_concentration(cfg)

print(f"{cfg.trials} trials, n={cfg.n}, p={cfg.p}")
for s in result.series:
    print(f"  eigenvalue {s.index}: mean={s.mc_mean:.5f} (se {s.mc_se:.2e}), "
          f"IQR={s.iqr:.2e}")

plot = LinePlot(
    title="Deviation frequency vs. gap bound",
    xlabel="epsilon (log scale)",
    ylabel="probability",
)
eps = list(cfg.epsilons)
for s in result.series:
    plot.add(f"freq i={s.index}", eps, list(s.frequencies))
for b in result.bound_series:
    ys = [min(v, 1.0) if np.isfinite(v) else float("nan") for v in b.mean]
    plot.add(f"bound i={b.index}", eps, ys, marker="circle")
(out_dir / "concentration.svg").write_text(plot.render())
print(f"wrote {out_dir / 'concentration.svg'}")

box_cfg = ExperimentConfig(
    n=100,
    p=5,
    trials=300,
    seed=7,
    kernel={"family": "gaussian", "sigma": 1.0},
    indices=tuple(range(1, 16)),
    statistics=("eigenvalue",),
    bounds=(),
)
box = boxplot_stats(box_cfg)
print(f"boxplot over orders 1..15: spearman(mean gap, IQR) = {box.spearman_gap_iqr:.4f}")
svg = render_boxplot(
    [str(i) for i in box.indices],
    list(box.five_numbers),
    title="Eigenvalue statistic by order (300 trials)",
    xlabel="eigenvalue order",
    ylabel="value",
)
(out_dir / "eigenvalue_boxplot.svg").write_text(svg)
print(f"wrote {out_dir / 'eigenvalue_boxplot.svg'}")
