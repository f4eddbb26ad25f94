"""Penalty trends under increasing augmentation strength (small-scale sweep).

Each augmentation mode drives its own penalty down as lambda grows:

* mean ablation pushes the contribution-covariance penalty down (more
  negative: contributions reinforce as the solve approaches k univariate
  regressions);
* inverted dropout pushes the modified L2 penalty down (ridge-style
  shrinkage toward zero).

And the reverse is not true: mean ablation RAISES ML2P (univariate
coefficients are large on correlated designs), while inverted dropout sends
|CCP| toward 0 (everything shrinks).  This is a reduced-size version of the
sweep the acceptance suite runs; it finishes in about a minute.
"""

import numpy as np

import ablatereg as ar
from ablatereg.files import write_text

d = ar.synth_correlated(n=1200, k=6, correlation=0.6,
                        true_beta=np.linspace(0.5, 2.0, 6), noise_sd=1.0, seed=11)
grid = (0.0, 0.2, 0.4, 0.6, 0.8)
seeds = (0, 1)
depths = (0, 1)

mada = ar.lambda_sweep(d, depths, "mean", grid, seeds, dataset_id="demo")
iid = ar.lambda_sweep(d, depths, "iid", grid, seeds, dataset_id="demo")

for sweep, label in ((mada, "mean ablation"), (iid, "inverted dropout")):
    print(f"--- {label} ---")
    print(f"  {'depth':>5} " + " ".join(f"lam={lam:<4}" for lam in grid))
    for field in ("ccp", "ml2p"):
        for depth in depths:
            means = [sweep.mean_over_seeds(field, depth, lam) for lam in grid]
            cells = " ".join(f"{v:>8.1f}" for v in means)
            print(f"  {field:>5} depth={depth}: {cells}")
    print()

print("Spearman(lambda, mean penalty): own penalty falls under its own mode")
for sweep, field, label in ((mada, "ccp", "CCP under mean ablation"),
                            (iid, "ml2p", "ML2P under inverted dropout")):
    trend = ar.penalty_trend(sweep, field)
    for entry in trend["per_depth"]:
        print(f"  {label}, depth {entry.depth}: {entry.spearman:+.2f}")

report = ar.cross_trend_check(mada, iid)
print("\ncross-trends (the reverse direction):")
for entry in report.ml2p_under_mean_ablation:
    print(f"  ML2P under mean ablation, depth {entry.depth}: "
          f"Spearman {entry.spearman:+.2f} "
          f"({entry.first_mean:.2f} -> {entry.last_mean:.2f})")
for entry in report.ccp_under_dropout:
    print(f"  |CCP| under inverted dropout, depth {entry.depth}: "
          f"{abs(entry.first_mean):.1f} -> {abs(entry.last_mean):.1f}")
ok, problems = report.check()
print(f"cross-trend gate: {'pass' if ok else 'FAIL'}")
for problem in problems:
    print(f"  - {problem}")

write_text("demo_sweep_mada.csv", ar.render_report(mada, "csv"))
write_text("demo_sweep_iid.csv", ar.render_report(iid, "csv"))
print("\nwrote demo_sweep_mada.csv and demo_sweep_iid.csv (plot-ready)")
