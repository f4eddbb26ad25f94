"""From contributions to attributions: the bridge to neural networks.

For a linear model, feature j contributes beta_j * x_j and the contributions
sum to the prediction.  Integrated gradients generalize this to nonlinear
networks: attribute_j = (x_j - baseline_j) times the average gradient along
the straight path from the baseline, and the attributions sum to
F(x) - F(baseline) (completeness).  On a linear model IG reproduces the
contributions exactly, and the path-averaged gradients reproduce the
coefficients, so the two penalties extend verbatim:

* CCP with attributions in place of contributions (the same n x k array
  goes to the same penalty function);
* ML2P with average gradients in place of coefficients.
"""

import numpy as np

import ablatereg as ar
from ablatereg.attribution import AttributionConfig, integrated_gradients

rng = np.random.default_rng(3)

# exactness on a linear model
beta = np.array([1.5, -2.0, 0.5])
lin = ar.linear_as_mlp(beta, intercept=0.4)
X = rng.normal(size=(6, 3))
res = integrated_gradients(lin, X, AttributionConfig(steps=100))
print("linear model:")
print(f"  max |attribution - beta*x|   = "
      f"{np.abs(res.attributions - X * beta).max():.2e}")
print(f"  max |avg gradient - beta|    = {np.abs(res.avg_gradients - beta).max():.2e}")
print(f"  max completeness gap         = {res.completeness_gap.max():.2e}")
print()

# a trained ReLU network: completeness holds up to quadrature error
d = ar.synth_correlated(1500, 5, 0.6, np.linspace(0.5, 2.0, 5), 1.0, seed=4)
train, val, test = ar.split(d, ar.SplitSpec(seed=0))
train, stats = ar.standardize(train)
val, _ = ar.standardize(val, stats)
test, _ = ar.standardize(test, stats)
net, log = ar.train(ar.init([5, 100, 100, 1], seed=5), train, val,
                    ar.TrainConfig(epochs=60, seed=5))
print(f"trained depth-2 net (best epoch {log.best_epoch}, "
      f"val loss {log.best_val_loss:.3f})")
for steps in (10, 100, 1000):
    res = integrated_gradients(net, test.features, AttributionConfig(steps=steps))
    print(f"  m={steps:>5}: mean completeness gap {res.completeness_gap.mean():.2e}")
print()

# the two penalties evaluated on attribution output
res = integrated_gradients(net, test.features, AttributionConfig(steps=100))
test_stats = ar.feature_stats(test.features)
ccp = ar.ccp_variance_form(res.attributions)
ml2p = ar.ml2p_from_avg_gradients(res.avg_gradients, test_stats)
print(f"penalties of the trained net on the test split: CCP={ccp:.1f}  ML2P={ml2p:.3f}")

# for comparison, the closed-form OLS model's penalties on the same split
ols = ar.fit_ols(train)
contrib = ar.contributions_linear(ols, test.features)
print(f"penalties of the OLS model on the same split:   "
      f"CCP={ar.ccp_pairwise(contrib):.1f}  ML2P={ar.ml2p(ols.beta, test_stats):.3f}")
