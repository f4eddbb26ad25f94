"""What the contribution-covariance penalty rewards and punishes.

A linear model's prediction decomposes into per-feature contributions
beta_j * x_j.  The CCP sums n * -cov over contribution pairs: anticorrelated
(cancelling) contributions are penalized, reinforcing ones are rewarded
(the penalty goes negative).  A few corner cases make the geometry vivid:

* one predictor        -> no pairs, penalty exactly 0;
* orthogonal features  -> penalty 0 for any coefficients, and the penalized
                          solution IS the OLS solution at every lambda;
* near-duplicate pair  -> OLS splits the signal arbitrarily; the penalty
                          drives the two coefficients together;
* lambda -> 1          -> the solve degenerates into k univariate regressions.
"""

import numpy as np

import ablatereg as ar

rng = np.random.default_rng(7)

# one predictor: zero penalty by construction
m = ar.LinearModel(beta=np.array([3.0]), intercept=0.0)
c = ar.contributions_linear(m, rng.normal(size=(100, 1)))
print(f"single feature: ccp = {ar.ccp_pairwise(c)}")

# reinforcing contributions: the penalty is a reward (negative)
c = np.array([[1.0, 1.0], [-1.0, -1.0]])
print(f"perfectly reinforcing pair: ccp = {ar.ccp_variance_form(c)}  (a reward)")

# cancelling contributions: positive penalty
c = np.array([[1.0, -1.0], [-1.0, 1.0]])
print(f"perfectly cancelling pair:  ccp = {ar.ccp_variance_form(c)}")
print()

# near-duplicate features: watch the coefficient gap close as lambda grows
n = 500
z = rng.standard_normal(n)
x2 = 0.999 * z + np.sqrt(1 - 0.999**2) * rng.standard_normal(n)
X = np.column_stack([z, x2])
y = z + 0.3 * x2 + 0.05 * rng.standard_normal(n)
d = ar.Dataset(features=X, response=y, column_names=("x1", "x2"),
               column_kinds=("numeric", "numeric"), task="regression")
print("two features with correlation ~0.999:")
print(f"  {'lambda':>7} {'beta1':>8} {'beta2':>8} {'gap':>8} {'ccp objective':>14}")
for lam in (0.0, 0.3, 0.6, 0.9):
    fit = ar.fit_ccp(d, lam)
    b = fit.model.beta
    print(f"  {lam:>7.1f} {b[0]:>8.3f} {b[1]:>8.3f} {abs(b[0]-b[1]):>8.3f} "
          f"{fit.objective_value:>14.3f}")
print()

# lambda -> 1: k single-variable regressions
d3 = ar.synth_correlated(300, 3, 0.7, (1.0, -1.0, 2.0), 1.0, seed=8)
Xc = d3.features - d3.features.mean(axis=0)
yc = d3.response - d3.response.mean()
univariate = np.array([(Xc[:, j] @ yc) / (Xc[:, j] @ Xc[:, j]) for j in range(3)])
print(f"fit_ccp at lambda=1-1e-9:    {ar.fit_ccp(d3, 1 - 1e-9).model.beta}")
print(f"k univariate regressions:    {univariate}")
print()

# the modified L2 penalty scales squared coefficients by second moments, so
# it coincides with classical ridge once features are standardized
ds, _ = ar.standardize(d3)
lam = 0.4
fit = ar.fit_ml2p(ds, lam)
print(f"ml2p on standardized data at lambda={lam}: beta = {fit.model.beta}")
print(f"  equivalent classical ridge parameter: n*lam/(1-lam) = "
      f"{ds.n * lam / (1 - lam):.1f}")
