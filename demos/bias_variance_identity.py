"""The exact risk = bias + variance decomposition, checked by Monte Carlo.

The noise-averaged excess risk of the ridge estimator splits exactly into a
squared bias (clean-fit error) and a noise variance term.  Estimating the
risk by brute force over fresh noise draws and comparing against the two
analytic terms leaves nothing but Monte-Carlo error.

Run:  python demos/bias_variance_identity.py
"""

import dataclasses

import numpy as np

from krrlab import (Dataset, KernelSpec, QuerySample, TargetSpec, evaluate_target,
                    excess_risk_mc, linearize_params, make_covariance,
                    sample_dataset, sample_features)

d = 200
cov = make_covariance(d, "harmonic")
target = TargetSpec(noise_sigma=1.0)
test_X = sample_features(cov, 1000, 99)
test = QuerySample(test_X, evaluate_target(target, test_X))

spec = KernelSpec.gaussian()
# the linearized model without its implicit ridge: the schedule is the only one
model = dataclasses.replace(linearize_params(spec, cov.tau, cov.trace_ratio), gamma=0.0)

print("n     risk        bias + var   gap/stderr")
for n in (50, 100, 200, 400):
    data, clean = sample_dataset(cov, n, target, n)
    lam = 0.01 * n ** (-2 / 3)
    est = excess_risk_mc(Dataset(data.features, clean), model, n * lam, 1.0, test,
                         noise_draws=40, seed=n + 1)
    gap = est.risk - est.bias - est.variance
    print(f"{n:<5d} {est.risk:<11.5f} {est.bias + est.variance:<12.5f} "
          f"{gap / est.mc_stderr:+.2f}")

print("\nthe gap is pure Monte-Carlo noise: a few standard errors at most")
