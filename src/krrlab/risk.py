"""Exact bias-variance decomposition and the evaluable shape curves V1, V2.

For the ridge estimator with system matrix M = K + ridge*I (n*lambda, or a
fixed lambda itself) and test points x drawn from the data distribution:

    bias     = E_x [ k(x,X)^T M^{-1} f(X) - f(x) ]^2
    variance = sigma^2 E_x || M^{-1} k(x,X) ||^2      (homoskedastic noise)
    risk     = bias + variance                        (exact identity)

Expectations over x are Monte-Carlo averages over a shared test sample.
The risk can also be estimated directly by averaging over fresh noise
draws; the gap to bias + variance is pure Monte-Carlo error.

`excess_risk_mc` computes all three for an exact kernel (`KernelSpec`) by
one Cholesky factorization of M and solves against the m cross-kernel
columns: M is symmetric, so the test-point fits of the clean responses and
of the noise draws are read off M^{-1} C^T (C the m x n cross kernel)
without solving for them.  The factor overwrites K, and C is formed,
solved over and dropped one fixed block of test points at a time, so K is
the cell's only matrix of size n.  Like the kernels and the factor, the
predictions are formed on scipy's BLAS (`kernels.scipy_product`), so the
route does not wake numpy's thread pool.  It also accepts a `LinParams`,
whose dense Gram matrix (`linearize.build_lin_kernel`) and cross-kernel
blocks (`lin_cross_kernel_matrix`) make it the reference the linearized
route is checked against, not a route of `run_sweep`.

Every linearized cell takes `spectral_risk_mc`, as does an exact affine
kernel, its own linearization: K - gamma I = F F^T (`linearize.LinFactor`)
has rank <= p = d+1, F's column count for every kernel, so one
eigendecomposition of its smaller side (`LinFactor.eigen`) gives the fit and
variance as filter sums over 1/(w + r), r = ridge + gamma (1/w above a
roundoff floor at r = 0: the min-norm interpolant), and min(w) + r, the
exact smallest eigenvalue of M.  The layouts of F and of the test points'
Phi = [1, Q] stay in `linearize`: this module keeps only the filters.
Both routes read the clean responses of the training set and of the test
sample (a `QuerySample`) from `kernels.Dataset`s, checked when built; one
helper checks the test sample's size against the cell and the scalars.

V1 and V2, shape curves with the paper's bound forms and constants 1, not
bounds (`bound_v1`), take the effective ridge b = ridge + gamma, the
paper's variable.  `bound_v1` reads the spectrum of alpha 11^T + beta XX^T/d,
`LinFactor.core_spectrum`: from its smaller Gram side, the n x n core when
n <= p, else G^T G padded with zeros, on scipy's BLAS and LAPACK as the
rest of a Cholesky cell.  Spectral cells take it from their own fit, the
eigenvalues of their n x n core when n <= p (`LinFactor.eigen` names the
one exception, an n x n `eigvalsh` when n > p).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import SingularKernelError
from .kernels import (Dataset, KernelSpec, cross_kernel_matrix, kernel_matrix, scipy_product,
                      solve_factored, solve_regularized)
from .linearize import (LinParams, build_lin_kernel, lin_cross_kernel_matrix, lin_factors,
                        phi_moments)
from .spectral import Spectrum, quantity_N

__all__ = [
    "RiskEstimate",
    "QuerySample",
    "gram_and_cross",
    "excess_risk_mc",
    "spectral_risk_mc",
    "bound_v1",
    "bound_v2",
    "bias_ref",
]

MIN_TEST_POINTS = 100       # the smallest test sample of a cell, and of a sweep's config


def gram_and_cross(model: Union[KernelSpec, LinParams], data: Dataset, queries: np.ndarray):
    """Gram matrix on `data` and m x n cross kernel against `queries`."""
    if isinstance(model, KernelSpec):
        return kernel_matrix(model, data), cross_kernel_matrix(model, data, queries)
    return build_lin_kernel(model, data), lin_cross_kernel_matrix(model, data, queries)


@dataclass(frozen=True)
class RiskEstimate:
    risk: float
    bias: float
    variance: float
    mc_stderr: float


def _mc_estimate(bias_resid: np.ndarray, noise_pred: np.ndarray,
                 variance: float) -> RiskEstimate:
    """Bias from the clean-fit residual on the test sample, and the risk
    averaged over the noise draws (columns of `noise_pred`) with its
    standard error, exactly 0 when every draw gives the same risk (sigma = 0),
    where `np.std` would read the roundoff of their mean.  Residuals too
    large to square give inf or nan without a warning; the sweep reports
    such curves itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        bias = float(np.mean(bias_resid ** 2))
        resid = bias_resid[:, None] + noise_pred                  # m x draws
        per_draw = np.mean(resid ** 2, axis=0)
        risk = float(np.mean(per_draw))
        stderr = (0.0 if np.ptp(per_draw) == 0       # nan when a draw is inf or nan
                  else float(np.std(per_draw, ddof=1) / np.sqrt(per_draw.shape[0])))
    return RiskEstimate(risk=risk, bias=bias, variance=variance, mc_stderr=stderr)


def _noise(seed, sigma: float, n: int, noise_draws: int) -> np.ndarray:
    return sigma * np.random.default_rng(seed).standard_normal((n, noise_draws))


def _check_cell(data: Dataset, ridge: float, sigma: float, test: QuerySample,
                noise_draws: int) -> None:
    """Check a cell's scalars and that its test sample is at least
    `MIN_TEST_POINTS` points of the training width."""
    if noise_draws < 2:
        raise ValueError(f"noise_draws must be >= 2, got {noise_draws}")
    for name, value in (("ridge", ridge), ("sigma", sigma)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    if test.n < MIN_TEST_POINTS:
        raise ValueError(f"the test sample must be at least {MIN_TEST_POINTS} points, "
                         f"got {test.n}")
    if test.d != data.d:
        raise ValueError(f"test points must be {data.d} wide, got width {test.d}")


# Test points per block of `excess_risk_mc`'s cross kernel, 2 MB at n = 2000.
# Narrower solves run slower: against one n = 2000 factor on 2 cores, 600
# columns solved 96, 128 or 256 at a time took 1.22, 1.18 and 1.08 times as
# long as in one solve.
_TEST_BLOCK = 128


def excess_risk_mc(data: Dataset, model: Union[KernelSpec, LinParams], ridge: float,
                   sigma: float, test: QuerySample, noise_draws: int, seed) -> RiskEstimate:
    """Estimate risk by averaging over fresh noise draws; also return the
    analytic bias and variance.  risk - bias - variance is pure MC error,
    with its standard error reported in `mc_stderr`.

    M = K + ridge*I is factored once, in place in K, by the solve of the
    first block of `_TEST_BLOCK` test points.  The test sample is then walked
    in such blocks: each forms its rows C_b of the cross kernel (against
    `test.features`), solves M^{-1} C_b^T over C_b^T against K's factor, and
    adds its rows of the predictions and its squared solution norms to the
    totals before it is dropped, so K is the cell's only matrix of size n.
    Since M is symmetric the test-point fits of the clean responses
    `data.responses` and of the noise draws eps (from `seed`) are
    (M^{-1} C_b^T)^T [data.responses, eps].  That product, as every one of
    the exact kernel's, runs on scipy's BLAS.
    """
    _check_cell(data, ridge, sigma, test, noise_draws)
    if isinstance(model, KernelSpec):
        K, cross = kernel_matrix(model, data), cross_kernel_matrix
    else:
        K, cross = build_lin_kernel(model, data), lin_cross_kernel_matrix
    Y = np.column_stack([data.responses, _noise(seed, sigma, data.n, noise_draws)])
    pred = np.empty((test.n, Y.shape[1]))                         # m x (1+draws)
    sq_norms = np.empty(test.n)
    for lo in range(0, test.n, _TEST_BLOCK):
        rows = slice(lo, lo + _TEST_BLOCK)
        sol = cross(model, data, test.features[rows]).T           # C_b^T, n x block
        sol = solve_regularized(K, ridge, sol) if lo == 0 else solve_factored(K, sol)
        pred[rows] = scipy_product(Y.T, sol).T
        sol *= sol
        sq_norms[rows] = sol.sum(axis=0)
        del sol                     # before the next block is formed
    del K
    variance = float(sigma ** 2 * np.mean(sq_norms))
    return _mc_estimate(pred[:, 0] - test.responses, pred[:, 1:], variance)


class QuerySample(Dataset):
    """Test points Q (m x d), its `features`, and their clean responses, its
    `responses`, checked as training data is.

    `moments` is the (d+1) x (d+1) moment matrix Phi^T Phi of Phi = [1, Q]
    (`linearize.phi_moments`) that `spectral_risk_mc` weighs eigenvectors
    by: every linearized cross kernel is linear in a row of Phi.  It is
    computed on first use, so build one QuerySample per test sample and
    share it across cells.
    """

    @cached_property
    def moments(self) -> np.ndarray:
        return phi_moments(self.features)


def spectral_risk_mc(data: Dataset, params: LinParams, ridge: float, sigma: float,
                     test: QuerySample, noise_draws: int, seed):
    """`excess_risk_mc` for a linearized model, from one small-side
    eigendecomposition of its `linearize.LinFactor`; returns
    (RiskEstimate, V1 spectrum).

    With K - gamma I = F F^T, the cross kernel Phi L F^T,
    r = ridge + gamma and F F^T = U W U^T without its null space
    (`LinFactor.eigen`, which also gives the V1 spectrum),

        predictions = Phi L F^T U diag(1/(w+r)) U^T y,
        variance    = sigma^2/m sum_i ||Phi L F^T u_i||^2 / (w_i+r)^2,

    with Phi's products read through `LinFactor.predict` and `test.moments`.
    y runs over the clean responses and `noise_draws` noise vectors drawn
    from `seed` exactly as in `excess_risk_mc`, so the two agree draw for
    draw.  min(w) + r, with w padded by the null space's zeros when n > d+1,
    is the smallest eigenvalue of K + ridge I; a value <= 0, which only
    roundoff can give, raises SingularKernelError with it.  At r = 0 the
    fit is the min-norm interpolant, 1/w above `_roundoff_floor` of size
    max(n, d+1), as `bound_v1`'s, and only min(w) below minus it raises.
    """
    _check_cell(data, ridge, sigma, test, noise_draws)
    n = data.n
    r = ridge + params.gamma
    Y = np.column_stack([data.responses, _noise(seed, sigma, n, noise_draws)])
    factor = lin_factors(params, data.features)
    # before the fit: a sample's first cell forms its long-lived moments here, so
    # they do not sit above the fit's freed temporaries (4 MB more peak RSS)
    S = test.moments
    w, Z, proj, spectrum = factor.eigen(Y)
    smallest = (w[0] if w.size == n else min(w[0], 0.0)) + r
    floor = _roundoff_floor(w, max(n, data.d + 1)) if r == 0 else 0.0
    if not smallest > -floor:
        raise SingularKernelError(f"system matrix is not positive definite (smallest "
                                  f"eigenvalue {smallest:.3e})", float(smallest))
    keep = w + r > floor
    mass = np.divide(1.0, (w + r) ** 2, out=np.zeros_like(w), where=keep)
    coef = Z @ np.divide(proj, (w + r)[:, None], out=np.zeros_like(proj), where=keep[:, None])
    pred = factor.predict(test, coef)
    variance = float(sigma ** 2 * np.sum(mass * np.einsum("ij,ij->j", Z, S @ Z)) / test.n)
    est = _mc_estimate(pred[:, 0] - test.responses, pred[:, 1:], variance)
    return est, spectrum


def _roundoff_floor(values: np.ndarray, size: int) -> float:
    """Eigenvalues of a size x size matrix at or below this are roundoff of 0."""
    return size * np.finfo(float).eps * np.abs(values).max()


def bound_v1(spec: Union[Spectrum, np.ndarray], beta: float, d: int, b: float,
             sigma: float) -> float:
    """Variance shape curve V1 = sigma^2 beta/d N(spectrum, b); at b = 0 the ridgeless fit's
    min-norm filter: sum 1/l over l above `_roundoff_floor`, size max(len(l), d+1).  Not a
    bound: at d = 200 and default flags it is 0.26 of the measured variance at n = 50."""
    if sigma == 0:
        return 0.0
    if b != 0:
        return float(sigma ** 2 * beta / d * quantity_N(spec, b))
    v = spec.values if isinstance(spec, Spectrum) else Spectrum(spec).values
    floor = _roundoff_floor(v, max(len(v), d + 1))
    return float(sigma ** 2 * beta / d * np.sum(1.0 / v[v > floor]))


# V2's moment settings: moment-order surplus m of the entry distribution,
# which sets theta = 1/2 - 2/(8 + m) = 3/8, and log-slack eps.
MOMENT_M = 8.0
MOMENT_EPSILON = 0.01
THETA_MOMENT = 0.5 - 2.0 / (8.0 + MOMENT_M)


def bound_v2(family: str, d: int, b: float, sigma: float) -> float:
    """Residual variance term V2 at the effective ridge b (shape curve; constants set to 1).

    inner-product: sigma^2 log^{2+4eps} d / (b^2 d^{4 theta - 1})
    radial:        sigma^2 d^{-2 theta} log^{1+eps} d / b^2

    with theta = THETA_MOMENT and eps = MOMENT_EPSILON, and inf at b = 0.
    """
    if family not in ("inner_product", "radial"):
        raise ValueError(f"unknown kernel family {family!r}")
    if d < 2:
        raise ValueError("d must be >= 2")
    if sigma == 0:
        return 0.0
    if not b >= 0:
        raise ValueError("b must be >= 0")
    if b == 0:
        return np.inf
    th = THETA_MOMENT
    logd = np.log(d)
    if family == "inner_product":
        return float(sigma ** 2 * logd ** (2 + 4 * MOMENT_EPSILON)
                     / (b ** 2 * d ** (4 * th - 1)))
    return float(sigma ** 2 * d ** (-2 * th) * logd ** (1 + MOMENT_EPSILON) / b ** 2)


def bias_ref(n: int, theta: float, r: float) -> float:
    """Reference bias decay curve n^(-2 theta r)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    return float(float(n) ** (-2.0 * theta * r))
