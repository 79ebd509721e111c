"""Exact bias-variance decomposition and the evaluable bound curves.

For the ridge estimator with system matrix M = K + ridge*I (n*lambda, or a
fixed lambda itself) and test points x drawn from the data distribution:

    bias     = E_x [ k(x,X)^T M^{-1} f(X) - f(x) ]^2
    variance = sigma^2 E_x || M^{-1} k(x,X) ||^2      (homoskedastic noise)
    risk     = bias + variance                        (exact identity)

Expectations over x are Monte-Carlo averages over a shared test sample.
The risk can also be estimated directly by averaging over fresh noise
draws; the gap to bias + variance is pure Monte-Carlo error.

`excess_risk_mc` computes all three for an exact kernel (`KernelSpec`) by
one Cholesky solve against the m cross-kernel columns: M is symmetric, so
the test-point fits of the clean responses and of the noise draws are read
off M^{-1} C^T (C the m x n cross kernel) without solving for them.  The
factor overwrites K and the solution overwrites C^T, so K and C are the
cell's only large matrices.  Like the kernels and the factor, the
predictions are formed on scipy's BLAS (`kernels.scipy_product`), so the
route does not wake numpy's thread pool.  It also accepts a `LinModel`,
whose Gram matrix and cross kernel `linearize.build_lin_kernel` and
`lin_cross_kernel_matrix` form densely; that is the reference the
linearized route is checked against, not a route of `run_sweep`.

Every linearized cell, with or without the radial curvature T, takes
`spectral_risk_mc`, as does an exact affine kernel, its own linearization:
K - gamma I = F (I + E) F^T (`linearize.LinFactor`) has rank <= p (d+1, or
d+3 under curvature), so one eigendecomposition of its smaller side gives
the fit and variance as filter sums over 1/(w + r), r = ridge + gamma
(1/w above a roundoff floor at r = 0: the min-norm interpolant), and
min(w) + r, the exact smallest eigenvalue of M.
Both routes read the clean responses of the training set and of the test
sample (a `QuerySample`) from `kernels.Dataset`s, checked when built; one
helper checks the test sample's size against the cell and the scalars.

Both bounds take the effective ridge b = ridge + gamma, the paper's
variable.  `bound_v1` reads the spectrum of alpha 11^T + beta XX^T/d,
`LinFactor.core_spectrum`: from its smaller Gram side, the n x n core when
n <= p, else its block of F^T F padded with zeros.  Cholesky cells take it
from a factor without curvature (p = d+1), on scipy's BLAS and LAPACK as
the rest of their cell, and spectral cells from their own fit
(`spectral_risk_mc` names the one exception, an n x n `eigvalsh`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import SingularKernelError
from .kernels import (Dataset, KernelSpec, cross_kernel_matrix, kernel_matrix, scipy_product,
                      solve_regularized)
from .linearize import LinModel, build_lin_kernel, lin_cross_kernel_matrix, lin_factors
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


def gram_and_cross(model: Union[KernelSpec, LinModel], data: Dataset, queries: np.ndarray):
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
    standard error."""
    bias = float(np.mean(bias_resid ** 2))
    resid = bias_resid[:, None] + noise_pred                  # m x draws
    per_draw = np.mean(resid ** 2, axis=0)
    risk = float(np.mean(per_draw))
    stderr = float(np.std(per_draw, ddof=1) / np.sqrt(per_draw.shape[0]))
    return RiskEstimate(risk=risk, bias=bias, variance=variance, mc_stderr=stderr)


def _noise(seed, sigma: float, n: int, noise_draws: int) -> np.ndarray:
    return sigma * np.random.default_rng(seed).standard_normal((n, noise_draws))


def _check_cell(data: Dataset, ridge: float, sigma: float, test: QuerySample,
                noise_draws: int) -> None:
    """Check a cell's scalars and that its test sample is at least 100
    points of the training width."""
    if noise_draws < 2:
        raise ValueError(f"noise_draws must be >= 2, got {noise_draws}")
    for name, value in (("ridge", ridge), ("sigma", sigma)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    if test.n < 100:
        raise ValueError(f"the test sample must be at least 100 points, got {test.n}")
    if test.d != data.d:
        raise ValueError(f"test points must be {data.d} wide, got width {test.d}")


def excess_risk_mc(data: Dataset, model: Union[KernelSpec, LinModel], ridge: float,
                   sigma: float, test: QuerySample, noise_draws: int, seed) -> RiskEstimate:
    """Estimate risk by averaging over fresh noise draws; also return the
    analytic bias and variance.  risk - bias - variance is pure MC error,
    with its standard error reported in `mc_stderr`.

    One Cholesky solve of M = K + ridge*I against the m cross-kernel columns
    gives M^{-1} C^T (C the m x n cross kernel, against `test.features`); since
    M is symmetric the test-point fits of the clean responses `data.responses`
    and of the noise draws eps (from `seed`) are (M^{-1} C^T)^T [data.responses, eps].
    The solve factors K in place and writes M^{-1} C^T over C^T, so no copy
    of either is made.  That product, as every one of the exact kernel's,
    runs on scipy's BLAS.
    """
    _check_cell(data, ridge, sigma, test, noise_draws)
    K, cross = gram_and_cross(model, data, test.features)
    minv_cross = solve_regularized(K, ridge, cross.T)   # n x m
    del K, cross

    eps = _noise(seed, sigma, data.n, noise_draws)
    Y = np.column_stack([data.responses, eps])                    # n x (1+draws)
    pred = scipy_product(Y.T, minv_cross).T                       # m x (1+draws)
    variance = float(sigma ** 2 * np.mean(np.sum(minv_cross ** 2, axis=0)))
    return _mc_estimate(pred[:, 0] - test.responses, pred[:, 1:], variance)


class QuerySample(Dataset):
    """Test points Q (m x d), its `features`, and their clean responses, its
    `responses`, checked as training data is.

    `moments` is the (d+2) x (d+2) moment matrix Phi^T Phi of
    Phi = [1, Q, ||q||^2/d] that `spectral_risk_mc` weighs eigenvectors by:
    every linearized cross kernel, the curvature one included, is linear in
    a row of Phi.  It is computed on first use, so build one QuerySample per
    test sample and share it across cells.
    """

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """||q||^2/d for every test point q."""
        return np.einsum("ij,ij->i", self.features, self.features) / self.d

    @cached_property
    def moments(self) -> np.ndarray:
        Q, norms = self.features, self.sq_norms
        m, d = Q.shape
        G = np.empty((d + 2, d + 2))
        G[0, 0] = m
        G[0, 1:d + 1] = G[1:d + 1, 0] = Q.sum(axis=0)
        G[1:d + 1, 1:d + 1] = Q.T @ Q
        G[-1, 0] = G[0, -1] = norms.sum()
        G[-1, 1:d + 1] = G[1:d + 1, -1] = Q.T @ norms
        G[-1, -1] = norms @ norms
        return G


def spectral_risk_mc(data: Dataset, model: LinModel, ridge: float, sigma: float,
                     test: QuerySample, noise_draws: int, seed):
    """`excess_risk_mc` for a linearized model, from one small-side
    eigendecomposition of its `linearize.LinFactor`; returns
    (RiskEstimate, V1 spectrum).

    With K - gamma I = F (I + E) F^T, the cross kernel Phi L F^T and
    r = ridge + gamma, n <= p decomposes the n x n F (I + E) F^T = U W U^T,
    and

        predictions = Phi L F^T U diag(1/(w+r)) U^T y,
        variance    = sigma^2/m sum_i ||Phi L F^T u_i||^2 / (w_i+r)^2.

    n > p decomposes F^T F = V S V^T, so that F^T U = V S^1/2 without
    curvature (w = s) and V S^1/2 P with it, P from one p x p rotation
    (`LinFactor.rotation`); the null space of F^T never reaches a
    prediction.  ||Phi z||^2 is read off `test.moments`.  y runs over the
    clean responses and `noise_draws` noise vectors drawn from `seed`
    exactly as in `excess_risk_mc`, so the two agree draw for draw.
    min(w) + r, with w padded by the null space's zeros when n > p, is the
    smallest eigenvalue of K + ridge I; a value <= 0 raises SingularKernelError
    with it.  At r = 0 the fit is the min-norm interpolant, 1/w above
    `_roundoff_floor` of size max(n, p), and only min(w) below minus it raises.

    The spectrum is that of alpha 11^T + beta XX^T/d, clipped at 0 and
    sorted descending: without curvature the eigenvalues of F F^T when
    n <= p, otherwise a separate n x n `eigvalsh` of it, the one V1 spectrum
    not read from the smaller side (README "Known limitations"); with
    curvature `LinFactor.core_spectrum` of the fit's own core before T (n <= p)
    or of its own F^T F.
    """
    _check_cell(data, ridge, sigma, test, noise_draws)
    Q, X = test.features, data.features
    n, d = X.shape
    r = ridge + model.gamma
    Y = np.column_stack([data.responses, _noise(seed, sigma, n, noise_draws)])
    curved = model.fits_curvature
    factor = lin_factors(model, X)
    F, phi = factor.F, factor.phi
    # before the fit: a sample's first cell forms its long-lived moments here, so
    # they do not sit above the fit's freed temporaries (4 MB more peak RSS)
    S = test.moments[phi, phi]

    if n <= F.shape[1]:
        core = factor.core()
        if curved:
            spectrum = factor.core_spectrum(core)
            factor.add_curvature(core)                  # core = F (I + E) F^T
        w, U = np.linalg.eigh(core)
        Z = factor.weigh(F.T @ U)
        proj = U.T @ Y
        smallest = w[0] + r
        if not curved:
            spectrum = np.maximum(w[::-1], 0.0)
    else:
        gram = F.T @ F
        w, V = np.linalg.eigh(gram)
        proj = V.T @ (F.T @ Y)
        if curved:
            spectrum = factor.core_spectrum(gram)
            w, V, proj = factor.rotation(w, V, proj)
        else:
            # n x n on purpose: CHANGES.md's FOUND entry on the n x n V1, ROADMAP item 15
            spectrum = factor.core_spectrum(factor.core())
        Z = factor.weigh(V)
        smallest = min(w[0], 0.0) + r
    floor = _roundoff_floor(w, max(n, F.shape[1])) if r == 0 else 0.0
    if not smallest > -floor:
        raise SingularKernelError(f"system matrix is not positive definite (smallest "
                                  f"eigenvalue {smallest:.3e})", float(smallest))
    keep = w + r > floor
    gain = w if n > F.shape[1] and not curved else 1.0
    mass = np.divide(gain, (w + r) ** 2, out=np.zeros_like(w), where=keep)
    coef = Z @ np.divide(proj, (w + r)[:, None], out=np.zeros_like(proj), where=keep[:, None])

    pred = Q @ coef[1:d + 1] + coef[0] if phi.start == 0 else Q @ coef   # Phi[:, phi] coef
    if phi.stop == d + 2:
        pred += test.sq_norms[:, None] * coef[-1]
    variance = float(sigma ** 2 * np.sum(mass * np.einsum("ij,ij->j", Z, S @ Z))
                     / Q.shape[0])
    est = _mc_estimate(pred[:, 0] - test.responses, pred[:, 1:], variance)
    return est, spectrum


def _roundoff_floor(values: np.ndarray, size: int) -> float:
    """Eigenvalues of a size x size matrix at or below this are roundoff of 0."""
    return size * np.finfo(float).eps * np.abs(values).max()


def bound_v1(spec: Union[Spectrum, np.ndarray], beta: float, d: int, b: float,
             sigma: float) -> float:
    """Variance bound V1 = sigma^2 beta/d N(spectrum, b); at b = 0 the ridgeless fit's
    min-norm filter: sum 1/l over l above `_roundoff_floor`, size max(len(l), d+1)."""
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
