"""Exact bias-variance decomposition and the evaluable bound curves.

For the ridge estimator with system matrix M = K + n*lambda*I and test
points x drawn from the data distribution:

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
cell's only large matrices.  It also accepts a `LinModel`, whose Gram matrix
and cross kernel `linearize.build_lin_kernel` and `lin_cross_kernel_matrix`
form densely; that is the reference the linearized route is checked
against, not a route of `run_sweep`.

Every linearized cell, with or without the radial curvature T, takes
`spectral_risk_mc` instead: K - gamma I = F D' F^T has rank <= p (d+1, or
d+3 under curvature), so one eigendecomposition of its smaller side gives
the fit and variance as filter sums over 1/(w + r), r = n*lambda + gamma,
and min(w) + r, the exact smallest eigenvalue of M.

`bound_v1` reads the spectrum of alpha 11^T + beta XX^T/d.  `_v1_spectrum`
takes it from the smaller Gram side of F = [sqrt(alpha) 1, sqrt(beta/d) X]:
the n x n core by `_xtilde_spectrum` when n <= d+1, else F^T F
((d+1) x (d+1)) padded with zeros.  Exact and curvature cells use it; a
spectral cell without curvature reads its own F F^T when n <= d+1 and still
runs the n x n `eigvalsh` of `_xtilde_spectrum` when n > d+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import SingularKernelError
from .kernels import Dataset, KernelSpec, kernel_matrix, cross_kernel_matrix, solve_regularized
from .linearize import (LinModel, LinParams, _add_curvature, _perturbation_form, _psi,
                        build_lin_kernel, lin_cross_kernel_matrix)
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


def _check_length(name: str, values: np.ndarray, expected: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (expected,):
        raise ValueError(f"{name} must be a vector of length {expected}, got shape "
                         f"{values.shape}")
    return values


def excess_risk_mc(data: Dataset, clean: np.ndarray, model: Union[KernelSpec, LinModel],
                   lam: float, sigma: float, test_points: np.ndarray,
                   clean_test: np.ndarray, noise_draws: int, seed) -> RiskEstimate:
    """Estimate risk by averaging over fresh noise draws; also return the
    analytic bias and variance.  risk - bias - variance is pure MC error,
    with its standard error reported in `mc_stderr`.

    One Cholesky solve against the m cross-kernel columns gives M^{-1} C^T
    (C the m x n cross kernel); since M is symmetric the test-point fits of
    the clean responses and the noise draws are (M^{-1} C^T)^T [clean, eps].
    The solve factors K in place and writes M^{-1} C^T over C^T, so no copy
    of either is made.
    """
    if noise_draws < 2:
        raise ValueError("noise_draws must be >= 2")
    Q = np.atleast_2d(np.asarray(test_points, dtype=float))
    if Q.shape[0] < 100:
        raise ValueError(f"need at least 100 test points, got {Q.shape[0]}")
    if Q.shape[1] != data.d:
        raise ValueError(f"test points have width {Q.shape[1]}, expected {data.d}")
    clean = _check_length("clean", clean, data.n)
    clean_test = _check_length("clean_test", clean_test, Q.shape[0])
    K, cross = gram_and_cross(model, data, Q)
    minv_cross = solve_regularized(K, data.n * lam, cross.T, overwrite=True)   # n x m
    del K, cross

    eps = _noise(seed, sigma, data.n, noise_draws)
    pred = minv_cross.T @ np.column_stack([clean, eps])           # m x (1+draws)
    variance = float(sigma ** 2 * np.mean(np.sum(minv_cross ** 2, axis=0)))
    return _mc_estimate(pred[:, 0] - clean_test, pred[:, 1:], variance)


@dataclass(frozen=True)
class QuerySample:
    """Test points Q (m x d) with their clean responses.

    `moments` is the (d+2) x (d+2) moment matrix Phi^T Phi of
    Phi = [1, Q, ||q||^2/d] that `spectral_risk_mc` weighs eigenvectors by:
    every linearized cross kernel, the curvature one included, is linear in
    a row of Phi.  It is computed on first use, so build one QuerySample per
    test sample and share it across cells.
    """

    points: np.ndarray
    clean: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be an m x d matrix, got shape {points.shape}")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "clean", _check_length("clean", self.clean, points.shape[0]))

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """||q||^2/d for every test point q."""
        return np.einsum("ij,ij->i", self.points, self.points) / self.points.shape[1]

    @cached_property
    def moments(self) -> np.ndarray:
        Q, norms = self.points, self.sq_norms
        m, d = Q.shape
        G = np.empty((d + 2, d + 2))
        G[0, 0] = m
        G[0, 1:d + 1] = G[1:d + 1, 0] = Q.sum(axis=0)
        G[1:d + 1, 1:d + 1] = Q.T @ Q
        G[-1, 0] = G[0, -1] = norms.sum()
        G[-1, 1:d + 1] = G[1:d + 1, -1] = Q.T @ norms
        G[-1, -1] = norms @ norms
        return G


def _xtilde_spectrum(params: LinParams, X: np.ndarray) -> np.ndarray:
    """Clipped descending spectrum of alpha 11^T + beta XX^T/d (n values),
    the input of `bound_v1`, from an n x n `eigvalsh`.  `_v1_spectrum` uses
    it when n <= d+1 and `spectral_risk_mc` when n > d+1; the tests use it
    as the n x n reference."""
    n, d = X.shape
    M = params.beta * (X @ X.T) / d + params.alpha
    w = np.linalg.eigvalsh(M)[::-1]
    return np.maximum(w, 0.0)


def _v1_spectrum(params: LinParams, X: np.ndarray) -> np.ndarray:
    """Clipped descending spectrum of alpha 11^T + beta XX^T/d (n values)
    from the smaller Gram side of F = [sqrt(alpha) 1, sqrt(beta/d) X]: the
    n x n core (`_xtilde_spectrum`) when n <= d+1, else F^T F
    ((d+1) x (d+1)) padded with the n-d-1 zeros of its rank deficit."""
    n, d = X.shape
    if n <= d + 1:
        return _xtilde_spectrum(params, X)
    F = np.column_stack([np.full(n, np.sqrt(params.alpha)), np.sqrt(params.beta / d) * X])
    w = np.linalg.eigvalsh(F.T @ F)
    spectrum = np.zeros(n)
    spectrum[:w.size] = np.maximum(w[::-1], 0.0)
    return spectrum


def _curvature_rotation(params: LinParams, c: float, d: int, s: np.ndarray,
                        V: np.ndarray, proj: np.ndarray):
    """Eigenpairs of F D' F^T from F^T F = V S V^T: F V = U S^1/2 with U
    orthonormal, so F D' F^T = U B U^T with B = S + G^T (D' - I) G,
    G = V S^1/2, where only G's rows of the columns (c 1, psi, psi∘psi)
    enter.  B = P W P^T gives the eigenvectors U P; returns W, F^T U P = G P
    and (U P)^T Y = P^T S^-1/2 `proj`, `proj` = V^T F^T Y (whose row is 0
    where s is, and is skipped there).
    """
    root_s = np.sqrt(np.maximum(s, 0.0))
    G = V * root_s
    scale = np.array([c, 1.0, 1.0])
    E = _perturbation_form(params) / np.outer(scale, scale) - np.eye(3)
    rows = G[[0, d + 1, d + 2]]
    B = rows.T @ E @ rows
    B[np.diag_indices_from(B)] += root_s ** 2
    w, P = np.linalg.eigh(B)
    inv_root = np.divide(1.0, root_s, out=np.zeros_like(root_s), where=root_s > 0)
    return w, G @ P, P.T @ (inv_root[:, None] * proj)


def spectral_risk_mc(data: Dataset, clean: np.ndarray, model: LinModel, lam: float,
                     sigma: float, test: QuerySample, noise_draws: int, seed):
    """`excess_risk_mc` for a linearized model, from one small-side
    eigendecomposition; returns (RiskEstimate, V1 spectrum).

    K - gamma I = F D' F^T with F = [c 1, sqrt(beta/d) X], c = sqrt(alpha),
    and D' = I; the constant column is dropped when alpha = 0 (it then needs
    h_pivot = 0).  Under `model.fits_curvature` F gains the columns psi and
    psi∘psi (p = d+3), c is 1 if alpha = 0, and D' - I is the form of
    `linearize.perturbation_inertia`, scaled by 1/c in its first row and
    column, minus I, on the (c 1, psi, psi∘psi) block.  The cross kernel,
    h_pivot + beta <q, x_i>/d minus beta/2 (psi_q + psi_i) under curvature,
    is Phi L F^T with Phi = [1, Q, ||q||^2/d], psi_q being affine in
    ||q||^2/d.  With r = n*lam + gamma, n <= p decomposes the n x n
    F D' F^T = U W U^T, and

        predictions = Phi L F^T U diag(1/(w+r)) U^T y,
        variance    = sigma^2/m sum_i ||Phi L F^T u_i||^2 / (w_i+r)^2.

    n > p decomposes F^T F = V S V^T, so that F^T U = V S^1/2 without
    curvature (w = s) and V S^1/2 P with it, P from one p x p rotation
    (`_curvature_rotation`); the null space of F^T never reaches a
    prediction.  ||Phi z||^2 is read off `test.moments`.  y runs over the
    clean responses and `noise_draws` noise vectors drawn from `seed`
    exactly as in `excess_risk_mc`, so the two agree draw for draw.
    min(w) + r, with w padded by the null space's zeros when n > p, is the
    smallest eigenvalue of K + n*lam I; a value <= 0 raises
    SingularKernelError with it.

    The spectrum is that of alpha 11^T + beta XX^T/d, clipped at 0 and
    sorted descending: without curvature the eigenvalues of F F^T when
    n <= p, otherwise a separate `eigvalsh` of that n x n matrix; with
    curvature `_v1_spectrum`'s.  Counts and test-point numbers are not
    checked here; `ExperimentConfig` validates them.
    """
    params = model.params
    X = data.features
    n, d = X.shape
    r = n * lam + model.gamma
    if not r > 0:
        raise ValueError("n*lam + gamma must be > 0")
    Y = np.column_stack([_check_length("clean", clean, n), _noise(seed, sigma, n, noise_draws)])
    curved = model.fits_curvature

    root = np.sqrt(params.beta / d)
    if params.alpha > 0 or curved:
        c = np.sqrt(params.alpha) if params.alpha > 0 else 1.0
        columns = [np.full(n, c), root * X]
        a = np.concatenate([[params.h_pivot / c], np.full(d, root)])
        S = test.moments[:d + 1, :d + 1]
    elif params.h_pivot == 0:
        columns, a, S = [root * X], np.full(d, root), test.moments[1:d + 1, 1:d + 1]
    else:
        raise ValueError("a constant cross kernel term needs alpha > 0")
    if curved:
        psi = _psi(X, params.tau)
        columns += [psi, psi * psi]
        a[0] = (params.h_pivot + 0.5 * params.beta * params.tau) / c
        S = test.moments
    F = np.column_stack(columns)
    del columns                 # holds an n x d scaled copy of X

    def weigh(V):
        """L V: V's rows weighed onto the columns of Phi."""
        Z = a[:, None] * V[:a.size]
        if curved:
            Z[0] -= 0.5 * params.beta * V[d + 1]
            Z = np.vstack([Z, -0.5 * params.beta / c * V[0]])
        return Z

    if n <= F.shape[1]:
        core = params.beta * (X @ X.T) / d + params.alpha      # F D' F^T
        if curved:
            _add_curvature(core, params, psi)
        w, U = np.linalg.eigh(core)
        Z = weigh(F.T @ U)
        proj = U.T @ Y
        mass = 1.0 / (w + r) ** 2
        smallest = w[0] + r
        spectrum = _v1_spectrum(params, X) if curved else np.maximum(w[::-1], 0.0)
    else:
        w, V = np.linalg.eigh(F.T @ F)
        proj = V.T @ (F.T @ Y)
        if curved:
            w, V, proj = _curvature_rotation(params, c, d, w, V, proj)
            mass = 1.0 / (w + r) ** 2
        else:
            mass = w / (w + r) ** 2
        Z = weigh(V)
        smallest = min(w[0], 0.0) + r
        # n x n on purpose: see CHANGES.md's FOUND entry on _xtilde_spectrum, ROADMAP item 1
        spectrum = _v1_spectrum(params, X) if curved else _xtilde_spectrum(params, X)
    if not smallest > 0:
        raise SingularKernelError(f"system matrix is not positive definite (smallest "
                                  f"eigenvalue {smallest:.3e})", float(smallest))
    coef = Z @ (proj / (w + r)[:, None])

    Q = test.points                                           # pred: m x (1+draws)
    pred = Q @ coef[1:d + 1] + coef[0] if params.alpha > 0 or curved else Q @ coef
    if curved:
        pred += test.sq_norms[:, None] * coef[-1]
    variance = float(sigma ** 2 * np.sum(mass * np.einsum("ij,ij->j", Z, S @ Z))
                     / Q.shape[0])
    est = _mc_estimate(pred[:, 0] - test.clean, pred[:, 1:], variance)
    return est, spectrum


def bound_v1(spec: Union[Spectrum, np.ndarray], beta: float, d: int, n: int,
             lam: float, gamma: float, sigma: float) -> float:
    """Variance bound V1 = sigma^2 * beta / d * N(spectrum, n*lam + gamma)."""
    if sigma == 0:
        return 0.0
    b = n * lam + gamma
    if not b > 0:
        raise ValueError("n*lam + gamma must be > 0")
    return float(sigma ** 2 * beta / d * quantity_N(spec, b))


# V2's moment settings: moment-order surplus m of the entry distribution,
# which sets theta = 1/2 - 2/(8 + m) = 3/8, and log-slack eps.
MOMENT_M = 8.0
MOMENT_EPSILON = 0.01
THETA_MOMENT = 0.5 - 2.0 / (8.0 + MOMENT_M)


def bound_v2(family: str, n: int, lam: float, gamma: float, d: int,
             sigma: float) -> float:
    """Residual variance term V2 (shape curve; constants set to 1).

    inner-product: sigma^2 log^{2+4eps} d / ((n lam + gamma)^2 d^{4 theta - 1})
    radial:        sigma^2 d^{-2 theta} log^{1+eps} d / (n lam + gamma)^2

    with theta = THETA_MOMENT and eps = MOMENT_EPSILON.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if sigma == 0:
        return 0.0
    b = n * lam + gamma
    if not b > 0:
        raise ValueError("n*lam + gamma must be > 0")
    th = THETA_MOMENT
    logd = np.log(d)
    if family == "inner_product":
        return float(sigma ** 2 * logd ** (2 + 4 * MOMENT_EPSILON)
                     / (b ** 2 * d ** (4 * th - 1)))
    if family == "radial":
        return float(sigma ** 2 * d ** (-2 * th) * logd ** (1 + MOMENT_EPSILON) / b ** 2)
    raise ValueError(f"unknown kernel family {family!r}")


def bias_ref(n: int, theta: float, r: float) -> float:
    """Reference bias decay curve n^(-2 theta r)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < r <= 1:
        raise ValueError("r must lie in (0, 1]")
    return float(float(n) ** (-2.0 * theta * r))
