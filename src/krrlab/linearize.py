"""High-dimensional linearization of kernel matrices.

For data with d large, an inner-product or radial kernel matrix is well
approximated in spectral norm by

    K_lin + T,   K_lin = alpha * 11^T + beta * X X^T / d + gamma * I,

where (alpha, beta, gamma) depend on the profile h evaluated at the pivot
(0 for inner-product kernels, 2*tau for radial ones, tau = tr(Sigma)/d),
and T is a curvature correction that is nonzero only for the radial family:

    T = h'(2 tau) * A + h''(2 tau)/2 * (A ∘ A),   A = 1 psi^T + psi 1^T,

with psi_i = ||x_i||^2/d - tau.  The perturbation alpha 11^T + T of the
scaled Gram matrix lies in span{1, psi, psi∘psi}, so it has rank <= 3; its
inertia (see `perturbation_inertia`) sets how far the spectrum of K_lin + T
can move against that of beta XX^T/d + gamma I.  gamma acts as an implicit
ridge built into the kernel curvature; an explicit value can take its place
(typically 0, `dataclasses.replace(params, gamma=0.0)`) to study explicit
regularization in isolation.

A `LinParams` is the model the risk routes fit: K_lin, whose ridge is its
`gamma`, positive semi-definite for every sample; T is no part of it.
`build_lin_kernel` assembles its Gram matrix, `lin_cross_kernel_matrix` its
cross kernel, and `lin_factors` writes it in factored form,
K_lin - gamma I = F F^T, with cross kernel Phi L F^T, Phi = [1, Q] at the
test points Q (`LinFactor`).  T is measured, never fitted: `spectrum_with_t`
gives the spectrum of K_lin + T for `sweep.eig_compare` and the interlacing
checks, from the factor [V, X] and the form M that `perturbation_inertia`
reads.  The layouts of F, Phi and [V, X] are known to this module alone:
`LinFactor.eigen` decomposes F F^T, `LinFactor.predict` and `moments` read
the columns of Phi that L weighs onto, and `phi_moments` builds the moment
matrix Phi^T Phi a test sample (`risk.QuerySample`) caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .kernels import Dataset, KernelSpec, scipy_eigvalsh, scipy_gram, scipy_product

__all__ = [
    "LinParams",
    "MomentDiagnostics",
    "linearize_params",
    "build_lin_kernel",
    "lin_cross_kernel_matrix",
    "approx_error",
    "interlacing_check",
    "InterlacingReport",
    "perturbation_inertia",
    "LinFactor",
    "lin_factors",
    "phi_moments",
    "factored_spectrum",
    "spectrum_with_t",
    "moment_diagnostics",
    "estimate_trace_ratio",
]


@dataclass(frozen=True)
class LinParams:
    """Linearization coefficients of one kernel at a given pivot, and the
    linearized model the risk routes fit.

    `trace_ratio` is tr(Sigma^2)/d^2.  `h_pivot`, `h1_pivot`, `h2_pivot`
    hold h and its derivatives at the pivot (0 or 2*tau); they drive the
    curvature matrix T and the linearized cross kernel.  `gamma` is the
    ridge the model carries: the implicit one `linearize_params` gives, or
    an explicit one put in its place with `dataclasses.replace`; it must be
    >= 0 and finite.

    The model's Gram matrix is the rank-structured core alpha 11^T +
    beta XX^T/d + gamma I, positive semi-definite for every sample.  The
    radial correction T is no part of it: T is indefinite and its
    second-order term in psi overshoots once psi is O(1), so K_lin + T can
    be indefinite under the implicit gamma too (`spectrum_with_t` measures
    it).
    """

    family: str
    alpha: float
    beta: float
    gamma: float
    tau: float
    trace_ratio: float
    h_pivot: float
    h1_pivot: float
    h2_pivot: float

    def __post_init__(self):
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")


# A coefficient that is 0 in exact arithmetic (gamma of an affine profile:
# linear, or polynomial of degree 1) can round to a few ulps below 0 of the
# terms it is the difference of; within this many ulps it is taken as 0.
_ROUNDOFF_ULPS = 8


def _clip_roundoff(value: float, *terms: float) -> float:
    scale = sum(abs(t) for t in terms)
    if -_ROUNDOFF_ULPS * np.finfo(float).eps * scale <= value < 0:
        return 0.0
    return value


def linearize_params(spec: KernelSpec, tau: float, trace_ratio: float) -> LinParams:
    """Coefficients (alpha, beta, gamma) of the high-dimensional linearization.

    Inner-product family (pivot 0):
        alpha = h(0) + h''(0) * trace_ratio / 2
        beta  = h'(0)
        gamma = h(tau) - h(0) - tau h'(0)
    Radial family (pivot 2*tau):
        alpha = h(2 tau) + 2 h''(2 tau) * trace_ratio
        beta  = -2 h'(2 tau)
        gamma = h(0) + 2 tau h'(2 tau) - h(2 tau)

    alpha or gamma within a few ulps below 0 of the terms it sums (the exact
    0 of an affine profile, rounded) is taken as 0.  A coefficient that is not
    finite (h overflows at a large tau, silently), a degenerate one (beta <= 0,
    or alpha or gamma below that) or tau is a ConfigError naming tau.
    """
    if not (0 <= tau < np.inf and 0 <= trace_ratio < np.inf):
        raise ConfigError(f"tau and trace_ratio must be >= 0 and finite, got tau={tau}, "
                          f"trace_ratio={trace_ratio}; --standardize rescales features this large")
    radial = spec.family == "radial"
    pivot = 2.0 * tau if radial else 0.0
    with np.errstate(over="ignore"):            # an h that overflows is refused below
        h0, h_pivot, h_tau = (float(spec.h(np.float64(t))) for t in (0.0, pivot, tau))
        h1, h2 = float(spec.h1(pivot)), float(spec.h2(pivot))
    if radial:
        alpha = _clip_roundoff(h_pivot + 2.0 * h2 * trace_ratio, h_pivot, 2.0 * h2 * trace_ratio)
        beta = -2.0 * h1
        gamma = _clip_roundoff(h0 + 2.0 * tau * h1 - h_pivot, h0, 2.0 * tau * h1, h_pivot)
    else:
        alpha = _clip_roundoff(h0 + h2 * trace_ratio / 2.0, h0, h2 * trace_ratio / 2.0)
        beta = h1
        gamma = _clip_roundoff(h_tau - h0 - tau * h1, h_tau, h0, tau * h1)
    if not np.all(np.isfinite([alpha, beta, gamma])):
        raise ConfigError(f"linearization requires finite alpha, beta, gamma, got "
                          f"alpha={alpha:.3e} beta={beta:.3e} gamma={gamma:.3e} at "
                          f"tau={tau:.6g}, where the kernel profile h overflows")
    if beta <= 0:
        raise ConfigError(f"linearization requires beta > 0, got {beta:.3e} at tau={tau:.6g}; "
                          f"a radial h'(2 tau) underflows to 0 at a large tau, and "
                          f"standardizing the features removes the underflow")
    if gamma < 0 or alpha < 0:
        raise ConfigError(
            f"linearization requires alpha, gamma >= 0, got alpha={alpha:.3e} "
            f"gamma={gamma:.3e} at tau={tau:.6g}")
    return LinParams(spec.family, alpha, beta, gamma, float(tau), float(trace_ratio),
                     h_pivot, h1, h2)


def _psi(X: np.ndarray, tau: float) -> np.ndarray:
    """Norm fluctuations psi_i = ||x_i||^2/d - tau of the rows of X."""
    return np.einsum("ij,ij->i", X, X) / X.shape[1] - tau


def _core(params: LinParams, X: np.ndarray) -> np.ndarray:
    """The n x n core alpha 11^T + beta XX^T/d."""
    return params.alpha + params.beta * (X @ X.T) / X.shape[1]


def build_lin_kernel(params: LinParams, data: Dataset) -> np.ndarray:
    """The n x n Gram matrix of `params` on a dataset:
    alpha 11^T + beta XX^T/d + gamma I."""
    X = data.features
    K = _core(params, X)
    K[np.diag_indices(X.shape[0])] += params.gamma
    return K


def lin_cross_kernel_matrix(params: LinParams, data: Dataset,
                            queries: np.ndarray) -> np.ndarray:
    """m x n cross kernel of `params` against the rows of `queries`:
    h_pivot 1 + beta Q X^T / d.  That is not the bilinear form of the Gram
    matrix `build_lin_kernel` builds: its constant is h_pivot where the Gram
    matrix has alpha (ROADMAP item 1)."""
    X = data.features
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"queries have width {Q.shape[1]}, expected {X.shape[1]}")
    return params.h_pivot + params.beta * (Q @ X.T) / X.shape[1]


def approx_error(K: np.ndarray, K_lin: np.ndarray) -> float:
    """Spectral norm ||K - K_lin||_2 (symmetric eigendecomposition)."""
    K = np.asarray(K, dtype=float)
    K_lin = np.asarray(K_lin, dtype=float)
    if K.shape != K_lin.shape or K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"shape mismatch: {K.shape} vs {K_lin.shape}")
    D = K - K_lin
    D = (D + D.T) / 2.0
    w = np.linalg.eigvalsh(D)
    return float(max(abs(w[0]), abs(w[-1])))


@dataclass(frozen=True)
class InterlacingReport:
    violations: list
    max_violation: float

    @property
    def ok(self) -> bool:
        return not self.violations


def _perturbation_form(params: LinParams) -> np.ndarray:
    """The matrix M of the perturbation alpha 11^T + T = V M V^T, with
    V = [1, psi, psi∘psi] (radial) or V = [1] (inner product)."""
    if params.family == "radial":
        h1, h2 = params.h1_pivot, params.h2_pivot
        return np.array([[params.alpha, h1, h2 / 2.0],
                         [h1, h2, 0.0],
                         [h2 / 2.0, 0.0, 0.0]])
    return np.array([[params.alpha]])


def perturbation_inertia(params: LinParams) -> tuple:
    """Inertia (p, q) of the perturbation P = alpha 11^T + T, the number of
    its positive and negative eigenvalues.

    P = V M V^T with V = [1, psi, psi∘psi] for radial kernels, where

        M = [[alpha, h', h''/2], [h', h'', 0], [h''/2, 0, 0]]

    (h and its derivatives at 2*tau), and P = alpha 11^T, M = [[alpha]], for
    inner-product kernels.  By Sylvester's law the inertia of P is that of M
    when V has full column rank and at most that otherwise, so M's inertia
    is a valid (p, q) for `interlacing_check` on any data.
    """
    w = np.linalg.eigvalsh(_perturbation_form(params))
    return int(np.sum(w > 0)), int(np.sum(w < 0))


@dataclass(frozen=True)
class LinFactor:
    """A linearized model's kernel on the rows of X, in factored form.

    K_lin - gamma I = F F^T, F = [c 1, sqrt(beta/d) X] with
    c = sqrt(alpha); the constant column is dropped when alpha = 0 (`weigh`
    then raises ValueError unless h_pivot = 0).  The cross kernel
    h_pivot + beta <q, x_i>/d is Phi L F^T with Phi = [1, Q]; `weigh`
    applies L, and `predict` and `moments` read the columns of Phi it weighs
    onto.  `eigen` decomposes F F^T from its smaller side, and
    `core_spectrum` gives the spectrum of alpha 11^T + beta XX^T/d.
    """

    params: LinParams
    X: np.ndarray
    F: np.ndarray
    c: float                    # F's constant column, 0 when F has none
    cross_weights: np.ndarray   # L's diagonal on F's columns [c 1, sqrt(beta/d) X]

    def weigh(self, V: np.ndarray) -> np.ndarray:
        """L V: the rows of V, indexed like F's columns, weighed onto the
        columns of Phi that L reads; a nonzero h_pivot needs F's constant
        column."""
        if not self.c and self.params.h_pivot != 0:
            raise ValueError("a constant cross kernel term needs alpha > 0")
        return self.cross_weights[:, None] * V

    def predict(self, test, coef: np.ndarray) -> np.ndarray:
        """Phi coef at the points of a `risk.QuerySample`, for coef indexed
        like the columns of Phi that L reads (the rows of `weigh`'s output)."""
        return test.features @ coef[1:] + coef[0] if self.c else test.features @ coef

    def moments(self, test) -> np.ndarray:
        """The block of a `risk.QuerySample`'s `moments` Phi^T Phi on the
        columns of Phi that L reads."""
        cols = slice(0 if self.c else 1, None)
        return test.moments[cols, cols]

    def core_spectrum(self) -> np.ndarray:
        """Spectrum of alpha 11^T + beta XX^T/d (n values), clipped at 0 and
        sorted descending, from its smaller Gram side, padded with the zeros
        of its rank deficit.  That matrix is F F^T; F F^T or F^T F, whichever
        is smaller, is formed and decomposed on scipy's BLAS and LAPACK, as the
        rest of an exact cell, whose V1 it is."""
        F = self.F
        n = F.shape[0]
        w = scipy_eigvalsh(scipy_gram(F if n <= F.shape[1] else F.T))
        spectrum = np.zeros(n)
        spectrum[:w.size] = np.maximum(w[::-1], 0.0)
        return spectrum

    def eigen(self, Y: np.ndarray):
        """Eigenpairs of F F^T from its smaller side, without the zeros of
        its null space: returns (w, L F^T U, U^T Y, V1 spectrum) for its
        eigenvalues w and orthonormal eigenvectors U.

        n <= p decomposes the n x n core F F^T, and the V1 spectrum is w
        itself, clipped at 0.  n > p decomposes F^T F = V S V^T: F V = U S^1/2,
        so F^T U = V S^1/2 and U^T Y = S^-1/2 V^T F^T Y, whose row is 0 where
        s is; the V1 spectrum is then an n x n `eigvalsh` of the core (README
        "Known limitations").
        """
        F = self.F
        if F.shape[0] <= F.shape[1]:
            w, U = np.linalg.eigh(_core(self.params, self.X))
            return w, self.weigh(F.T @ U), U.T @ Y, np.maximum(w[::-1], 0.0)
        w, V = np.linalg.eigh(F.T @ F)
        # n x n on purpose: CHANGES.md's FOUND entry on the n x n V1, ROADMAP item 15
        spectrum = np.maximum(np.linalg.eigvalsh(_core(self.params, self.X))[::-1], 0.0)
        root_s = np.sqrt(np.maximum(w, 0.0))
        inv_root = np.divide(1.0, root_s, out=np.zeros_like(root_s), where=root_s > 0)
        proj = inv_root[:, None] * (V.T @ (F.T @ Y))
        return w, self.weigh(V * root_s), proj, spectrum


def lin_factors(params: LinParams, X: np.ndarray) -> LinFactor:
    """The `LinFactor` of `params` on the rows of X.  F has no constant column
    when alpha = 0; the spectra need none, the cross kernel's h_pivot does."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    root = np.sqrt(params.beta / d)
    if params.alpha > 0:
        c = np.sqrt(params.alpha)
        F = np.column_stack([np.full(n, c), root * X])
        a = np.concatenate([[params.h_pivot / c], np.full(d, root)])
    else:
        c, F, a = 0.0, root * X, np.full(d, root)
    return LinFactor(params, X, F, c, a)


def phi_moments(Q: np.ndarray) -> np.ndarray:
    """The (d+1) x (d+1) moment matrix Phi^T Phi of Phi = [1, Q] for m x d
    test points Q."""
    m, d = Q.shape
    G = np.empty((d + 1, d + 1))
    G[0, 0] = m
    G[0, 1:] = G[1:, 0] = Q.sum(axis=0)
    G[1:, 1:] = Q.T @ Q
    return G


def factored_spectrum(W: np.ndarray, D: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Eigenvalues of the n x n matrix W D W^T + shift*I, sorted descending.

    W is n x p and D a symmetric p x p matrix (possibly indefinite).  With the
    thin QR W = Q R, W D W^T = Q (R D R^T) Q^T, so the spectrum is that of
    the min(n, p) x min(n, p) matrix R D R^T plus `shift`, padded with
    `shift` (the null space of W^T) up to length n; one path covers n < p,
    n = p and n > p.  The QR, the products and the eigensolve run on scipy's
    BLAS and LAPACK, as the rest of `sweep.eig_compare`, its caller.
    """
    import scipy.linalg

    W = np.asarray(W, dtype=float)
    D = np.asarray(D, dtype=float)
    n, p = W.shape
    if D.shape != (p, p):
        raise ValueError(f"D has shape {D.shape}, expected ({p}, {p})")
    R = scipy.linalg.qr(W, mode="r", check_finite=False)[0][:min(n, p)]
    core = scipy_product(scipy_product(R, D), R.T)
    out = np.full(n, float(shift))
    out[:core.shape[0]] += scipy_eigvalsh((core + core.T) / 2.0)
    return np.sort(out)[::-1]


def spectrum_with_t(params: LinParams, X: np.ndarray) -> np.ndarray:
    """Spectrum of the n x n matrix K_lin + T of `params` on the rows of X,
    sorted descending, without forming it.

    K_lin + T - gamma I = W blockdiag(M, beta/d I) W^T with W = [V, X],
    where alpha 11^T + T = V M V^T, V = [1, psi, psi∘psi] (radial) or [1]
    (inner product, T = 0), is the form `perturbation_inertia` reads.  The
    spectrum is `factored_spectrum`'s, on scipy's BLAS and LAPACK.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    V = [np.ones(n)]
    if params.family == "radial":
        psi = _psi(X, params.tau)
        V += [psi, psi * psi]
    M = _perturbation_form(params)
    # a column M weighs by 0 (1 when an inner-product alpha is 0) would put a
    # roundoff eigenvalue where the padding reads gamma exactly
    keep = np.flatnonzero(M.any(axis=1))
    k = keep.size
    D = np.zeros((k + d, k + d))
    D[:k, :k] = M[np.ix_(keep, keep)]
    D[range(k, k + d), range(k, k + d)] = params.beta / d
    return factored_spectrum(np.column_stack([*(V[i] for i in keep), X]), D, params.gamma)


def interlacing_check(eig_klin: np.ndarray, eig_xx: np.ndarray, beta: float,
                      gamma: float, inertia: tuple) -> InterlacingReport:
    """Check Weyl's bracket for K_lin = beta XX^T/d + gamma I + P:

        beta*l_{i+q}(XX^T/d) + gamma <= l_i(K_lin) <= beta*l_{i-p}(XX^T/d) + gamma,

    where (p, q) is the inertia of the perturbation P (`perturbation_inertia`):
    its p positive eigenvalues can lift l_i at most to l_{i-p}, its q negative
    ones can lower it at most to l_{i+q}.  Both spectra must be sorted
    descending and of equal length, and they, beta and gamma finite; indices
    are 1-based and every i with at least one side of the bracket defined is
    checked.  Inner-product kernels have (p, q) = (1, 0), the one-step
    sandwich.  Tolerance is 1e-8 times the largest K_lin eigenvalue.
    """
    a = np.asarray(eig_klin, dtype=float).ravel()
    b = np.asarray(eig_xx, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))
            and np.isfinite(beta) and np.isfinite(gamma)):
        raise ValueError("spectra, beta and gamma must be finite")
    if np.any(np.diff(a) > 0) or np.any(np.diff(b) > 0):
        raise ValueError("spectra must be sorted descending")
    p, q = (int(k) for k in inertia)
    if p < 0 or q < 0:
        raise ValueError(f"inertia must be non-negative, got ({p}, {q})")
    n = a.shape[0]
    tol = 1e-8 * abs(a[0]) if n else 0.0
    violations = []
    worst = 0.0
    for i in range(1, n + 1):                   # 1-based index
        lo = beta * b[i + q - 1] + gamma if i + q <= n else -np.inf
        hi = beta * b[i - p - 1] + gamma if i - p >= 1 else np.inf
        v = a[i - 1]
        excess = max(lo - v, v - hi)
        if excess > tol:
            violations.append((i, float(lo), float(v), float(hi)))
            worst = max(worst, float(excess))
    return InterlacingReport(violations=violations, max_violation=worst)


def estimate_trace_ratio(X: np.ndarray, gram: Optional[Callable] = None) -> float:
    """Plug-in estimate of tr(Sigma^2)/d^2 from data with unknown covariance.

    Uses the bias-corrected tr(S^2) - (tr S)^2/n over the d x d sample
    covariance S, clipped at zero.  The scatter Xc^T Xc of the centred data
    is `gram(Xc^T)`, for a `gram` that maps A to A A^T, or numpy's product
    by default.  A sweep passes the product of its cell's BLAS:
    `kernels.scipy_gram` on the Cholesky route, where a numpy product would
    wake numpy's thread pool just before the cell's Cholesky, and numpy's
    own on the spectral route, which loads no scipy.  Both form the product
    as a rank-k update, and `tests/test_linearize.py` checks that their
    estimates agree to the bit.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    Xc = X - X.mean(axis=0, keepdims=True)
    S = (Xc.T @ Xc if gram is None else gram(Xc.T)) / max(n - 1, 1)
    tr_s2 = float(np.sum(S * S))
    tr_s = float(np.trace(S))
    return max(tr_s2 - tr_s ** 2 / n, 0.0) / d ** 2


@dataclass(frozen=True)
class MomentDiagnostics:
    mu3_hat: float
    mu4_hat: float
    rank1_ratio: float
    top_eigenvalue: float


def moment_diagnostics(data: Dataset, queries: np.ndarray,
                       sigma_d: np.ndarray) -> MomentDiagnostics:
    """Monte-Carlo diagnostics of the norm-fluctuation structure.

    Estimates E_x[A(x, X) A(X, x)] over the m query points, where
    A(x, X)_i = psi_x + psi_i, and reports the ratio of its second to first
    eigenvalue (near 0 when the estimate is close to rank one) together
    with empirical third/fourth moments of the entries whitened by the
    population covariance diagonal `sigma_d` (tau = tr(Sigma)/d).
    """
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    m = Q.shape[0]
    if m < 100:
        raise ValueError(f"need at least 100 query points for the estimate, got {m}")
    if Q.shape[1] != data.d:
        raise ValueError(f"queries have width {Q.shape[1]}, expected {data.d}")
    X = data.features
    d = data.d
    diag = np.asarray(sigma_d, dtype=float).ravel()
    if diag.shape[0] != d or not np.all(diag > 0):
        raise ValueError("sigma_d must be a positive length-d diagonal")
    tau = float(diag.sum()) / d
    T_white = X / np.sqrt(diag)[None, :]
    mu3 = float(np.mean(T_white ** 3))
    mu4 = float(np.mean(T_white ** 4))

    psi = _psi(X, tau)
    psi_q = _psi(Q, tau)
    # (1/m) sum_q (psi_q 1 + psi)(psi_q 1 + psi)^T = [1, psi] C [1, psi]^T, of rank <= 2,
    # with C = [[c2, c1], [c1, 1]]
    c1 = float(np.mean(psi_q))
    c2 = float(np.mean(psi_q ** 2))
    w = factored_spectrum(np.column_stack([np.ones(data.n), psi]), [[c2, c1], [c1, 1.0]])
    lam1 = float(w[0])
    lam2 = float(w[1]) if data.n >= 2 else 0.0
    ratio = abs(lam2) / lam1 if lam1 > 0 else 0.0
    return MomentDiagnostics(mu3_hat=mu3, mu4_hat=mu4, rank1_ratio=ratio,
                             top_eigenvalue=lam1)
