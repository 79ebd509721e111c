"""High-dimensional linearization of kernel matrices.

For data with d large, an inner-product or radial kernel matrix is well
approximated in spectral norm by

    K_lin = alpha * 11^T + beta * X X^T / d + gamma * I + T,

where (alpha, beta, gamma) depend on the profile h evaluated at the pivot
(0 for inner-product kernels, 2*tau for radial ones, tau = tr(Sigma)/d),
and T is a curvature correction that is nonzero only for the radial family:

    T = h'(2 tau) * A + h''(2 tau)/2 * (A ∘ A),   A = 1 psi^T + psi 1^T,

with psi_i = ||x_i||^2/d - tau.  The perturbation alpha 11^T + T of the
scaled Gram matrix lies in span{1, psi, psi∘psi}, so it has rank <= 3; its
inertia (see `perturbation_inertia`) sets how far the spectrum of K_lin can
move against that of beta XX^T/d + gamma I.  gamma acts as an implicit
ridge built into the kernel curvature; `gamma_override` replaces it
(typically with 0) to study explicit regularization in isolation.

A `LinModel` holds both choices, the ridge and whether T is fitted, and
`build_lin_kernel` and `lin_cross_kernel_matrix` assemble the Gram matrix
and the cross kernel it fits.  `lin_factors` writes both in factored form,
K_lin - gamma_eff I = F (I + E) F^T and the cross kernel Phi L F^T
(`LinFactor`), with Phi = [1, Q, ||q||^2/d] at the test points Q.  The
layouts of F and Phi are known to this module alone: `LinFactor.eigen`
decomposes F (I + E) F^T, `LinFactor.predict` and `moments` read the
columns of Phi that L weighs onto, and `phi_moments` builds the moment
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
    "LinModel",
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
    "moment_diagnostics",
    "estimate_trace_ratio",
]


@dataclass(frozen=True)
class LinParams:
    """Linearization coefficients of one kernel at a given pivot.

    `trace_ratio` is tr(Sigma^2)/d^2.  `h_pivot`, `h1_pivot`, `h2_pivot`
    hold h and its derivatives at the pivot (0 or 2*tau); they drive the
    curvature matrix T and the linearized cross kernel.
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
    0 of an affine profile, rounded) is taken as 0.  A degenerate coefficient
    (beta <= 0, or alpha or gamma below that) or tau is a ConfigError naming tau.
    """
    if not (0 <= tau < np.inf and 0 <= trace_ratio < np.inf):
        raise ConfigError(f"tau and trace_ratio must be >= 0 and finite, got tau={tau}, "
                          f"trace_ratio={trace_ratio}; --standardize rescales features this large")
    if spec.family == "inner_product":
        pivot = 0.0
        h0 = float(spec.h(np.float64(0.0)))
        h1 = float(spec.h1(pivot))
        h2 = float(spec.h2(pivot))
        h_tau = float(spec.h(np.float64(tau)))
        alpha = _clip_roundoff(h0 + h2 * trace_ratio / 2.0, h0, h2 * trace_ratio / 2.0)
        beta = h1
        gamma = _clip_roundoff(h_tau - h0 - tau * h1, h_tau, h0, tau * h1)
        h_pivot = h0
    else:
        pivot = 2.0 * tau
        hp = float(spec.h(np.float64(pivot)))
        h1 = float(spec.h1(pivot))
        h2 = float(spec.h2(pivot))
        h0 = float(spec.h(np.float64(0.0)))
        alpha = _clip_roundoff(hp + 2.0 * h2 * trace_ratio, hp, 2.0 * h2 * trace_ratio)
        beta = -2.0 * h1
        gamma = _clip_roundoff(h0 + 2.0 * tau * h1 - hp, h0, 2.0 * tau * h1, hp)
        h_pivot = hp
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


@dataclass(frozen=True)
class LinModel:
    """Linearized-kernel regression model used by the risk sweeps.

    When `curvature` is False (the default for risk-curve experiments) the
    Gram matrix is the rank-structured core alpha 11^T + beta XX^T/d +
    gamma_eff I, which is positive semi-definite for every sample, and the
    cross kernel is h_pivot + beta <x, x_i>/d.  That is not the core's
    bilinear form: its constant is h_pivot where the Gram matrix has alpha.
    With `curvature` True a radial kernel also fits the correction T
    (`fits_curvature`).  T is indefinite and its second-order term in psi
    overshoots once psi is O(1), so K_lin + T can be indefinite under the
    implicit gamma too, not only under a gamma override of 0: in 3 trials of
    the default sweep (d = 500, implicit gamma) 7 of the 21 cells with
    n >= 400 were.
    """

    params: LinParams
    gamma_override: Optional[float] = None
    curvature: bool = False

    def __post_init__(self):
        if self.gamma_override is not None and not self.gamma_override >= 0:
            raise ValueError("gamma_override must be >= 0")

    @property
    def gamma(self) -> float:
        """gamma_eff, the ridge the linearized kernel carries: the implicit
        gamma, or `gamma_override` when given."""
        return self.params.gamma if self.gamma_override is None else float(self.gamma_override)

    @property
    def fits_curvature(self) -> bool:
        """Whether T is fitted: `curvature` is set and the kernel is radial."""
        return self.curvature and self.params.family == "radial"


def _psi(X: np.ndarray, tau: float) -> np.ndarray:
    """Norm fluctuations psi_i = ||x_i||^2/d - tau of the rows of X."""
    return np.einsum("ij,ij->i", X, X) / X.shape[1] - tau


def _add_curvature(K: np.ndarray, params: LinParams, psi: np.ndarray) -> None:
    """K += T = h' A + h''/2 (A∘A), A = 1 psi^T + psi 1^T, in place."""
    A = psi[:, None] + psi[None, :]
    K += params.h1_pivot * A + 0.5 * params.h2_pivot * (A * A)


def _core(params: LinParams, X: np.ndarray) -> np.ndarray:
    """The n x n core alpha 11^T + beta XX^T/d."""
    return params.alpha + params.beta * (X @ X.T) / X.shape[1]


def build_lin_kernel(model: LinModel, data: Dataset) -> np.ndarray:
    """The n x n Gram matrix `model` fits on a dataset:
    alpha 11^T + beta XX^T/d + gamma_eff I, plus T when
    `model.fits_curvature`."""
    params = model.params
    X = data.features
    K = _core(params, X)
    K[np.diag_indices(X.shape[0])] += model.gamma
    if model.fits_curvature:
        _add_curvature(K, params, _psi(X, params.tau))
    return K


def lin_cross_kernel_matrix(model: LinModel, data: Dataset,
                            queries: np.ndarray) -> np.ndarray:
    """m x n cross kernel `model` fits with: h_pivot 1 + beta Q X^T / d, plus
    the first-order norm correction -beta/2 (psi_q + psi_i) when
    `model.fits_curvature`."""
    params = model.params
    X = data.features
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    if Q.shape[1] != X.shape[1]:
        raise ValueError(f"queries have width {Q.shape[1]}, expected {X.shape[1]}")
    out = params.h_pivot + params.beta * (Q @ X.T) / X.shape[1]
    if model.fits_curvature:
        out -= 0.5 * params.beta * (_psi(Q, params.tau)[:, None]
                                    + _psi(X, params.tau)[None, :])
    return out


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

    K_lin - gamma_eff I = F D' F^T, F = [c 1, sqrt(beta/d) X] with
    c = sqrt(alpha) and D' = I; the constant column is dropped when
    alpha = 0 (`weigh` then raises ValueError unless h_pivot = 0).  When
    the model fits curvature, F gains the columns psi and psi∘psi (p = d+3),
    c is 1 if alpha = 0, and D' - I is zero but for its 3 x 3 block E on
    the columns `block` (c 1, psi, psi∘psi): the form of
    `perturbation_inertia` scaled by 1/c in its first row and column, minus
    I.  Without curvature E is empty.

    The cross kernel, h_pivot + beta <q, x_i>/d minus beta/2 (psi_q + psi_i)
    under curvature, is Phi L F^T with Phi = [1, Q, ||q||^2/d] (psi_q is
    affine in ||q||^2/d); `weigh` applies L, and `predict` and `moments`
    read the columns of Phi it weighs onto.  `eigen` decomposes
    F (I + E) F^T from its smaller side, and `core_spectrum` gives the
    spectrum of alpha 11^T + beta XX^T/d.
    """

    params: LinParams
    X: np.ndarray
    F: np.ndarray
    E: np.ndarray
    c: float                    # F's constant column, 0 when F has none
    cross_weights: np.ndarray   # L's diagonal on F's columns [c 1, sqrt(beta/d) X]

    @property
    def block(self) -> list:
        """The columns (c 1, psi, psi∘psi) of F that E acts on."""
        d = self.X.shape[1]
        return [0, d + 1, d + 2] if self.E.size else []

    @property
    def psi(self) -> np.ndarray:
        """Norm fluctuations psi of the rows of X (curvature only)."""
        return self.F[:, self.X.shape[1] + 1]

    @property
    def D(self) -> np.ndarray:
        """The p x p middle factor I + E."""
        D = np.eye(self.F.shape[1])
        D[np.ix_(self.block, self.block)] += self.E
        return D

    def weigh(self, V: np.ndarray) -> np.ndarray:
        """L V: the rows of V, indexed like F's columns, weighed onto the
        columns of Phi that L reads; a nonzero h_pivot needs F's constant
        column."""
        if not self.c and self.params.h_pivot != 0:
            raise ValueError("a constant cross kernel term needs alpha > 0")
        a = self.cross_weights
        Z = a[:, None] * V[:a.size]
        if self.E.size:
            beta, d = self.params.beta, self.X.shape[1]
            Z[0] -= 0.5 * beta * V[d + 1]
            Z = np.vstack([Z, -0.5 * beta / self.c * V[0]])
        return Z

    def predict(self, test, coef: np.ndarray) -> np.ndarray:
        """Phi coef at the points of a `risk.QuerySample`, for coef indexed
        like the columns of Phi that L reads (the rows of `weigh`'s output)."""
        d = self.X.shape[1]
        pred = test.features @ coef[1:d + 1] + coef[0] if self.c else test.features @ coef
        if self.E.size:
            pred += test.sq_norms[:, None] * coef[-1]
        return pred

    def moments(self, test) -> np.ndarray:
        """The block of a `risk.QuerySample`'s `moments` Phi^T Phi on the
        columns of Phi that L reads."""
        d = self.X.shape[1]
        cols = slice(0 if self.c else 1, d + 2 if self.E.size else d + 1)
        return test.moments[cols, cols]

    def core_spectrum(self, side: Optional[np.ndarray] = None) -> np.ndarray:
        """Spectrum of alpha 11^T + beta XX^T/d (n values), clipped at 0 and
        sorted descending, from its smaller Gram side, padded with the zeros
        of its rank deficit.  That matrix is G G^T, G the columns
        [sqrt(alpha) 1, sqrt(beta/d) X] of F.

        `side` passes in `eigen`'s own n x n core (n <= p) or F^T F (n > p,
        whose block on G's columns is G^T G), decomposed on numpy's LAPACK
        as the rest of that fit.  Without it, as for an exact cell's V1,
        G G^T or G^T G, whichever is smaller, is formed and decomposed on
        scipy's BLAS and LAPACK, as the rest of that cell."""
        n = self.F.shape[0]
        x0 = 1 if self.c else 0                 # the first column of sqrt(beta/d) X
        cols = slice(0 if self.params.alpha > 0 else x0, x0 + self.X.shape[1])
        if side is None:
            G = self.F[:, cols]
            w = scipy_eigvalsh(scipy_gram(G if n <= G.shape[1] else G.T))
        else:
            w = np.linalg.eigvalsh(side if side.shape[0] == n else side[cols, cols])
        spectrum = np.zeros(n)
        spectrum[:w.size] = np.maximum(w[::-1], 0.0)
        return spectrum

    def eigen(self, Y: np.ndarray):
        """Eigenpairs of F (I + E) F^T from its smaller side, without the
        zeros of its null space: returns (w, L F^T U, U^T Y, V1 spectrum)
        for its eigenvalues w and orthonormal eigenvectors U.

        n <= p decomposes the n x n F (I + E) F^T.  n > p decomposes
        F^T F = V S V^T: F V = U S^1/2, so F (I + E) F^T = U B U^T with
        B = S + G^T E G, G = V S^1/2, where only G's rows `block` enter.
        B = P W P^T gives the eigenvectors U P, F^T U P = G P and
        (U P)^T Y = P^T S^-1/2 V^T F^T Y, whose row is 0 where s is.
        Without curvature E is empty and P = I, so no p x p `eigh` runs.

        The V1 spectrum is `core_spectrum` of the decomposition's own core
        before T (n <= p; w itself without curvature) or of its own F^T F
        (n > p), except at n > p without curvature: there an n x n
        `eigvalsh` of the core (README "Known limitations").
        """
        params, F, E = self.params, self.F, self.E
        if F.shape[0] <= F.shape[1]:
            core = _core(params, self.X)
            if E.size:
                spectrum = self.core_spectrum(core)
                _add_curvature(core, params, self.psi)      # core = F (I + E) F^T
            w, U = np.linalg.eigh(core)
            if not E.size:
                spectrum = np.maximum(w[::-1], 0.0)
            return w, self.weigh(F.T @ U), U.T @ Y, spectrum
        gram = F.T @ F
        w, V = np.linalg.eigh(gram)
        # n x n on purpose without curvature: CHANGES.md's FOUND entry on the n x n V1,
        # ROADMAP item 15
        spectrum = self.core_spectrum(gram if E.size else _core(params, self.X))
        root_s = np.sqrt(np.maximum(w, 0.0))
        G = V * root_s
        inv_root = np.divide(1.0, root_s, out=np.zeros_like(root_s), where=root_s > 0)
        proj = inv_root[:, None] * (V.T @ (F.T @ Y))
        if E.size:
            rows = G[self.block]
            B = rows.T @ E @ rows
            B[np.diag_indices_from(B)] += root_s ** 2
            w, P = np.linalg.eigh(B)
            G, proj = G @ P, P.T @ proj
        return w, self.weigh(G), proj, spectrum


def lin_factors(model: LinModel, X: np.ndarray) -> LinFactor:
    """The `LinFactor` of `model` on the rows of X; `factored_spectrum(F, D,
    gamma_eff)` is then the spectrum of the n x n Gram matrix `model` fits,
    without forming it.  F has no constant column when alpha = 0 and there
    is no curvature; the spectra need none, the cross kernel's h_pivot does."""
    params = model.params
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    curved = model.fits_curvature
    root = np.sqrt(params.beta / d)
    if params.alpha > 0 or curved:
        c = np.sqrt(params.alpha) if params.alpha > 0 else 1.0
        columns = [np.full(n, c), root * X]
        a = np.concatenate([[params.h_pivot / c], np.full(d, root)])
    else:
        c, columns, a = 0.0, [root * X], np.full(d, root)
    E = np.zeros((0, 0))
    if curved:
        psi = _psi(X, params.tau)
        columns += [psi, psi * psi]
        a[0] = (params.h_pivot + 0.5 * params.beta * params.tau) / c
        scale = np.array([c, 1.0, 1.0])
        E = _perturbation_form(params) / np.outer(scale, scale) - np.eye(3)
    return LinFactor(params, X, np.column_stack(columns), E, c, a)


def phi_moments(Q: np.ndarray, sq_norms: np.ndarray) -> np.ndarray:
    """The (d+2) x (d+2) moment matrix Phi^T Phi of Phi = [1, Q, ||q||^2/d]
    for m x d test points Q and their `sq_norms` ||q||^2/d."""
    m, d = Q.shape
    G = np.empty((d + 2, d + 2))
    G[0, 0] = m
    G[0, 1:d + 1] = G[1:d + 1, 0] = Q.sum(axis=0)
    G[1:d + 1, 1:d + 1] = Q.T @ Q
    G[-1, 0] = G[0, -1] = sq_norms.sum()
    G[-1, 1:d + 1] = G[1:d + 1, -1] = Q.T @ sq_norms
    G[-1, -1] = sq_norms @ sq_norms
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
