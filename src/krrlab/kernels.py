"""Kernel evaluation, Gram matrices, and the closed-form ridge estimator.

Two kernel families are supported, both driven by a scalar profile h:

* inner-product kernels   k(x, x') = h(<x, x'> / d)
* radial kernels          k(x, x') = h(||x - x'||^2 / d)

Each exact kernel matrix is Q X^T overwritten in place by one pass over its
row blocks (`_kernel_values`): the 1/d scaling, the radial argument and h.

The ridge estimator solves (K + n*lambda*I) c = y by one Cholesky
factorization, with no fallback, and predicts with k(x, X)^T c.  All arrays
are dense float64.

numpy and scipy each bundle their own OpenBLAS, each with its own pool of
threads, and a pool's threads keep spinning for a while after a call: on
2 cores a scipy Cholesky that starts right after a numpy product shares the
cores with them.  So the exact route runs on scipy's OpenBLAS alone: its
products go through `scipy_gram` and `scipy_product`, its spectra through
`scipy_eigvalsh`, and its factorizations through `scipy.linalg`.
`scipy.linalg` is imported on the first kernel build, so importing this
module (and krrlab) loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, KernelEvaluationError, SingularKernelError

__all__ = [
    "Dataset",
    "KernelSpec",
    "KrrModel",
    "kernel_matrix",
    "cross_kernel_matrix",
    "krr_fit",
    "krr_predict",
    "solve_regularized",
    "scipy_gram",
    "scipy_product",
    "scipy_eigvalsh",
]


@dataclass(frozen=True)
class Dataset:
    """An n x d feature matrix with an n-vector of responses, checked once,
    when built, and stored as read-only views, so that no write through the
    dataset gets past the check.  The caller's own arrays stay writable; the
    views share their memory where no conversion was needed."""

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        y = np.asarray(self.responses, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"features must be a nonempty 2-d matrix, got shape {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"responses length {y.shape[0]} does not match {X.shape[0]} feature rows"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("responses contain non-finite entries")
        for name, array in (("features", X), ("responses", y)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus the nonlinearity profile h and its derivatives.

    Use the constructors (`linear`, `polynomial`, `exponential_inner`,
    `gaussian`, `custom`) rather than filling fields by hand.
    """

    family: str                     # "inner_product" | "radial"
    variant: str                    # "linear" | "polynomial" | ...
    degree: int = 0                 # polynomial only
    h: Callable[[np.ndarray], np.ndarray] = field(default=None, repr=False)
    h1: Callable[[float], float] = field(default=None, repr=False)
    h2: Callable[[float], float] = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in ("inner_product", "radial"):
            raise ValueError(f"unknown kernel family {self.family!r}")

    @property
    def affine(self) -> bool:
        """Whether h is affine (linear, or polynomial of degree 1), so that K
        is exactly its linearization alpha 11^T + beta XX^T/d."""
        return self.variant == "linear" or (self.variant, self.degree) == ("polynomial", 1)

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec("inner_product", "linear",
                          h=lambda t: np.asarray(t, dtype=float),
                          h1=lambda t: 1.0, h2=lambda t: 0.0)

    @staticmethod
    def polynomial(degree: int) -> "KernelSpec":
        p = int(degree)
        if p < 1:
            raise ConfigError(f"polynomial degree must be >= 1, got {degree}")
        return KernelSpec(
            "inner_product", "polynomial", degree=p,
            h=lambda t, p=p: (1.0 + t) ** p,
            h1=lambda t, p=p: p * (1.0 + t) ** (p - 1),
            h2=lambda t, p=p: p * (p - 1) * (1.0 + t) ** (p - 2) if p >= 2 else 0.0,
        )

    @staticmethod
    def exponential_inner() -> "KernelSpec":
        return KernelSpec("inner_product", "exponential_inner",
                          h=lambda t: np.exp(2.0 * t),
                          h1=lambda t: 2.0 * np.exp(2.0 * t),
                          h2=lambda t: 4.0 * np.exp(2.0 * t))

    @staticmethod
    def gaussian() -> "KernelSpec":
        return KernelSpec("radial", "gaussian",
                          h=lambda t: np.exp(-np.asarray(t, dtype=float)),
                          h1=lambda t: -np.exp(-t),
                          h2=lambda t: np.exp(-t))

    @staticmethod
    def custom(family: str, h, h1, h2) -> "KernelSpec":
        return KernelSpec(family, "custom", h=h, h1=h1, h2=h2)


# Entries per block of the in-place passes over an m x n matrix: a block is
# as many whole rows (columns, in `_restore_lower`) as fit, at least one, so
# each of its temporaries stays near 512 KB whatever n is.
_BLOCK_ENTRIES = 2 ** 16


def _row_blocks(rows: int, cols: int):
    step = max(1, _BLOCK_ENTRIES // cols)
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _kernel_values(spec: KernelSpec, X: np.ndarray, queries=None) -> np.ndarray:
    """k(q_i, x_j) for query rows q_i (rows of X itself when `queries` is None).

    The product Q X^T (`scipy_gram`'s X X^T, symmetric to the bit, when Q is
    None) is formed once on scipy's BLAS.  One pass over its row blocks then
    overwrites each block in place: scaled by 1/d, turned into the clipped
    radial argument sq_q + sq_x - 2 G for radial kernels, evaluated by h and
    checked for non-finite entries.  The only scratch is one block of rows.
    """
    Q = None if queries is None else np.atleast_2d(np.asarray(queries, dtype=float))
    if Q is not None and Q.shape[1] != X.shape[1]:
        raise ValueError(f"queries have width {Q.shape[1]}, expected {X.shape[1]}")
    d = X.shape[1]
    K = scipy_gram(X) if Q is None else scipy_product(X, Q.T).T
    radial = spec.family == "radial"
    if radial:
        sq_x = np.einsum("ij,ij->i", X, X) / d
        sq_q = sq_x if Q is None else np.einsum("ij,ij->i", Q, Q) / d
    for rows in _row_blocks(*K.shape):
        block = K[rows]
        block /= d
        if radial:
            block *= 2.0
            np.subtract(sq_q[rows, None] + sq_x, block, out=block)
            np.maximum(block, 0.0, out=block)
        block[...] = spec.h(block)
        if not np.all(np.isfinite(block)):
            i, j = np.argwhere(~np.isfinite(block))[0]
            i += rows.start
            raise KernelEvaluationError(
                f"kernel evaluation produced a non-finite value at entry ({i}, {j})",
                int(i), int(j))
    return K


def kernel_matrix(spec: KernelSpec, data: Dataset) -> np.ndarray:
    """Gram matrix K[i, j] = k(x_i, x_j), exactly symmetric.

    `scipy_gram` forms X X^T symmetric to the bit, and `_kernel_values`'s
    one row-block pass (the 1/d scaling, the radial argument and h) acts
    entrywise, so K needs no mirroring.
    """
    return _kernel_values(spec, data.features)


def cross_kernel_matrix(spec: KernelSpec, data: Dataset, queries: np.ndarray) -> np.ndarray:
    """m x n matrix of k(q_i, x_j) for query rows q_i."""
    return _kernel_values(spec, data.features, queries)


def _restore_lower(A: np.ndarray) -> None:
    """Copy the strict upper triangle of square A onto its strict lower one,
    a block of columns at a time: a failed Cholesky factorization of A
    (lower=True) has overwritten the lower triangle only, and `scipy_gram`'s
    rank-k update has formed the upper one only."""
    n = A.shape[0]
    for cols in _row_blocks(n, n):
        lo, hi = cols.start, min(cols.stop, n)
        A[hi:, lo:hi] = A[lo:hi, hi:].T
        square = A[lo:hi, lo:hi]
        np.copyto(square, square.T, where=np.tri(hi - lo, k=-1, dtype=bool))


def solve_regularized(K: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (K + ridge*I) sol = rhs by one Cholesky factorization, in place.

    K must be a C-contiguous float64 array, symmetric to the bit, as
    `kernel_matrix` and `linearize.build_lin_kernel` return it.  It is
    factored in place as its F-contiguous view K.T, and the solution is
    written over rhs where its layout allows (a float64 vector or an
    F-contiguous n x m matrix), so no n x n copy is made.  K holds the factor
    on return; SingularKernelError leaves it as it was.  Callers that need K
    or rhs afterwards pass copies.

    A system that does not factor, such as a rank-deficient K at ridge 0,
    raises SingularKernelError with the smallest eigenvalue of K + ridge*I,
    read after `_restore_lower` undoes LAPACK's half-factored lower triangle.
    """
    import scipy.linalg

    if not 0 <= ridge < np.inf:
        raise ValueError(f"ridge must be >= 0 and finite, got {ridge}")
    if not (isinstance(K, np.ndarray) and K.dtype == np.float64 and K.flags.c_contiguous):
        raise ValueError("K must be a C-contiguous float64 array")
    A = K.T
    diagonal = A.diagonal().copy()
    np.fill_diagonal(A, diagonal + ridge)
    try:
        cf = scipy.linalg.cho_factor(A, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        _restore_lower(A)
        np.fill_diagonal(A, diagonal + ridge)
        smallest = float(scipy_eigvalsh(A)[0])
        np.fill_diagonal(A, diagonal)
        raise SingularKernelError(f"system is not positive definite (smallest eigenvalue "
                                  f"{smallest:.3e})", smallest) from None
    return scipy.linalg.cho_solve(cf, rhs, overwrite_b=True, check_finite=False)


def scipy_gram(A: np.ndarray) -> np.ndarray:
    """A A^T on scipy's BLAS, C-contiguous and symmetric to the bit.

    A rank-k update forms one triangle and `_restore_lower` mirrors it (a
    general product is not symmetric to the bit).  A C-contiguous A goes in
    as its F-contiguous view A.T, so A is not copied.
    """
    import scipy.linalg

    if A.flags.f_contiguous:
        S = scipy.linalg.blas.dsyrk(1.0, A, lower=1)
    else:
        S = scipy.linalg.blas.dsyrk(1.0, A.T, trans=1, lower=1)
    S = S.T                     # C-contiguous, its upper triangle formed
    _restore_lower(S)
    return S


def scipy_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B on scipy's BLAS, F-contiguous.  A C-contiguous operand goes in as
    its F-contiguous transpose, so neither is copied."""
    import scipy.linalg

    trans_a, trans_b = not A.flags.f_contiguous, not B.flags.f_contiguous
    return scipy.linalg.blas.dgemm(1.0, A.T if trans_a else A, B.T if trans_b else B,
                                   trans_a=trans_a, trans_b=trans_b)


def scipy_eigvalsh(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric A, ascending, from its lower triangle by
    scipy's LAPACK; syevd, the driver of `numpy.linalg.eigvalsh`."""
    import scipy.linalg

    return scipy.linalg.eigvalsh(A, driver="evd", check_finite=False)


@dataclass(frozen=True)
class KrrModel:
    """Fitted ridge regressor: dual coefficients plus the training features."""

    spec: KernelSpec
    features: np.ndarray
    dual_coef: np.ndarray
    lam: float


def krr_fit(spec: KernelSpec, data: Dataset, lam: float) -> KrrModel:
    """Fit kernel ridge regression with penalty lam >= 0 (0 = interpolation,
    which raises SingularKernelError on a rank-deficient K)."""
    if not 0 <= lam < np.inf:
        raise ValueError(f"lambda must be >= 0 and finite, got {lam}")
    K = kernel_matrix(spec, data)
    c = solve_regularized(K, data.n * lam, data.responses.copy())
    return KrrModel(spec=spec, features=data.features, dual_coef=c, lam=float(lam))


def krr_predict(model: KrrModel, queries: np.ndarray) -> np.ndarray:
    """Predict at the rows of `queries` (m x d), linearly in the training responses."""
    return _kernel_values(model.spec, model.features, queries) @ model.dual_coef
