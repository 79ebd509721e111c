"""Synthetic data with a prescribed covariance eigen-decay.

Samples follow x_i = Sigma^{1/2} t_i with diagonal Sigma whose entries decay
harmonically, polynomially, or exponentially by `spectral.DecaySpec.profile`,
the law the spectral bounds use (or are all equal, "identity"), rescaled so
tr(Sigma) = d (hence tau = tr(Sigma)/d = 1).  For n <= d the rows t_i come
from the QR decomposition of a Gaussian matrix, scaled by sqrt(d) so entries
have unit empirical variance; for n > d exact row-orthogonality is impossible
and rows fall back to i.i.d. standard normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .kernels import Dataset
from .spectral import DECAY_KINDS, DecaySpec

__all__ = [
    "CovModel",
    "TargetSpec",
    "make_covariance",
    "random_orthogonal_rows",
    "sample_dataset",
    "sample_features",
    "evaluate_target",
]

COV_KINDS = DECAY_KINDS + ("identity",)


@dataclass(frozen=True)
class CovModel:
    """Diagonal covariance with tr = d and entries sorted descending."""

    d: int
    kind: str
    a: Optional[float]
    diag: np.ndarray

    @property
    def tau(self) -> float:
        return float(self.diag.sum()) / self.d

    @property
    def trace_ratio(self) -> float:
        return float(np.sum(self.diag ** 2)) / self.d ** 2


def make_covariance(d: int, kind: str, a: Optional[float] = None) -> CovModel:
    """Diagonal covariance with the requested decay, normalized to tr = d.

    `kind` is one of `COV_KINDS`; the decays are `DecaySpec(kind, a, d).profile`.
    """
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if kind == "identity":
        base = np.ones(d)
    else:
        base = DecaySpec(kind, a, d).profile(np.arange(1, d + 1, dtype=float))
    diag = base * (d / base.sum())
    return CovModel(d=d, kind=kind, a=a, diag=diag)


def random_orthogonal_rows(n: int, d: int, seed) -> np.ndarray:
    """n x d matrix T with T T^T = d I (rows orthogonal, scaled by sqrt(d)).

    Built from the QR decomposition of a Gaussian d x n matrix with the sign
    convention fixed by the R diagonal, so output is a deterministic function
    of the seed.  For n > d, where row-orthogonality cannot hold, rows are
    i.i.d. standard normal.
    """
    rng = np.random.default_rng(seed)
    if n <= d:
        G = rng.standard_normal((d, n))
        Q, R = np.linalg.qr(G)
        Q = Q * np.sign(np.diag(R))[None, :]
        return np.sqrt(d) * Q.T
    return rng.standard_normal((n, d))


@dataclass(frozen=True)
class TargetSpec:
    """Regression target plus homoskedastic Gaussian noise level."""

    kind: str = "sin_sqnorm"            # "sin_sqnorm" | "custom"
    noise_sigma: float = 1.0
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.kind == "custom" and self.f is None:
            raise ValueError("custom target needs a callable f")
        if self.kind not in ("sin_sqnorm", "custom"):
            raise ValueError(f"unknown target kind {self.kind!r}")


def evaluate_target(target: TargetSpec, X: np.ndarray) -> np.ndarray:
    """Clean responses f(x_i) for the rows of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if target.kind == "sin_sqnorm":
        return np.sin(np.einsum("ij,ij->i", X, X))
    return np.asarray(target.f(X), dtype=float).ravel()


def sample_features(cov: CovModel, n: int, seed) -> np.ndarray:
    """n x d feature matrix X = T Sigma^{1/2} under the sampling protocol."""
    T = random_orthogonal_rows(n, cov.d, seed)
    return T * np.sqrt(cov.diag)[None, :]


def sample_dataset(cov: CovModel, n: int, target: TargetSpec, seed):
    """Draw a dataset; returns (Dataset, clean_responses).

    Noise draws consume the same generator after the features, so a fixed
    seed pins the whole dataset.
    """
    rng = np.random.default_rng(seed)
    X = sample_features(cov, n, rng)
    clean = evaluate_target(target, X)
    y = clean + target.noise_sigma * rng.standard_normal(n)
    return Dataset(X, y), clean
