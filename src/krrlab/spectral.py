"""Spectral quantities behind the variance bounds.

The central object is the quantity

    N(spectrum, b) = sum_i  l_i / (b + l_i)^2,

evaluated on the eigenvalues of X~ = beta XX^T/d + alpha 11^T with
b = n*lambda + gamma.  Closed-form upper bounds exist for three parametric
eigenvalue decays (harmonic n/i, polynomial n i^{-2a}, exponential
n e^{-ai}), together with peak-location formulas for the resulting
variance curves.  `DecaySpec.profile` is the only definition of these
decays: `synth.make_covariance` draws the sampler's covariance from it too.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "Spectrum",
    "DecaySpec",
    "generate_decay_spectrum",
    "quantity_N",
    "effective_dimension",
    "bound_N",
    "peak_point",
    "numeric_peak",
    "exp_monotone_condition",
    "harmonic_theta_threshold",
    "polynomial_theta_threshold",
]

DECAY_KINDS = ("harmonic", "polynomial", "exponential")


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, all >= 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum contains non-finite entries")
        if np.any(v < 0):
            raise ValueError("spectrum contains negative entries")
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum must be sorted descending")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def _values(spec) -> np.ndarray:
    if isinstance(spec, Spectrum):
        return spec.values
    return Spectrum(np.asarray(spec)).values


@dataclass(frozen=True)
class DecaySpec:
    """Parametric eigenvalue decay: harmonic n/i, polynomial n i^{-2a},
    or exponential n e^{-ai}, truncated at rank r_star.  `a` is unused by the
    harmonic decay and may be None there."""

    kind: str
    a: Optional[float] = 1.0
    r_star: int = 1

    def __post_init__(self):
        if self.kind not in DECAY_KINDS:
            raise ConfigError(f"unknown decay kind {self.kind!r}")
        if isinstance(self.r_star, bool) or not isinstance(self.r_star, numbers.Integral):
            raise ConfigError(f"r_star must be an integer, got {self.r_star!r}")
        if self.r_star < 1:
            raise ConfigError(f"r_star must be >= 1, got {self.r_star}")
        if self.a is not None and not np.isfinite(self.a):
            raise ConfigError(f"decay parameter a must be finite, got a={self.a}")
        if self.kind == "polynomial" and (self.a is None or not self.a > 0.5):
            raise ConfigError(f"polynomial decay requires a > 1/2, got a={self.a}")
        if self.kind == "exponential" and (self.a is None or not self.a > 0):
            raise ConfigError(f"exponential decay requires a > 0, got a={self.a}")

    def profile(self, i: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """The decay at (1-based, float) ranks i: scale/i, scale i^{-2a} or
        scale e^{-ai}, with no truncation at r_star."""
        if self.kind == "harmonic":
            return scale / i
        if self.kind == "polynomial":
            return scale * i ** (-2.0 * self.a)
        return scale * np.exp(-self.a * i)


def generate_decay_spectrum(decay: DecaySpec, n: int) -> Spectrum:
    """Length-n spectrum with l_i per the decay for i <= r_star, 0 beyond.

    If n < r_star the rank is soft-capped at n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = min(decay.r_star, n)
    out = np.zeros(n)
    out[:r] = decay.profile(np.arange(1, r + 1, dtype=float), scale=n)
    return Spectrum(out)


def quantity_N(spec, b: float) -> float:
    """sum_i l_i / (b + l_i)^2, equal to tr((M + bI)^{-2} M) on eigenvalues of M."""
    if not 0 < b < np.inf:
        raise ValueError(f"b must be finite and > 0, got {b}")
    v = _values(spec)
    v = v[v > 0]           # zero eigenvalues contribute nothing
    return float(np.sum(v / (b + v) ** 2))


def effective_dimension(spec, lam: float) -> float:
    """sum_i l_i / (l_i + lam); lies in [0, number of nonzero eigenvalues]."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    v = _values(spec)
    return float(np.sum(v / (v + lam)))


def _poly_bound_constant(a: float) -> float:
    """The integral of u^s / (1+u)^2 over (0, inf), s = 1/(2a), in closed form.

    It is the beta function B(1+s, 1-s) = Gamma(1+s) Gamma(1-s) = pi s / sin(pi s),
    exact for s in (0, 1), i.e. for every a > 1/2 that `DecaySpec` accepts.
    """
    s = 1.0 / (2.0 * a)
    return float(np.pi * s / np.sin(np.pi * s))


def _peak_term(decay: DecaySpec, n: int, b: float) -> float:
    """max_i l_i / (b + l_i)^2 over the nonzero decay eigenvalues, i in [1, min(r, n)].

    The summand is unimodal in i with its peak where l_i = b, so the maximum
    sits at one of the two integers bracketing that point.
    """
    if decay.kind == "polynomial":
        x = (n / b) ** (1.0 / (2.0 * decay.a))
    else:
        x = np.log(n / b) / decay.a
    i = np.clip([np.floor(x), np.ceil(x)], 1, min(decay.r_star, n))
    lam = decay.profile(i, scale=n)
    return float(np.max(lam / (b + lam) ** 2))


def bound_N(decay: DecaySpec, n: int, b: float) -> float:
    """Closed-form upper bound on quantity_N for the given decay.

    harmonic:    (n/b^2) * ln((n + (r+1) b) / (n + b))
    polynomial:  C / (2 a b) * (n/b)^{1/(2a)} + P,  C = pi s / sin(pi s), s = 1/(2a)
    exponential: (1/a) * (1/(b + n e^{-a(r+1)}) - 1/(b + n e^{-a})) + P

    The polynomial and exponential forms integrate the summand
    f(i) = l_i / (b + l_i)^2, which is unimodal in i with its peak where
    l_i = b.  A unimodal sum is at most its integral plus its largest term,
    so P = max_i f(i) over i in [1, min(r, n)] is added; without it the
    integral alone falls below the exact sum once b exceeds the smallest
    nonzero eigenvalue.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < b < np.inf:
        raise ValueError(f"b must be finite and > 0, got {b}")
    r = decay.r_star
    if decay.kind == "harmonic":
        return float(n / b ** 2 * np.log((n + (r + 1) * b) / (n + b)))
    if decay.kind == "polynomial":
        c = _poly_bound_constant(decay.a)
        integral = c / (2.0 * decay.a * b) * (n / b) ** (1.0 / (2.0 * decay.a))
    else:
        integral = ((1.0 / decay.a)
                    * (1.0 / (b + decay.profile(r + 1, scale=n))
                       - 1.0 / (b + decay.profile(1, scale=n))))
    return float(integral + _peak_term(decay, n, b))


def _check_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < np.inf:
        raise ConfigError(f"{name} must be >= 0 and finite, got {value}")


def harmonic_theta_threshold(cbar: float) -> float:
    """Schedule exponent above which the harmonic-decay variance bound has no
    interior peak: theta >= 1 / (2 (2 - cbar)), for 0 <= cbar < 2 (beyond,
    2 - 2 theta - cbar < 0 for every theta >= 0 and there is no peak)."""
    if not 0 <= cbar < 2:
        raise ConfigError(f"cbar must lie in [0, 2), got {cbar}")
    return 1.0 / (2.0 * (2.0 - cbar))


def polynomial_theta_threshold(a: float) -> float:
    """Polynomial-decay analogue: theta >= 1 / (1 + 1/(2a)), for a > 1/2."""
    DecaySpec("polynomial", a)
    return 1.0 / (1.0 + 1.0 / (2.0 * a))


def peak_point(decay: DecaySpec, cbar: float, theta: float, gamma: float) -> float:
    """Closed-form peak location n_* of the variance bound curve.

    harmonic:    (gamma / (2 - 2 theta - cbar))^{1/(1-theta)}
    polynomial:  (gamma / (2 a cbar (1 - (1 + 1/(2a)) theta)))^{1/(1-theta)}

    No closed form exists for exponential decay; use `numeric_peak`.
    Parameters with no closed-form peak raise `ConfigError`.
    """
    if decay.kind == "exponential":
        raise ConfigError("exponential decay has no closed-form peak; use numeric_peak")
    if not 0 <= theta < 1:
        raise ConfigError("theta must lie in [0, 1)")
    _check_nonnegative("gamma", gamma)
    _check_nonnegative("cbar", cbar)
    if decay.kind == "harmonic":
        den = 2.0 - 2.0 * theta - cbar
        if den <= 0:
            raise ConfigError(
                f"out of regime: 2 - 2*theta - cbar = {den:.3e} <= 0 "
                "(no interior peak for this schedule)")
        return float((gamma / den) ** (1.0 / (1.0 - theta)))
    den = 2.0 * decay.a * cbar * (1.0 - (1.0 + 1.0 / (2.0 * decay.a)) * theta)
    if den <= 0:
        raise ConfigError(
            f"out of regime: polynomial peak denominator {den:.3e} <= 0")
    return float((gamma / den) ** (1.0 / (1.0 - theta)))


def numeric_peak(decay: DecaySpec, n_grid, d: int, cbar: float, theta: float,
                 gamma: float, beta: float, sigma: float):
    """Grid argmax of the variance-bound curve V1(n) = sigma^2 beta/d * N(b(n)).

    Uses the exact decay spectrum at each n (rank capped at min(r_star, n, d))
    with b(n) = n * cbar * n^{-theta} + gamma.  Ties break toward smaller n.
    Returns (n_at_max, max_value).
    """
    grid = [int(x) for x in n_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    best_n, best_v = grid[0], -np.inf
    for n in grid:
        b = n * cbar * float(n) ** (-theta) + gamma
        capped = DecaySpec(decay.kind, decay.a, min(decay.r_star, d))
        spec = generate_decay_spectrum(capped, n)
        v = sigma ** 2 * beta / d * quantity_N(spec, b) if sigma > 0 else 0.0
        if v > best_v:
            best_n, best_v = n, v
    return best_n, float(best_v)


def exp_monotone_condition(cbar: float, theta: float, gamma: float, a: float,
                           r_star: int) -> bool:
    """Sufficient condition for the exponential-decay variance bound to be
    monotone decreasing in n:

        (theta*cbar + gamma)^2 <= (e^{-a} + (1-theta) cbar)
                                  * (e^{-a(r*+1)} + (1-theta) cbar).

    a and r_star are checked as `DecaySpec` checks an exponential decay;
    cbar and gamma must be finite and >= 0 and theta must lie in [0, 1].
    """
    DecaySpec("exponential", a, r_star)
    _check_nonnegative("cbar", cbar)
    _check_nonnegative("gamma", gamma)
    if not 0 <= theta <= 1:
        raise ConfigError(f"theta must lie in [0, 1], got {theta}")
    lhs = (theta * cbar + gamma) ** 2
    rhs = (np.exp(-a) + (1.0 - theta) * cbar) * (np.exp(-a * (r_star + 1)) + (1.0 - theta) * cbar)
    return bool(lhs <= rhs)
