"""Experiment harness: configuration, risk-curve sweeps, eigenvalue
comparison, and curve-shape classification.

A sweep walks a grid of sample sizes; at each n it draws `trials`
independent datasets, fits the (true or linearized) kernel ridge estimator
under the schedule lambda = cbar * n^(-theta) (or a fixed ridge), and
records the empirical bias, variance and risk together with the evaluable
shape curves.  `_cell` is one (n, trial) cell: its seeded draw, its route
with the ridge `_lambdas` sets (n*lambda, or a fixed lambda itself), both
curves at b = ridge + gamma, and six floats (bias, variance, risk, V1,
V2, stderr^2); each point of the curve is the per-column mean of its
`trials` cells, in trial order.  All Monte-Carlo expectations share one
test sample per sweep (common random numbers) and every cell carries its
own seeded stream, so the output is byte-identical across reruns.

A sweep has two routes.  Every linearized cell fits the positive
semi-definite core alpha 11^T + beta XX^T/d + gamma I, without the
radial correction T, by one small-side eigendecomposition of its rank
<= d+1 factored form (`risk.spectral_risk_mc`): fit, bias, variance and MC
risk are filter sums over it, and a ridgeless cell is the min-norm
interpolant.  An exact affine kernel (`KernelSpec.affine`), its own
linearization, takes this route too.  Other exact kernels take the
Cholesky route, `risk.excess_risk_mc`: their Gram matrix has full rank n,
so one Cholesky factor and a solve against the test points' cross kernel
replace a full eigendecomposition (a cell that fails to factor, such as a
ridgeless one on a rank-deficient K, raises SingularKernelError).  V1's
spectrum, of the rank <= d+1 core, comes from its smaller Gram side
(`linearize.LinFactor.core_spectrum`: F^T F has d+1 columns), with the one
exception that `risk.spectral_risk_mc` names.

Each route stays on one OpenBLAS, and `DataSource.spectral` names a call's
route.  Every product and decomposition of a Cholesky cell, V1's and the
real-mode plug-in `estimate_trace_ratio`'s included, and the spectra of
`eig_compare` run on scipy's (`kernels.scipy_gram`, `scipy_product`,
`scipy_eigvalsh`), so numpy's thread pool, whose threads spin for a while
after each call, is not woken between a cell's products and its Cholesky;
the spectral route, the plug-in's product included, stays on numpy and
loads no scipy.  One numpy call remains in Cholesky cells, before the
kernel is built: the synthetic sampler's QR at n <= d.

`ExperimentConfig` checks types and ranges once, when it is built, so no
cell fails on its input: `gamma_override` on an exact kernel is rejected,
and a ridgeless b = ridge + gamma = 0 runs with or without noise (V1
takes the fit's min-norm filter, V2 is inf).  `DataSource` loads the data of
one call, synthetic or real, in one place and builds its kernel; `_cell`
reads both.
A real pool whose features would overflow the plug-in tau or trace ratio
is refused there, once, before any cell (`_check_plugin_range`); a profile
h that overflows or underflows at the plug-in tau is refused at the cell
that reads it; both refusals close with `DataSource.remedy`.

`eig_compare` reports the top-k spectra and the Weyl interlacing count.  The
exact K has full rank; LAPACK reduces it in place (`scipy.linalg.eigh` on
its F-contiguous view K.T, no copy) and returns only its top k eigenvalues.
The linearized kernel, T included, minus gamma I and the Gram matrix
XX^T/d have rank <= d+3 and d; their spectra come from a thin QR of their
n x (d+3) and n x d factors (`linearize.spectrum_with_t`,
`linearize.factored_spectrum`), padded to length n.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, SingularKernelError
from .kernels import Dataset, KernelSpec, kernel_matrix, scipy_gram
from .libsvm import parse_libsvm
from .linearize import (LinParams, estimate_trace_ratio, factored_spectrum,
                        interlacing_check, lin_factors, linearize_params,
                        perturbation_inertia, spectrum_with_t)
from .risk import (MIN_TEST_POINTS, QuerySample, bias_ref, bound_v1, bound_v2,
                   excess_risk_mc, spectral_risk_mc)
from .synth import (TargetSpec, evaluate_target, make_covariance, sample_dataset,
                    sample_features)

__all__ = [
    "CurveShape",
    "ExperimentConfig",
    "RiskPoint",
    "EigComparison",
    "classify_curve",
    "run_sweep",
    "eig_compare",
    "kernel_by_name",
    "write_csv",
    "CSV_HEADER",
    "KERNELS",
]

CSV_HEADER = "n,lambda,bias_emp,var_emp,risk_emp,v1_bound,v2_bound,bias_ref,stderr"

KERNELS = ("linear", "polynomial", "exponential_inner", "gaussian")
# The largest sigma, ridge and gamma accepted, here and by `krrlab bounds`:
# the variance and V2 square them.
SCALE_LIMIT = 1e150


def kernel_by_name(name: str, degree: int = 3) -> KernelSpec:
    if name == "linear":
        return KernelSpec.linear()
    if name == "polynomial":
        return KernelSpec.polynomial(degree)
    if name == "exponential_inner":
        return KernelSpec.exponential_inner()
    if name == "gaussian":
        return KernelSpec.gaussian()
    raise ConfigError(f"unknown kernel {name!r} (choose from {KERNELS})")


class CurveShape(str, enum.Enum):
    MONOTONE_DECREASING = "monotone_decreasing"
    MONOTONE_INCREASING = "monotone_increasing"
    BELL = "bell"
    DOUBLE_DESCENT = "double_descent"
    FLAT = "flat"
    IRREGULAR = "irregular"


# Classifier constants: an extremum counts only with prominence >= 5% of the
# smoothed range; a relative range under 2% is flat.
_PROMINENCE_FRAC = 0.05
_FLAT_FRAC = 0.02


def _smooth3(values: np.ndarray) -> np.ndarray:
    # centered window-3 average on interior points; endpoints stay raw
    out = values.astype(float).copy()
    if len(values) >= 3:
        out[1:-1] = (values[:-2] + values[1:-1] + values[2:]) / 3.0
    return out


def classify_curve(values) -> CurveShape:
    """Classify a curve's shape after window-3 moving-average smoothing.

    Decisions use only relative prominences, so the result is invariant
    under positive rescaling of the values.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.shape[0] < 5:
        raise ValueError(f"need at least 5 points to classify, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError("curve values must be finite")
    s = _smooth3(v)
    spread = float(s.max() - s.min())
    scale = max(abs(float(s.max())), abs(float(s.min())), 1e-300)
    if spread < _FLAT_FRAC * scale:
        return CurveShape.FLAT
    prom = _PROMINENCE_FRAC * spread
    maxima, minima = [], []
    for i in range(1, len(s) - 1):
        if s[i] > s[i - 1] and s[i] > s[i + 1]:
            if min(s[i] - s[:i].min(), s[i] - s[i + 1:].min()) >= prom:
                maxima.append(i)
        elif s[i] < s[i - 1] and s[i] < s[i + 1]:
            if min(s[:i].max() - s[i], s[i + 1:].max() - s[i]) >= prom:
                minima.append(i)
    if not maxima and not minima:
        return (CurveShape.MONOTONE_DECREASING if s[-1] < s[0]
                else CurveShape.MONOTONE_INCREASING)
    if len(maxima) == 1 and not minima and s[-1] <= s[0]:
        return CurveShape.BELL
    if (len(maxima) == 1 and len(minima) == 1 and minima[0] < maxima[0]
            and s[-1] <= s[maxima[0]]):
        return CurveShape.DOUBLE_DESCENT
    return CurveShape.IRREGULAR


def parse_grid(text) -> list:
    """Grid from 'start:stop:step' (stop inclusive) or an explicit int list."""
    if isinstance(text, str):
        try:
            start, stop, step = (int(p) for p in text.split(":"))
        except ValueError:
            raise ConfigError(f"bad n_grid {text!r}, expected start:stop:step") from None
        if step < 1 or stop < start:
            raise ConfigError(f"bad n_grid {text!r}")
        grid = list(range(start, stop + 1, step))
    elif isinstance(text, (list, tuple)) and all(
            isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in text):
        grid = [int(x) for x in text]
    else:
        raise ConfigError(f"n_grid must be 'start:stop:step' or a list of integers, got {text!r}")
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ConfigError("n_grid must be nonempty, positive, strictly increasing")
    return grid


def _finite_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# `ExperimentConfig`'s type checks, keyed by a field's annotation: (accepts
# the value, what the value must be)
_TYPE_CHECKS = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer"),
    "float": (_finite_real, "a finite number"),
    "Optional[float]": (lambda v: v is None or _finite_real(v), "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "Optional[str]": (lambda v: v is None or isinstance(v, str), "a path string"),
}


@dataclass
class ExperimentConfig:
    """Everything one sweep needs; JSON-serializable, unknown keys rejected."""

    mode: str = "synth"                   # "synth" | "real"
    kernel: str = "gaussian"
    degree: int = 3
    use_linearized: bool = True
    gamma_override: Optional[float] = None
    decay: str = "harmonic"
    a: Optional[float] = None
    d: int = 500
    n_grid: object = "100:1000:100"
    cbar: float = 0.01
    theta: float = 2.0 / 3.0
    fixed_lambda: Optional[float] = None  # n-independent ridge K + lambda I
    sigma: float = 1.0
    trials: int = 10
    seed: int = 0
    test_points: int = 2000
    noise_draws: int = 50
    source_r: float = 1.0                 # exponent of the bias reference curve
    standardize: bool = False             # real mode: per-feature z-score
    input_path: Optional[str] = None
    output_path: Optional[str] = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            accepts, must_be = _TYPE_CHECKS.get(field.type, (lambda v: True, None))
            v = getattr(self, field.name)
            if not accepts(v):
                raise ConfigError(f"{field.name} must be {must_be}, got {v!r}")
        if self.mode not in ("synth", "real"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        kernel_by_name(self.kernel, self.degree)           # rejects an unknown kernel
        self.grid = parse_grid(self.n_grid)
        if self.d < 2:
            raise ConfigError(f"d must be >= 2, got {self.d}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.test_points < MIN_TEST_POINTS:
            raise ConfigError(f"test_points must be >= {MIN_TEST_POINTS}, "
                              f"got {self.test_points}")
        if self.noise_draws < 2:
            raise ConfigError(f"noise_draws must be >= 2, got {self.noise_draws}")
        if self.mode == "real" and not self.input_path:
            raise ConfigError("real mode requires input_path")
        if self.mode == "synth" and (self.standardize or self.input_path is not None):
            field = "standardize" if self.standardize else "input_path"
            raise ConfigError(f"{field} applies to real mode only, not to mode synth")
        for name in ("sigma", "fixed_lambda", "gamma_override"):
            v = getattr(self, name)
            if not 0 <= (v or 0) <= SCALE_LIMIT:
                raise ConfigError(f"{name} must lie in [0, {SCALE_LIMIT:g}], got {v}")
        if not (0 <= self.theta <= 1 and 0 <= self.cbar <= 1):
            raise ConfigError("need 0 <= theta <= 1 and 0 <= cbar <= 1")
        if not self.use_linearized and self.gamma_override is not None:
            raise ConfigError("gamma_override applies to linearized fits only, not to the exact "
                              "kernel (use_linearized false)")
        if not 0 < self.source_r <= 1:
            raise ConfigError(f"source_r must lie in (0, 1], got {self.source_r}")
        if self.mode == "synth":
            make_covariance(self.d, self.decay, self.a)     # rejects a bad decay or a

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


@dataclass(frozen=True)
class RiskPoint:
    n: int
    lam: float
    bias_emp: float
    var_emp: float
    risk_emp: float
    v1_bound: float
    v2_bound: float
    bias_ref: float
    mc_stderr: float


def write_csv(points, path: str) -> str:
    return _write_rows(CSV_HEADER, map(dataclasses.astuple, points), path)


def _write_rows(header: str, rows, path: Optional[str]) -> str:
    """CSV text of `header` and `rows`, each row's first field (an integer
    index) as is and the others to 12 significant digits; written to `path`
    as ASCII, its parent directory created, when given."""
    lines = [header] + [",".join([str(row[0]), *(format(v, ".12g") for v in row[1:])])
                        for row in rows]
    text = "\n".join(lines) + "\n"
    if path:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
    return text


class DataSource:
    """The data of one `run_sweep` or `eig_compare` call, for n <= n_max.

    Synth mode: the covariance, the target, the LinParams (they depend only
    on the covariance) and one test sample from [seed, 7, 1] shared by all
    cells.  Real mode: the parsed, optionally standardized pool and one
    permutation per trial from [seed, 900, t]; training sets are its nested
    prefixes and its tail of up to `test_points` (at least `MIN_TEST_POINTS`)
    rows is held out.  `with_test` False, eig_compare's source, builds no
    test sample, and in real mode only parses the file: eig_compare fits the
    raw rows, so no pool is built or checked, and its `remedy` for too large
    features says so.  `gamma_override`, when set, takes the place of every
    LinParams' implicit gamma (`_fitted`).
    `spec` is the call's kernel, and `spectral` the route of its cells:
    linearized fits, and an exact affine kernel (its own linearization),
    take the spectral route, on numpy; other exact kernels the Cholesky
    route, on scipy.
    """

    def __init__(self, config: ExperimentConfig, n_max: int, with_test: bool = True):
        self.config, self.spec = config, kernel_by_name(config.kernel, config.degree)
        self.spectral = config.use_linearized or self.spec.affine
        self.cov = self.params = None
        if config.mode == "synth":
            self.cov = make_covariance(config.d, config.decay, config.a)
            self.target = TargetSpec(noise_sigma=config.sigma)
            self.params = self._fitted(linearize_params(self.spec, self.cov.tau,
                                                        self.cov.trace_ratio))
            if with_test:
                test_X = sample_features(self.cov, config.test_points,
                                         np.random.default_rng([config.seed, 7, 1]))
                shared = QuerySample(test_X, evaluate_target(self.target, test_X))
                self._tests = [shared] * config.trials
            return
        self.raw = parse_libsvm(config.input_path, config.d)
        self.remedy = ("--standardize rescales features this large" if with_test else
                       "eig-compare fits the file's raw rows whatever --standardize says")
        need = n_max + (MIN_TEST_POINTS if with_test else 0)
        if self.raw.n < need:
            raise ConfigError(f"real mode needs {need} rows for n = {n_max}; "
                              f"{config.input_path} has {self.raw.n}")
        if not with_test:
            return
        X = self.raw.features
        if config.standardize:
            # z-scores do not change when X is scaled by a power of two, which
            # is exact and keeps the squares of huge features finite
            X = X / 2.0 ** np.frexp(np.abs(X).max())[1]
            sd = X.std(axis=0, ddof=0)
            sd[sd == 0] = 1.0
            X = (X - X.mean(axis=0)) / sd
        _check_plugin_range(X, self.remedy)
        self.pool = Dataset(X, self.raw.responses)
        self.perms = [np.random.default_rng([config.seed, 900, t]).permutation(self.pool.n)
                      for t in range(config.trials)]
        tails = [p[max(self.pool.n - config.test_points, n_max):] for p in self.perms]
        self._tests = [QuerySample(self.pool.features[h], self.pool.responses[h])
                       for h in tails]

    def train(self, n: int, trial: int, rng: np.random.Generator) -> Dataset:
        """Training set of cell (n, trial): its points and their clean
        responses (synth: the target's values; real: the pool's responses)."""
        if self.cov is not None:
            # the noisy responses are drawn and dropped: their draw sets where
            # `rng`, the routes' noise stream, starts
            data, clean = sample_dataset(self.cov, n, self.target, rng)
            return Dataset(data.features, clean)
        rows = self.perms[trial][:n]
        return Dataset(self.pool.features[rows], self.pool.responses[rows])

    def test(self, trial: int) -> QuerySample:
        return self._tests[trial]

    def lin_params(self, X: np.ndarray) -> LinParams:
        """The LinParams that fit and bound training set X: the covariance's
        (synth) or plug-in estimates from X (real).  The plug-in's d x d
        product runs on the BLAS of the call's route: numpy's on the spectral
        route, scipy's on the Cholesky route."""
        if self.cov is not None:
            return self.params
        tau = float(np.mean(np.einsum("ij,ij->i", X, X))) / X.shape[1]
        gram = None if self.spectral else scipy_gram
        try:
            params = linearize_params(self.spec, tau, estimate_trace_ratio(X, gram))
        except ConfigError as exc:
            raise ConfigError(f"{exc}; {self.remedy}") from None
        return self._fitted(params)

    def _fitted(self, params: LinParams) -> LinParams:
        """`params` with gamma replaced by `gamma_override`, when set."""
        g = self.config.gamma_override
        return params if g is None else dataclasses.replace(params, gamma=float(g))


def _check_plugin_range(X: np.ndarray, remedy: str) -> None:
    """Refuse real-mode features whose plug-in tau and trace ratio overflow,
    with `remedy` closing the message.

    Every training set's `estimate_trace_ratio` sums squares of the entries
    of its d x d scatter, each at most 8 t^2 for entries of magnitude <= t,
    so features below (float max / (64 d^2))^(1/4) keep every sum finite.
    """
    top, d = float(np.abs(X).max()), X.shape[1]
    limit = (np.finfo(float).max / (64.0 * d * d)) ** 0.25
    if top > limit:
        raise ConfigError(f"real-mode features reach {top:.3g}, above {limit:.3g}, where the "
                          f"plug-in tau and trace ratio overflow at d={d}; {remedy}")


def _lambdas(config: ExperimentConfig, n: int):
    """(the lambda reported at n, the ridge the solve adds to K's diagonal):
    (lambda, n*lambda) on the schedule, (lambda, lambda) for a fixed lambda."""
    if config.fixed_lambda is not None:
        return config.fixed_lambda, config.fixed_lambda
    lam = config.cbar * float(n) ** (-config.theta)
    return lam, n * lam


def _cell(source: DataSource, n: int, t: int, ridge: float) -> tuple:
    """(bias, variance, risk, V1, V2, stderr^2) of cell (n, trial t) of the
    source's call, whose solve adds `ridge` to K's diagonal."""
    config, spec = source.config, source.spec
    rng = np.random.default_rng([config.seed, n, t])
    data = source.train(n, t, rng)
    test = source.test(t)
    params = source.lin_params(data.features)
    try:
        if source.spectral:
            est, spectrum = spectral_risk_mc(data, params, ridge, config.sigma, test,
                                             config.noise_draws, rng)
        else:
            est = excess_risk_mc(data, spec, ridge, config.sigma, test, config.noise_draws, rng)
            spectrum = lin_factors(params, data.features).core_spectrum()
    except SingularKernelError as exc:
        raise SingularKernelError(f"cell n={n}, trial {t}, ridge {ridge:.6g}: {exc}",
                                  exc.smallest_eigenvalue) from exc
    b = ridge + params.gamma
    v1 = bound_v1(spectrum, params.beta, data.d, b, config.sigma)
    v2 = bound_v2(spec.family, data.d, b, config.sigma)
    return est.bias, est.variance, est.risk, v1, v2, est.mc_stderr ** 2


def run_sweep(config: ExperimentConfig):
    """Run the sweep; returns (points, csv_text).  Writes the CSV if
    `config.output_path` is set.  A cell whose system is not positive
    definite raises SingularKernelError naming n, the trial and the ridge."""
    source = DataSource(config, config.grid[-1])
    points = []
    for n in config.grid:
        lam, ridge = _lambdas(config, n)
        cells = np.array([_cell(source, n, t, ridge) for t in range(config.trials)])
        # 1-D means in trial order: np.mean(cells, axis=0) sums in another order
        bias, var, risk, v1, v2, stderr_sq = (float(np.mean(col)) for col in cells.T)
        ref = bias_ref(n, config.theta if config.fixed_lambda is None else 0.0,
                       config.source_r)
        points.append(RiskPoint(n, lam, bias, var, risk, v1, v2, float(ref),
                                float(np.sqrt(stderr_sq / config.trials))))
    csv_text = write_csv(points, config.output_path)
    return points, csv_text


@dataclass(frozen=True)
class EigComparison:
    """Top-k spectra of `eig_compare` and its interlacing report."""

    eig_true: np.ndarray
    eig_lin: np.ndarray
    eig_scaled_gram: np.ndarray
    interlacing_violations: int
    interlacing_max_violation: float
    csv_text: str


def eig_compare(config: ExperimentConfig, n: Optional[int] = None, k: int = 60,
                output_path: Optional[str] = None) -> EigComparison:
    """Compare the top-k spectra of K, its full linearization, and the scaled
    Gram matrix beta * XX^T/d (+ gamma), with the Weyl interlacing report for
    the inertia of the rank <= 3 perturbation alpha 11^T + T.

    K has full rank: one `scipy.linalg.eigh` overwrites it and returns only
    its top k eigenvalues, so K is the only n x n matrix held.  The
    linearization, T included (`spectrum_with_t`), and the Gram matrix have
    rank <= d+3 and d; their spectra come from a thin QR of their factors
    (`factored_spectrum`), at full length n.  QR rather than a rotation of
    the factor's Gram eigenbasis by its indefinite middle matrix: on the
    `real_exact` benchmark draw (seed 2, n = 2000, d = 100) that rotation put
    the top 60 up to 3.9e-12 relative off a dense `eigvalsh` and changed 1-2
    printed values per seed, where QR stays within 3.0e-14, the dense
    reference's own accuracy.
    The first eigenvalue is flagged in the CSV (column is_top1) since its
    scale is dominated by the rank-one mean component.
    """
    n = n if n is not None else config.grid[-1]
    if n < 1 or k < 1:
        raise ConfigError(f"eig-compare needs n >= 1 and k >= 1, got n={n}, k={k}")
    source = DataSource(config, n, with_test=False)
    rng = np.random.default_rng([config.seed, n, 0])
    if source.cov is not None:
        data = source.train(n, 0, rng)
    else:
        # unlike the sweep: the raw pool (never standardized), rows drawn by [seed, n, 0]
        rows = rng.permutation(source.raw.n)[:n]
        data = Dataset(source.raw.features[rows], source.raw.responses[rows])
        _check_plugin_range(data.features, source.remedy)
    params = source.lin_params(data.features)

    k = min(k, n)
    import scipy.linalg        # loaded on use, as throughout the exact route
    # K is symmetric, so K.T is K in the F-contiguous layout LAPACK works in
    eig_true = scipy.linalg.eigh(kernel_matrix(source.spec, data).T, eigvals_only=True,
                                 overwrite_a=True, check_finite=False,
                                 subset_by_index=(n - k, n - 1))[::-1]
    eig_lin = spectrum_with_t(params, data.features)
    eig_g = factored_spectrum(data.features, np.eye(data.d) / data.d)

    report = interlacing_check(eig_lin, eig_g, params.beta, params.gamma,
                               perturbation_inertia(params))

    scaled = params.beta * eig_g[:k] + params.gamma
    csv_text = _write_rows("i,eig_true,eig_lin,eig_scaled_gram,is_top1",
                           [(i + 1, eig_true[i], eig_lin[i], scaled[i], int(i == 0))
                            for i in range(k)], output_path)
    return EigComparison(
        eig_true=eig_true,
        eig_lin=eig_lin[:k],
        eig_scaled_gram=scaled,
        interlacing_violations=len(report.violations),
        interlacing_max_violation=report.max_violation,
        csv_text=csv_text,
    )
