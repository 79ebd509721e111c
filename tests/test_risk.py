import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from krrlab import (Dataset, KernelSpec, QuerySample, TargetSpec, bias_ref,
                    bound_v1, bound_v2, build_lin_kernel, evaluate_target, excess_risk_mc,
                    lin_factors, linearize_params, make_covariance, quantity_N,
                    sample_dataset, sample_features, spectral_risk_mc)
import krrlab.risk as risk
from krrlab.risk import gram_and_cross

from conftest import dense_v1_spectrum


def _clean_set(cov, n, target, seed):
    """A training set drawn by `seed` with its clean responses, as a sweep's cell fits."""
    data, clean = sample_dataset(cov, n, target, seed)
    return Dataset(data.features, clean)


def _config(n=60, d=120, sigma=1.0, seed=0, m=200):
    cov = make_covariance(d, "harmonic")
    target = TargetSpec(noise_sigma=sigma)
    data = _clean_set(cov, n, target, seed)
    test_X = sample_features(cov, m, seed + 1000)
    clean_test = evaluate_target(target, test_X)
    return cov, data, test_X, clean_test


def _bias(data, model, ridge, test_X, clean_test):
    return excess_risk_mc(data, model, ridge, 0.0, QuerySample(test_X, clean_test),
                          noise_draws=2, seed=0).bias


def _variance(data, model, ridge, sigma, test_X):
    test = QuerySample(test_X, np.zeros(test_X.shape[0]))
    return excess_risk_mc(data, model, ridge, sigma, test, noise_draws=2, seed=0).variance


class TestEmpiricalBias:
    def test_zero_target(self):
        cov, data, test_X, _ = _config()
        zero = Dataset(data.features, np.zeros(data.n))
        b = _bias(zero, KernelSpec.gaussian(), 1e-3, test_X, np.zeros(test_X.shape[0]))
        assert b == 0.0

    def test_huge_lambda_leaves_target_energy(self):
        cov, data, test_X, clean_test = _config()
        b = _bias(data, KernelSpec.gaussian(), 1e12, test_X, clean_test)
        assert b == pytest.approx(np.mean(clean_test ** 2), rel=1e-6)

    def test_single_point_closed_form(self):
        d, ridge = 2, 0.3                    # n = 1
        x1 = np.array([2.0, 0.0])
        s = x1 @ x1 / d                      # = 2
        c = 1.5
        data = Dataset(x1[None, :], [c])
        x = np.array([1.0, 1.0])
        q = x @ x1 / d
        f_star = 0.25
        test_X = np.tile(x, (100, 1))
        got = _bias(data, KernelSpec.linear(), ridge, test_X, np.full(100, f_star))
        assert got == pytest.approx((q * c / (s + ridge) - f_star) ** 2, rel=1e-12)

    def test_requires_enough_test_points(self):
        cov, data, test_X, clean_test = _config()
        with pytest.raises(ValueError):
            _bias(data, KernelSpec.gaussian(), 1e-3, test_X[:50], clean_test[:50])


class TestEmpiricalVariance:
    def test_zero_noise(self):
        cov, data, test_X, _ = _config()
        assert _variance(data, KernelSpec.gaussian(), 1e-3, 0.0, test_X) == 0.0

    def test_sigma_scaling(self):
        cov, data, test_X, _ = _config()
        v1 = _variance(data, KernelSpec.gaussian(), 1e-3, 1.0, test_X)
        v2 = _variance(data, KernelSpec.gaussian(), 1e-3, 2.0, test_X)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_identity_gram_toy(self):
        # orthogonal scaled rows + linear kernel give K = I; with ridge 1 and
        # k(x, X) = (1, 0) the variance is sigma^2 / 4
        d = 6
        X = np.zeros((2, d))
        X[0, 0] = X[1, 1] = np.sqrt(d)
        data = Dataset(X, np.zeros(2))
        q = np.tile(X[0], (100, 1))
        v = _variance(data, KernelSpec.linear(), 1.0, 1.3, q)
        assert v == pytest.approx(1.3 ** 2 / 4.0, rel=1e-12)

    def test_nonincreasing_in_lambda(self):
        cov, data, test_X, _ = _config()
        vals = [_variance(data, KernelSpec.gaussian(), ridge, 1.0, test_X)
                for ridge in (0.0, 6e-3, 0.6, 60.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestExcessRiskMc:
    def test_noiseless_risk_equals_bias(self):
        cov, data, test_X, clean_test = _config(sigma=0.0)
        est = excess_risk_mc(data, KernelSpec.gaussian(), 0.06, 0.0,
                             QuerySample(test_X, clean_test), noise_draws=5, seed=0)
        assert est.risk == pytest.approx(est.bias, rel=1e-12)
        assert est.variance == 0.0

    def test_zero_everything(self):
        cov, data, test_X, _ = _config(sigma=0.0)
        zero = Dataset(data.features, np.zeros(data.n))
        est = excess_risk_mc(zero, KernelSpec.gaussian(), 0.06, 0.0,
                             QuerySample(test_X, np.zeros(test_X.shape[0])),
                             noise_draws=5, seed=0)
        assert est.risk == est.bias == est.variance == 0.0

    def test_decomposition_identity(self):
        cov, data, test_X, clean_test = _config(n=80, d=160, m=400)
        est = excess_risk_mc(data, KernelSpec.gaussian(), 0.08, 1.0,
                             QuerySample(test_X, clean_test), noise_draws=50, seed=3)
        assert abs(est.risk - est.bias - est.variance) <= 4.0 * est.mc_stderr

    def test_linearized_model_identity(self):
        cov, data, test_X, clean_test = _config(n=70, d=140, m=400)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        model = dataclasses.replace(p, gamma=0.0)
        est = excess_risk_mc(data, model, 0.07, 1.0, QuerySample(test_X, clean_test),
                             noise_draws=50, seed=4)
        assert abs(est.risk - est.bias - est.variance) <= 4.0 * est.mc_stderr

    def test_needs_two_draws(self):
        cov, data, test_X, clean_test = _config()
        with pytest.raises(ValueError):
            excess_risk_mc(data, KernelSpec.gaussian(), 0.06, 1.0,
                           QuerySample(test_X, clean_test), noise_draws=1, seed=0)


class TestSpectralRiskMc:
    """The small-side spectral cell against the Cholesky route plus the
    n x n V1 spectrum, on both sides of n = p (p = d+1 columns of F, or d
    for the linear kernel, whose alpha = 0 drops the constant column)."""

    D = 30

    @pytest.mark.parametrize("kernel,n,gamma_override,fixed", itertools.product(
        ("polynomial", "gaussian", "linear"), (15, 30, 31, 60), (None, 0.0),
        (False, True)))
    def test_matches_cholesky_route(self, kernel, n, gamma_override, fixed):
        d = self.D
        cov = make_covariance(d, "harmonic")
        target = TargetSpec(noise_sigma=1.0)
        spec = {"polynomial": KernelSpec.polynomial(3), "gaussian": KernelSpec.gaussian(),
                "linear": KernelSpec.linear()}[kernel]
        params = linearize_params(spec, cov.tau, cov.trace_ratio)
        model = (params if gamma_override is None
                 else dataclasses.replace(params, gamma=gamma_override))
        test_X = sample_features(cov, 150, 21)
        test = QuerySample(test_X, evaluate_target(target, test_X))
        data = _clean_set(cov, n, target, [4, n])
        ridge = 1e-2 if fixed else 0.01 * n ** (1 / 3)      # n * 0.01 n^(-2/3)
        b = ridge + (params.gamma if gamma_override is None else gamma_override)

        ref = excess_risk_mc(data, model, ridge, 1.0, test, 6, np.random.default_rng(8))
        est, spectrum = spectral_risk_mc(data, model, ridge, 1.0, test, 6,
                                         np.random.default_rng(8))
        for got, want in ((est.bias, ref.bias), (est.variance, ref.variance),
                          (est.risk, ref.risk), (est.mc_stderr, ref.mc_stderr)):
            assert got == pytest.approx(want, rel=1e-9)
        v1_ref = bound_v1(dense_v1_spectrum(params, data), params.beta, d, b, 1.0)
        v1 = bound_v1(spectrum, params.beta, d, b, 1.0)
        assert v1 == pytest.approx(v1_ref, rel=1e-9)
        assert spectrum.shape == (n,) and np.all(np.diff(spectrum) <= 0)


class TestRidgelessFilter:
    """At ridge + gamma_eff = 0 `spectral_risk_mc` fits the min-norm
    interpolant: an affine kernel's model is F F^T exactly, so its
    predictions are A F^+ y, A the cross kernel's factor of the test
    points, which `np.linalg.lstsq` computes on F itself."""

    D = 30

    def _cell(self, kernel, n, duplicate=False):
        cov = make_covariance(self.D, "harmonic")
        target = TargetSpec(noise_sigma=1.0)
        spec = KernelSpec.linear() if kernel == "linear" else KernelSpec.polynomial(1)
        model = linearize_params(spec, cov.tau, cov.trace_ratio)
        test_X = sample_features(cov, 150, 21)
        test = QuerySample(test_X, evaluate_target(target, test_X))
        data = _clean_set(cov, n, target, [4, n])
        if duplicate:               # a repeated point makes the n x n core singular
            X = data.features.copy()
            X[1] = X[0]
            data = Dataset(X, evaluate_target(target, X))
        return model, data, test

    @staticmethod
    def _factor(model, X):
        cols = [np.sqrt(model.beta / X.shape[1]) * X]
        if model.alpha > 0:      # the polynomial's h_pivot = alpha = 1
            cols.insert(0, np.ones(X.shape[0]))
        return np.column_stack(cols)

    @pytest.mark.parametrize("kernel,n,duplicate", [
        ("linear", 15, False), ("linear", 15, True), ("linear", 60, False),
        ("polynomial", 15, False), ("polynomial", 15, True), ("polynomial", 60, False)])
    def test_matches_least_squares_min_norm_fit(self, kernel, n, duplicate):
        model, data, test = self._cell(kernel, n, duplicate)
        assert model.gamma == 0
        sigma, draws = 0.7, 6
        est, _ = spectral_risk_mc(data, model, 0.0, sigma, test, draws, 5)
        F, A = self._factor(model, data.features), self._factor(model, test.features)
        eps = sigma * np.random.default_rng(5).standard_normal((n, draws))
        pred = A @ np.linalg.lstsq(F, np.column_stack([data.responses, eps]), rcond=None)[0]
        resid = pred[:, 0] - test.responses
        risk = np.mean(np.mean((resid[:, None] + pred[:, 1:]) ** 2, axis=0))
        hat = A @ np.linalg.pinv(F)                     # m x n prediction map
        variance = sigma ** 2 * np.sum(hat ** 2) / test.n
        assert est.bias == pytest.approx(np.mean(resid ** 2), rel=1e-9)
        assert est.risk == pytest.approx(risk, rel=1e-9)
        assert est.variance == pytest.approx(variance, rel=1e-9)

    @pytest.mark.parametrize("kernel,n", itertools.product(("linear", "polynomial"), (15, 60)))
    def test_is_the_limit_of_a_vanishing_ridge(self, kernel, n):
        # a fixed ridge 1e-10, as `fixed_lambda` sets it
        model, data, test = self._cell(kernel, n)
        ridgeless, _ = spectral_risk_mc(data, model, 0.0, 0.7, test, 6, 5)
        tiny, _ = spectral_risk_mc(data, model, 1e-10, 0.7, test, 6, 5)
        for field in ("bias", "variance", "risk", "mc_stderr"):
            assert getattr(ridgeless, field) == pytest.approx(getattr(tiny, field), rel=1e-8)


class TestBounds:
    def test_v1_zero_sigma(self):
        assert bound_v1(np.array([2.0, 1.0]), 1.0, 10, 0.5, 0.0) == 0.0

    def test_v1_per_term_cap(self):
        spec = np.array([5.0, 2.0, 1.0, 0.0])
        v = bound_v1(spec, 2.0, 100, 0.15, 1.5)
        cap = 1.5 ** 2 * 2.0 * 3 / (4 * 0.15 * 100)
        assert v <= cap + 1e-12

    def test_v1_matches_quantity(self):
        spec = np.array([3.0, 1.0, 0.25])
        v = bound_v1(spec, 1.7, 20, 0.7, 2.0)
        assert v == pytest.approx(4.0 * 1.7 / 20 * quantity_N(spec, 0.7))

    def test_v2_cases(self):
        # moment-order surplus m = 8 gives theta = 1/2 - 2/(8 + m) = 0.375; eps = 0.01
        b = 0.2
        assert bound_v2("radial", 50, b, 0.0) == 0.0
        vals = [bound_v2("radial", d, b, 1.0) for d in (50, 100, 200)]
        assert vals[0] > vals[1] > vals[2]
        inner = bound_v2("inner_product", 50, b, 1.0)
        expect = np.log(50) ** (2 + 4 * 0.01) / (b ** 2 * 50 ** (4 * 0.375 - 1))
        assert inner == pytest.approx(expect, rel=1e-12)
        radial = bound_v2("radial", 50, b, 1.0)
        assert radial == pytest.approx(50 ** (-2 * 0.375) * np.log(50) ** (1 + 0.01) / b ** 2,
                                       rel=1e-12)

    def test_bias_ref(self):
        assert bias_ref(1, 0.7, 0.9) == 1.0
        assert bias_ref(8, 0.5, 1.0) == pytest.approx(0.125)
        # exact power law: log-log slope is -2 theta r
        theta, r = 2 / 3, 1.0
        slope = (np.log(bias_ref(1000, theta, r)) - np.log(bias_ref(100, theta, r))) \
            / (np.log(1000) - np.log(100))
        assert slope == pytest.approx(-4 / 3, rel=1e-12)

    def test_elementary_formula_rederivations(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 5000))
            theta = rng.uniform(0, 1)
            r = rng.uniform(0.05, 1.0)
            assert bias_ref(n, theta, r) == pytest.approx(
                np.exp(-2 * theta * r * np.log(n)), rel=1e-12)


class TestRidgelessBounds:
    """V1 and V2 at b = ridge + gamma = 0, where the fit is the min-norm
    interpolant (`TestRidgelessFilter`): V1 is the affine kernel's
    sigma^2 beta/d tr(K^+), and V2 is inf, its sigma^2/b^2 limit."""

    D = 30

    def _cell(self, kernel, n):
        cov = make_covariance(self.D, "harmonic")
        spec = KernelSpec.linear() if kernel == "linear" else KernelSpec.polynomial(1)
        params = linearize_params(spec, cov.tau, cov.trace_ratio)
        data, _ = sample_dataset(cov, n, TargetSpec(noise_sigma=1.0), [4, n])
        return params, data

    @pytest.mark.parametrize("kernel,n", itertools.product(("linear", "polynomial"), (15, 60)))
    def test_v1_is_the_pseudo_inverse_trace(self, kernel, n):
        # the dense n x n spectrum, whose n - rank roundoff eigenvalues the floor drops
        params, data = self._cell(kernel, n)
        K = build_lin_kernel(dataclasses.replace(params, gamma=0.0), data)
        pinv = np.linalg.pinv(K, rcond=1e-10, hermitian=True)
        want = 0.7 ** 2 * params.beta / self.D * np.trace(pinv)
        got = bound_v1(dense_v1_spectrum(params, data), params.beta, self.D, 0.0, 0.7)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("kernel,n", itertools.product(("linear", "polynomial"), (15, 60)))
    def test_v1_is_the_limit_of_a_vanishing_ridge(self, kernel, n):
        params, data = self._cell(kernel, n)
        spectrum = lin_factors(params, data.features).core_spectrum()
        at_zero = bound_v1(spectrum, params.beta, self.D, 0.0, 0.7)
        gaps = [abs(bound_v1(spectrum, params.beta, self.D, b, 0.7) / at_zero - 1)
                for b in (1e-4, 1e-6, 1e-8)]
        assert gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-6

    @pytest.mark.parametrize("n", [60, 120])
    def test_v1_ignores_roundoff_eigenvalues(self, n):
        # the small side's exact zeros, raised to the roundoff an n x n eigensolve leaves
        params, data = self._cell("polynomial", n)
        spectrum = lin_factors(params, data.features).core_spectrum()
        assert np.count_nonzero(spectrum) == self.D + 1
        noisy = np.where(spectrum > 0, spectrum, 1e-13)
        assert (bound_v1(noisy, params.beta, self.D, 0.0, 0.7)
                == bound_v1(spectrum, params.beta, self.D, 0.0, 0.7))

    def test_v2_is_infinite_and_noiseless_bounds_vanish(self):
        for family in ("radial", "inner_product"):
            assert bound_v2(family, 50, 0.0, 1.0) == np.inf
            assert bound_v2(family, 50, 0.0, 0.0) == 0.0
        assert bound_v1(np.array([2.0, 1.0, 0.0]), 1.0, 10, 0.0, 0.0) == 0.0

    def test_negative_ridge_and_unknown_family_still_raise(self):
        with pytest.raises(ValueError, match="b must be finite and > 0"):
            bound_v1(np.array([2.0, 1.0]), 1.0, 10, -0.2, 1.0)
        with pytest.raises(ValueError, match="b must be >= 0"):
            bound_v2("radial", 50, -0.1, 1.0)
        for sigma in (0.0, 1.0):        # before the early returns at sigma = 0 and b = 0
            with pytest.raises(ValueError, match="unknown kernel family"):
                bound_v2("spherical", 50, 0.0, sigma)


class TestInSpanRate:
    def test_in_span_target_bias_decays_as_power_law(self):
        # a target inside the linearized span (constant function, with the mean
        # component of the Gram matrix matched to the cross kernel) has a bias
        # driven purely by schedule shrinkage: a clean power-law decay, in
        # contrast with the flat approximation floor of out-of-span targets
        theta = 2 / 3
        d = 100
        cov = make_covariance(d, "harmonic")
        p = linearize_params(KernelSpec.gaussian(), cov.tau, 0.0)
        model = dataclasses.replace(p, gamma=0.0)      # schedule is the only ridge
        test_X = sample_features(cov, 400, 77)
        ones_test = np.ones(400)
        biases, ns = [], [200, 400, 800]
        for n in ns:
            data, _ = sample_dataset(cov, n, TargetSpec(noise_sigma=0.0), n)
            ridge = 0.01 * n ** (1 - theta)       # n * 0.01 n^(-theta)
            b = _bias(Dataset(data.features, np.ones(n)), model, ridge, test_X, ones_test)
            biases.append(b)
        assert biases[0] > biases[1] > biases[2]
        slope = np.polyfit(np.log(ns), np.log(biases), 1)[0]
        assert -2.4 <= slope <= -1.0      # schedule-driven decay, rate ~ n^(-2 theta)


def _spectral_cell(ridge=0.03, sigma=1.0, m=120, width=40, noise_draws=4):
    cov, data, test_X, clean_test = _config(n=30, d=40, m=m)
    p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
    return spectral_risk_mc(data, p, ridge, sigma,
                            QuerySample(test_X[:, :width], clean_test), noise_draws, 0)


def _exact_cell(ridge=0.06, sigma=1.0):
    cov, data, test_X, clean_test = _config()
    return excess_risk_mc(data, KernelSpec.gaussian(), ridge, sigma,
                          QuerySample(test_X, clean_test), noise_draws=2, seed=0)


@pytest.mark.parametrize("call", [
    lambda: _exact_cell(ridge=np.nan),
    lambda: _exact_cell(sigma=-1.0),
    lambda: _spectral_cell(width=39),
    lambda: _spectral_cell(noise_draws=1),
    lambda: _spectral_cell(ridge=-1e-3),
    lambda: _spectral_cell(sigma=-1.0),
    lambda: _spectral_cell(m=99),
], ids=["excess_risk_mc-ridge", "excess_risk_mc-sigma", "spectral-width",
        "spectral-noise_draws", "spectral-ridge", "spectral-sigma", "spectral-test_points"])
def test_nan_rejected(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def _explicit_cholesky_cell(data, model, ridge, sigma, test_X, clean_test, draws, seed):
    """The cell as one Cholesky solve of [data.responses, eps, cross^T], fits
    read as cross @ coefficients: the reference for `excess_risk_mc`."""
    K, cross = gram_and_cross(model, data, test_X)
    eps = sigma * np.random.default_rng(seed).standard_normal((data.n, draws))
    rhs = np.concatenate([data.responses[:, None], eps, cross.T], axis=1)
    cf = scipy.linalg.cho_factor(K + ridge * np.eye(data.n), lower=True)
    sol = scipy.linalg.cho_solve(cf, rhs)
    bias_resid = cross @ sol[:, 0] - clean_test
    resid = bias_resid[:, None] + cross @ sol[:, 1:1 + draws]
    per_draw = np.mean(resid ** 2, axis=0)
    return (float(np.mean(bias_resid ** 2)),
            float(sigma ** 2 * np.mean(np.sum(sol[:, 1 + draws:] ** 2, axis=0))),
            float(np.mean(per_draw)),
            float(np.std(per_draw, ddof=1) / np.sqrt(draws)))


@pytest.mark.parametrize("kind", ["exact", "linearized"])
def test_cross_kernel_solve_matches_explicit_cholesky(kind):
    # test samples below, at, one past and across `excess_risk_mc`'s block of test points
    block = risk._TEST_BLOCK
    for m in (100, block, block + 1, 2 * block + 37):
        cov, data, test_X, clean_test = _config(n=90, d=60, m=m)
        spec = KernelSpec.gaussian()
        model = (spec if kind == "exact" else
                 linearize_params(spec, cov.tau, cov.trace_ratio))
        est = excess_risk_mc(data, model, 0.09, 0.7, QuerySample(test_X, clean_test), 20, 5)
        bias, variance, risk_mc, stderr = _explicit_cholesky_cell(data, model, 0.09, 0.7,
                                                                  test_X, clean_test, 20, 5)
        assert est.bias == pytest.approx(bias, rel=1e-12), m
        assert est.variance == pytest.approx(variance, rel=1e-12), m
        assert est.risk == pytest.approx(risk_mc, rel=1e-12), m
        assert est.mc_stderr == pytest.approx(stderr, rel=1e-12), m


class TestResponseLengths:
    """Clean responses whose length does not match their points are refused,
    not broadcast, by `Dataset`: the training set's and the test sample's
    (`QuerySample`) alike."""

    def _cell(self, clean=None, clean_test=None):
        cov, data, test_X, good_test = _config(n=30, d=40, m=120)
        if clean is not None:
            data = Dataset(data.features, clean)
        test = QuerySample(test_X, good_test if clean_test is None else clean_test)
        return excess_risk_mc(data, KernelSpec.gaussian(), 0.03, 1.0, test, 4, 0)

    def test_scalar_clean_test(self):
        with pytest.raises(ValueError, match="responses length 1 does not match 120 feature rows"):
            self._cell(clean_test=0.5)

    def test_length_one_clean_test(self):
        with pytest.raises(ValueError, match="responses length 1 does not match 120 feature rows"):
            self._cell(clean_test=np.array([0.5]))

    def test_short_clean_test(self):
        with pytest.raises(ValueError, match="responses length 119 does not match 120"):
            self._cell(clean_test=np.zeros(119))

    def test_column_clean_test_is_raveled(self):
        cov, data, test_X, clean_test = _config(n=30, d=40, m=120)
        assert np.array_equal(QuerySample(test_X, clean_test[:, None]).responses, clean_test)

    def test_wrong_length_clean(self):
        with pytest.raises(ValueError, match="responses length 29 does not match 30 feature rows"):
            self._cell(clean=np.zeros(29))

    def test_query_sample_mismatch(self):
        with pytest.raises(ValueError, match="responses length 1 does not match 120 feature rows"):
            QuerySample(np.zeros((120, 5)), np.zeros(1))

    def test_spectral_cell_wrong_length_clean(self):
        cov, data, test_X, clean_test = _config(n=30, d=40, m=120)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        with pytest.raises(ValueError, match="responses length 29 does not match 30 feature rows"):
            spectral_risk_mc(Dataset(data.features, np.zeros(29)), p, 0.03, 1.0,
                             QuerySample(test_X, clean_test), 4, 0)


@pytest.mark.parametrize("route", ["exact", "spectral"])
@pytest.mark.parametrize("sample", ["train", "test"])
@pytest.mark.parametrize("bad", ["nan-response", "inf-point"])
def test_non_finite_training_or_test_sample_rejected(route, sample, bad):
    # both samples are checked once, as `Dataset`s; a non-finite response
    # used to reach the fit and the cell returned a NaN bias
    cov, data, test_X, clean_test = _config(n=30, d=40, m=120)
    arrays = {"train": (data.features.copy(), data.responses.copy()), "test": (test_X, clean_test)}
    X, y = arrays[sample]
    if bad == "nan-response":
        y[3] = np.nan
    else:
        X[5, 2] = np.inf
    model = (KernelSpec.gaussian() if route == "exact" else
             linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio))
    cell = excess_risk_mc if route == "exact" else spectral_risk_mc
    with pytest.raises(ValueError, match="contain non-finite entries"):
        cell(Dataset(*arrays["train"]), model, 0.03, 1.0, QuerySample(*arrays["test"]), 4, 0)


@pytest.mark.parametrize("call,match", [
    (lambda: bias_ref(0, 0.5, 1.0), "n must be >= 1"),
    (lambda: bias_ref(10, 0.5, 0.0), r"r must lie in \(0, 1\]"),
    (lambda: bias_ref(10, 0.5, 1.5), r"r must lie in \(0, 1\]"),
    (lambda: bound_v2("radial", 1, 1.0, 1.0), "d must be >= 2"),
], ids=["bias_ref-n", "bias_ref-r-0", "bias_ref-r-above-1", "bound_v2-d"])
def test_reference_and_bound_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
