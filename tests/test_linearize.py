import dataclasses

import numpy as np
import pytest

import krrlab.kernels as kernels
from krrlab import (Dataset, KernelSpec, LinModel, approx_error, build_lin_kernel,
                    cross_kernel_matrix, estimate_trace_ratio, factored_spectrum,
                    interlacing_check, kernel_matrix, lin_cross_kernel_matrix,
                    lin_factors, linearize_params, make_covariance, moment_diagnostics,
                    perturbation_inertia, QuerySample, sample_dataset, sample_features,
                    spectrum_with_t, TargetSpec)

from conftest import dense_lin_with_t


def _table4(variant, degree, tau, s):
    """Closed-form coefficient rows for the tabulated kernels."""
    if variant == "linear":
        return 0.0, 1.0, 0.0
    if variant == "polynomial":
        p = degree
        return 1.0 + p * (p - 1) * s / 2.0, float(p), (1.0 + tau) ** p - 1.0 - p * tau
    if variant == "exponential_inner":
        return 1.0 + 2.0 * s, 2.0, np.exp(2.0 * tau) - 1.0 - 2.0 * tau
    if variant == "gaussian":
        e = np.exp(-2.0 * tau)
        return e * (1.0 + 2.0 * s), 2.0 * e, 1.0 - 2.0 * tau * e - e
    raise AssertionError(variant)


class TestLinearizeParams:
    def test_linear_row(self):
        p = linearize_params(KernelSpec.linear(), 1.0, 0.05)
        assert (p.alpha, p.beta, p.gamma) == (0.0, 1.0, 0.0)

    def test_polynomial_row_tau_one(self):
        s = 0.037
        p = linearize_params(KernelSpec.polynomial(3), 1.0, s)
        assert p.alpha == pytest.approx(1 + 3 * s, rel=1e-14)
        assert p.beta == pytest.approx(3.0)
        assert p.gamma == pytest.approx(4.0, rel=1e-14)

    def test_gaussian_row_tau_half(self):
        p = linearize_params(KernelSpec.gaussian(), 0.5, 0.0)
        assert p.beta == pytest.approx(2 * np.exp(-1.0), abs=1e-6)
        assert p.gamma == pytest.approx(1 - 2 * np.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("variant,degree", [("linear", 0), ("polynomial", 2),
                                                ("polynomial", 5), ("exponential_inner", 0),
                                                ("gaussian", 0)])
    def test_tabulated_rows_match_general_formulas(self, variant, degree):
        rng = np.random.default_rng(11)
        spec = {"linear": KernelSpec.linear(),
                "polynomial": KernelSpec.polynomial(degree) if degree else None,
                "exponential_inner": KernelSpec.exponential_inner(),
                "gaussian": KernelSpec.gaussian()}[variant]
        for _ in range(20):
            tau = rng.uniform(0.0, 2.0)
            s = rng.uniform(0.0, 0.2)
            p = linearize_params(spec, tau, s)
            a, b, g = _table4(variant, degree, tau, s)
            assert p.alpha == pytest.approx(a, rel=1e-12, abs=1e-12)
            assert p.beta == pytest.approx(b, rel=1e-12)
            assert p.gamma == pytest.approx(g, rel=1e-12, abs=1e-12)

    def test_invalid_custom_profile_rejected(self):
        # decreasing h on an inner-product kernel gives beta < 0
        bad = KernelSpec.custom("inner_product", h=lambda t: -t,
                                h1=lambda t: -1.0, h2=lambda t: 0.0)
        with pytest.raises(ValueError):
            linearize_params(bad, 1.0, 0.0)

    def test_affine_profile_gamma_roundoff_is_zero(self):
        # gamma = h(tau) - h(0) - tau h'(0) is 0 for h(t) = 1 + t, but rounds
        # below 0 at some tau; those must not be rejected
        spec = KernelSpec.polynomial(1)
        taus = np.linspace(0.01, 3.0, 300)
        assert any((1.0 + t) - 1.0 - t < 0 for t in taus)
        for tau in taus:
            p = linearize_params(spec, tau, 0.01)
            assert p.gamma == 0.0 or 0.0 < p.gamma <= 1e-15
            assert p.alpha == 1.0

    def test_negative_gamma_beyond_roundoff_rejected(self):
        # h(t) = 1 + t - t^2/8 has h(tau) - h(0) - tau h'(0) = -tau^2/8
        bad = KernelSpec.custom("inner_product", h=lambda t: 1.0 + t - t * t / 8.0,
                                h1=lambda t: 1.0 - t / 4.0, h2=lambda t: -0.25)
        with pytest.raises(ValueError, match="gamma="):
            linearize_params(bad, 1e-6, 0.0)


def _dataset(n, d, seed=0, kind="harmonic"):
    cov = make_covariance(d, kind)
    data, _ = sample_dataset(cov, n, TargetSpec(noise_sigma=0.0), seed)
    return cov, data


class TestBuildLinKernel:
    def test_inner_product_has_zero_t(self):
        cov, data = _dataset(20, 50, seed=1)
        p = linearize_params(KernelSpec.polynomial(3), cov.tau, cov.trace_ratio)
        full = dense_lin_with_t(LinModel(p), data)
        assert np.array_equal(full, build_lin_kernel(LinModel(p), data))

    def test_pure_gram_when_alpha_gamma_zero(self):
        cov, data = _dataset(15, 40, seed=2)
        p = linearize_params(KernelSpec.linear(), cov.tau, cov.trace_ratio)
        K = dense_lin_with_t(LinModel(p), data)
        G = data.features @ data.features.T / data.d
        assert np.allclose(K, G, atol=1e-14)

    def test_equal_norms_kill_radial_correction(self):
        # identity covariance + orthogonal rows: ||x_i||^2 = d exactly
        cov, data = _dataset(12, 30, seed=3, kind="identity")
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        psi = np.sum(data.features ** 2, axis=1) / data.d - p.tau
        assert np.allclose(psi, 0.0, atol=1e-12)
        T = dense_lin_with_t(LinModel(p), data) - build_lin_kernel(LinModel(p), data)
        assert np.allclose(T, 0.0, atol=1e-12)

    def test_gamma_override_changes_diagonal_only(self):
        cov, data = _dataset(18, 45, seed=4)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        full = dense_lin_with_t(LinModel(p), data)
        noreg = dense_lin_with_t(LinModel(p, 0.0), data)
        diff = full - noreg
        assert np.allclose(diff, p.gamma * np.eye(data.n), atol=1e-14)

    def test_gamma_eff_is_decided_by_lin_model(self):
        cov, data = _dataset(10, 30, seed=4)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        assert LinModel(p).gamma == p.gamma
        assert LinModel(p, gamma_override=0.25).gamma == 0.25
        diff = (build_lin_kernel(LinModel(p, 0.25), data)
                - build_lin_kernel(LinModel(p, 0.0), data))
        assert np.allclose(diff, 0.25 * np.eye(data.n), atol=1e-14)
        with pytest.raises(ValueError, match="gamma_override"):
            LinModel(p, gamma_override=-0.1)

    @pytest.mark.parametrize("seed", range(10))
    def test_rank_structure_of_correction(self, seed):
        cov, data = _dataset(25, 60, seed=seed)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        psi = np.sum(data.features ** 2, axis=1) / data.d - p.tau
        A = psi[:, None] + psi[None, :]
        sv = np.linalg.svd(A, compute_uv=False)
        assert sv[2] <= 1e-8 * sv[0]
        sv2 = np.linalg.svd(A * A, compute_uv=False)
        assert sv2[3] <= 1e-8 * sv2[0]
        # nonzero eigenvalues of A are 1^T psi +/- sqrt(n) ||psi||
        w = np.sort(np.linalg.eigvalsh(A))
        lo = psi.sum() - np.sqrt(data.n) * np.linalg.norm(psi)
        hi = psi.sum() + np.sqrt(data.n) * np.linalg.norm(psi)
        assert w[0] == pytest.approx(lo, rel=1e-8)
        assert w[-1] == pytest.approx(hi, rel=1e-8)


class TestLinCross:
    def test_linear_is_scaled_gram(self):
        cov, data = _dataset(10, 20, seed=5)
        p = linearize_params(KernelSpec.linear(), cov.tau, cov.trace_ratio)
        q = np.linspace(-1, 1, 20)
        got = lin_cross_kernel_matrix(LinModel(p), data, q[None])[0]
        assert np.allclose(got, data.features @ q / 20.0)

    def test_gaussian_cross_deviation_shrinks_with_d(self):
        spec = KernelSpec.gaussian()
        devs = {}
        for d in (200, 800):
            vals = []
            for seed in range(3):
                cov, data = _dataset(50, d, seed=seed, kind="identity")
                p = linearize_params(spec, cov.tau, cov.trace_ratio)
                rng = np.random.default_rng([99, d, seed])
                Q = rng.standard_normal((50, d))
                true = cross_kernel_matrix(spec, data, Q)
                lin = lin_cross_kernel_matrix(LinModel(p), data, Q)
                vals.append(np.abs(true - lin).max())
            devs[d] = np.mean(vals)
        assert devs[800] < devs[200]


class TestApproxError:
    def test_zero_on_equal(self):
        K = np.eye(4)
        assert approx_error(K, K) == 0.0

    def test_diagonal_difference(self):
        K = np.zeros((5, 5))
        K2 = K.copy()
        K2[4, 4] = 0.125
        assert approx_error(K, K2) == pytest.approx(0.125)

    def test_decreasing_in_dimension_gaussian(self):
        spec = KernelSpec.gaussian()
        errs = {}
        for (n, d) in ((100, 200), (400, 800)):
            vals = []
            for seed in range(3):
                rng = np.random.default_rng([7, n, d, seed])
                X = rng.standard_normal((n, d))      # Sigma = I, iid entries
                data = Dataset(X, np.zeros(n))
                p = linearize_params(spec, 1.0, 1.0 / d)
                K = kernel_matrix(spec, data)
                K_lin = dense_lin_with_t(LinModel(p), data)
                vals.append(approx_error(K, K_lin))
            errs[(n, d)] = np.mean(vals)
        assert errs[(400, 800)] < errs[(100, 200)]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            approx_error(np.eye(3), np.eye(4))


class TestInterlacing:
    def test_exact_shift_scale_has_no_violations(self):
        cov, data = _dataset(30, 80, seed=9)
        G = data.features @ data.features.T / data.d
        eig_g = np.linalg.eigvalsh(G)[::-1]
        beta, gamma = 1.7, 0.3
        report = interlacing_check(beta * eig_g + gamma, eig_g, beta, gamma, (1, 0))
        assert report.ok

    def test_rank_one_perturbation_interlaces(self):
        cov, data = _dataset(40, 90, seed=10)
        p = linearize_params(KernelSpec.polynomial(3), cov.tau, cov.trace_ratio)
        K_lin = dense_lin_with_t(LinModel(p), data)
        eig_lin = np.linalg.eigvalsh(K_lin)[::-1]
        G = data.features @ data.features.T / data.d
        eig_g = np.linalg.eigvalsh(G)[::-1]
        report = interlacing_check(eig_lin, eig_g, p.beta, p.gamma, (1, 0))
        assert report.ok

    def test_radial_perturbation_obeys_weyl_bracket(self):
        cov, data = _dataset(40, 90, seed=10)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        K_lin = dense_lin_with_t(LinModel(p), data)
        eig_lin = np.linalg.eigvalsh(K_lin)[::-1]
        G = data.features @ data.features.T / data.d
        eig_g = np.linalg.eigvalsh(G)[::-1]
        report = interlacing_check(eig_lin, eig_g, p.beta, p.gamma,
                                   perturbation_inertia(p))
        assert report.ok

    def test_negative_direction_shifts_lower_bracket(self):
        # K = 2G + 0.1 I - u u^T: one negative eigenvalue, inertia (0, 1)
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 8))
        G = A @ A.T / 8
        u = rng.standard_normal(8)
        eig_g = np.linalg.eigvalsh(G)[::-1]
        eig_k = np.linalg.eigvalsh(2.0 * G + 0.1 * np.eye(8) - np.outer(u, u))[::-1]
        assert interlacing_check(eig_k, eig_g, 2.0, 0.1, (0, 1)).ok
        wrong = interlacing_check(eig_k, eig_g, 2.0, 0.1, (1, 0))
        assert not wrong.ok
        assert wrong.violations[0][0] == 1           # l_1 drops below 2 l_1(G) + 0.1

    def test_corrupted_spectrum_is_flagged(self):
        eig_g = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        eig_k = 2.0 * eig_g + 0.1
        eig_k[2] = 5.0          # still sorted, but below its lower bracket 6.1
        report = interlacing_check(eig_k, eig_g, 2.0, 0.1, (1, 0))
        assert not report.ok
        assert report.max_violation == pytest.approx(1.1)
        assert report.violations[0][0] == 3          # 1-based index

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            interlacing_check(np.array([1.0, 2.0, 0.5]), np.ones(3), 1.0, 0.0, (1, 0))
        for bad in (np.array([1.0, np.nan, 0.5]), np.array([np.inf, 1.0, 0.5])):
            with pytest.raises(ValueError, match="finite"):   # passes the order check
                interlacing_check(bad, np.ones(3), 1.0, 0.0, (1, 0))
            with pytest.raises(ValueError, match="finite"):
                interlacing_check(np.ones(3), bad, 1.0, 0.0, (1, 0))
        for beta, gamma in ((np.nan, 0.0), (1.0, np.nan)):    # every bracket NaN
            with pytest.raises(ValueError, match="finite"):
                interlacing_check(np.ones(3), np.ones(3), beta, gamma, (1, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            interlacing_check(np.ones(3), np.ones(4), 1.0, 0.0, (1, 0))

    def test_negative_inertia_rejected(self):
        with pytest.raises(ValueError):
            interlacing_check(np.ones(3), np.ones(3), 1.0, 0.0, (1, -1))


class TestPerturbationInertia:
    def test_inner_product_is_rank_one_positive(self):
        p = linearize_params(KernelSpec.polynomial(3), 1.0, 0.01)
        assert perturbation_inertia(p) == (1, 0)

    def test_linear_kernel_has_no_perturbation(self):
        p = linearize_params(KernelSpec.linear(), 1.0, 0.01)
        assert perturbation_inertia(p) == (0, 0)

    def test_gaussian_is_indefinite_rank_three(self):
        # M = [[alpha, h', h''/2], [h', h'', 0], [h''/2, 0, 0]] has
        # det = -h''^3/4 < 0 and trace alpha + h'' > 0: two positive, one negative
        p = linearize_params(KernelSpec.gaussian(), 1.0, 0.01)
        assert p.h2_pivot > 0
        assert perturbation_inertia(p) == (2, 1)

    def test_matches_assembled_perturbation(self):
        # the inertia of alpha 11^T + T on data equals that of the 3x3 form
        cov, data = _dataset(40, 90, seed=11)
        p = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        K_lin = dense_lin_with_t(LinModel(p, 0.0), data)
        P = K_lin - p.beta * data.features @ data.features.T / data.d
        w = np.linalg.eigvalsh((P + P.T) / 2.0)
        tol = 1e-10 * np.max(np.abs(w))
        assert (int(np.sum(w > tol)), int(np.sum(w < -tol))) == perturbation_inertia(p)


_SPECS = {"polynomial": KernelSpec.polynomial(3), "gaussian": KernelSpec.gaussian(),
          "linear": KernelSpec.linear()}


class TestFactoredSpectrum:
    # d = 20: `spectrum_with_t`'s factor [V, X] has p = 23 columns (radial),
    # 21 (inner product) or 20 (the linear kernel, whose alpha = 0 weighs the
    # constant column by 0, so it is dropped); the offsets give n < p, n = p
    # and n > p
    @pytest.mark.parametrize("kernel", sorted(_SPECS))
    @pytest.mark.parametrize("gamma_override", [None, 0.0])
    @pytest.mark.parametrize("offset", [-6, 0, 17])
    def test_matches_dense_spectra(self, kernel, gamma_override, offset):
        d = 20
        spec = _SPECS[kernel]
        p_cols = d + {"gaussian": 3, "polynomial": 1, "linear": 0}[kernel]
        n = p_cols + offset
        cov, data = _dataset(n, d, seed=30 + n)
        params = linearize_params(spec, cov.tau, cov.trace_ratio)
        model = LinModel(params, gamma_override)
        gamma_eff = model.gamma

        eig_lin = spectrum_with_t(model, data.features)
        dense_lin = np.linalg.eigvalsh(dense_lin_with_t(model, data))[::-1]
        assert eig_lin.shape == (n,)
        assert np.max(np.abs(eig_lin - dense_lin)) <= 1e-10 * abs(dense_lin[0])
        # the factor's null space reads gamma_eff exactly
        assert np.sum(eig_lin == gamma_eff) >= n - min(n, p_cols)

        X = data.features
        eig_g = factored_spectrum(X, np.eye(d) / d)
        dense_g = np.linalg.eigvalsh(X @ X.T / d)[::-1]
        assert eig_g.shape == (n,)
        assert np.max(np.abs(eig_g - dense_g)) <= 1e-10 * dense_g[0]
        assert np.all(eig_g[min(n, d):] == 0.0)

        report = interlacing_check(eig_lin, eig_g, params.beta, gamma_eff,
                                   perturbation_inertia(params))
        assert len(report.violations) == 0

    def test_indefinite_core_is_sorted_and_padded(self):
        rng = np.random.default_rng(3)
        W = rng.standard_normal((7, 2))
        D = np.diag([2.0, -1.0])
        eig = factored_spectrum(W, D, 0.5)
        dense = np.linalg.eigvalsh(W @ D @ W.T + 0.5 * np.eye(7))[::-1]
        assert np.all(np.diff(eig) <= 0)
        assert np.allclose(eig, dense, atol=1e-12)
        assert np.sum(eig == 0.5) == 5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="expected"):
            factored_spectrum(np.ones((4, 3)), np.eye(2))

    def test_t_is_no_part_of_the_model(self):
        # the model is (params, gamma_override); T is measured, never a field
        cov, _ = _dataset(10, 20)
        params = linearize_params(KernelSpec.gaussian(), cov.tau, cov.trace_ratio)
        assert [f.name for f in dataclasses.fields(LinModel)] == ["params", "gamma_override"]
        with pytest.raises(TypeError, match="curvature"):
            LinModel(params, curvature=True)


_ALL_SPECS = dict(_SPECS, exponential_inner=KernelSpec.exponential_inner())


class TestLinFactor:
    """F F^T, Phi L F^T and `eigen` against the dense Gram matrix, cross
    kernel and solve, and `spectrum_with_t` against the dense K_lin + T,
    for every kernel and at alpha = 0."""

    @pytest.mark.parametrize("kernel", sorted(_ALL_SPECS))
    @pytest.mark.parametrize("with_t", [False, True])
    @pytest.mark.parametrize("alpha_zero", [False, True], ids=["alpha", "alpha-0"])
    def test_factored_forms_match_dense(self, kernel, with_t, alpha_zero):
        n, d, m = 30, 25, 40
        cov, data = _dataset(n, d, seed=7)
        params = linearize_params(_ALL_SPECS[kernel], cov.tau, cov.trace_ratio)
        if alpha_zero:
            params = dataclasses.replace(params, alpha=0.0)
        model = LinModel(params)
        if with_t:
            dense = np.linalg.eigvalsh(dense_lin_with_t(model, data))[::-1]
            got = spectrum_with_t(model, data.features)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
            return
        factor = lin_factors(model, data.features)

        K = build_lin_kernel(model, data) - model.gamma * np.eye(n)
        got = factor.F @ factor.F.T
        assert np.max(np.abs(got - K)) <= 1e-12 * np.max(np.abs(K))

        # n > p here, so the core's spectrum comes from its block of F^T F
        core = build_lin_kernel(LinModel(params, 0.0), data)
        dense = np.maximum(np.linalg.eigvalsh(core)[::-1], 0.0)
        assert np.max(np.abs(factor.core_spectrum() - dense)) <= 1e-12 * dense[0]

        if params.alpha == 0 and params.h_pivot != 0:
            with pytest.raises(ValueError, match="needs alpha > 0"):
                factor.weigh(factor.F.T)
            return
        Q = sample_features(cov, m, 8)
        cross = lin_cross_kernel_matrix(model, data, Q)
        got = factor.predict(QuerySample(Q, np.zeros(m)), factor.weigh(factor.F.T))
        assert np.max(np.abs(got - cross)) <= 1e-12 * np.max(np.abs(cross))

    @pytest.mark.parametrize("kernel", sorted(_ALL_SPECS))
    @pytest.mark.parametrize("alpha_zero", [False, True], ids=["alpha", "alpha-0"])
    @pytest.mark.parametrize("offset", [-6, 0, 9], ids=["n<p", "n=p", "n>p"])
    def test_eigen_matches_dense(self, kernel, alpha_zero, offset):
        # the eigenvalues, padded with the null space's zeros, are the dense
        # spectrum, and the filtered fit L F^T (F F^T + r I)^-1 Y
        d, r = 20, 0.3
        cov, data = _dataset(d + 12, d, seed=11)
        params = linearize_params(_ALL_SPECS[kernel], cov.tau, cov.trace_ratio)
        if alpha_zero:
            params = dataclasses.replace(params, alpha=0.0)
        model = LinModel(params)
        p = lin_factors(model, data.features).F.shape[1]
        n = p + offset
        sample = Dataset(data.features[:n], data.responses[:n])
        factor = lin_factors(model, sample.features)
        Y = np.random.default_rng(5).standard_normal((n, 3))
        if params.alpha == 0 and params.h_pivot != 0:
            with pytest.raises(ValueError, match="needs alpha > 0"):
                factor.eigen(Y)
            return
        w, Z, proj, spectrum = factor.eigen(Y)

        A = factor.F @ factor.F.T
        dense = np.linalg.eigvalsh(A)
        assert w.shape == (min(n, p),)
        got = np.sort(np.concatenate([w, np.zeros(n - w.size)]))
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

        want = factor.weigh(factor.F.T) @ np.linalg.solve(A + r * np.eye(n), Y)
        got = Z @ (proj / (w + r)[:, None])
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

        core = build_lin_kernel(LinModel(params, 0.0), sample)
        dense = np.maximum(np.linalg.eigvalsh(core)[::-1], 0.0)
        assert np.max(np.abs(spectrum - dense)) <= 1e-12 * dense[0]

    @pytest.mark.parametrize("kernel", ["exponential_inner", "gaussian", "polynomial"])
    @pytest.mark.parametrize("n", [15, 30], ids=["n<p", "n>p"])
    def test_spectra_need_no_constant_column(self, kernel, n):
        # alpha = 0 with h_pivot != 0: the cross kernel's constant has no
        # column, but the core and the Gram matrix the model fits do not read it
        d = 25
        cov, data = _dataset(n, d, seed=7)
        params = linearize_params(_ALL_SPECS[kernel], cov.tau, cov.trace_ratio)
        params = dataclasses.replace(params, alpha=0.0)
        assert params.h_pivot != 0
        model = LinModel(params)
        factor = lin_factors(model, data.features)
        assert factor.F.shape == (n, d)

        core = build_lin_kernel(LinModel(params, 0.0), data)
        dense = np.maximum(np.linalg.eigvalsh(core)[::-1], 0.0)
        assert np.max(np.abs(factor.core_spectrum() - dense)) <= 1e-12 * dense[0]
        dense = np.linalg.eigvalsh(build_lin_kernel(model, data))[::-1]
        got = factored_spectrum(factor.F, np.eye(d), model.gamma)
        assert np.max(np.abs(got - dense)) <= 1e-12 * dense[0]


class TestMomentDiagnostics:
    def test_gaussian_entry_moments(self):
        d, n, m = 80, 120, 500
        rng = np.random.default_rng(0)
        X = rng.standard_normal((n, d))
        data = Dataset(X, np.zeros(n))
        queries = rng.standard_normal((m, d))
        diag = np.ones(d)
        res = moment_diagnostics(data, queries, sigma_d=diag)
        tol = 5.0 / np.sqrt(n * d)
        assert abs(res.mu3_hat) <= tol
        assert abs(res.mu4_hat - 3.0) <= tol

    def test_equal_norm_data_kills_estimate(self):
        # all training and query norms pinned at d*tau: the estimate vanishes
        d, n, m = 50, 20, 400
        cov = make_covariance(d, "identity")
        X = sample_features(cov, n, 3)               # orthogonal rows: ||x||^2 = d
        rng = np.random.default_rng(4)
        Q = rng.standard_normal((m, d))
        Q *= np.sqrt(d) / np.linalg.norm(Q, axis=1, keepdims=True)
        res = moment_diagnostics(Dataset(X, np.zeros(n)), Q, sigma_d=cov.diag)
        assert res.top_eigenvalue <= 10.0 / d

    def test_estimate_has_rank_at_most_two(self):
        cov = make_covariance(100, "harmonic")
        data, _ = sample_dataset(cov, 30, TargetSpec(noise_sigma=0.0), 5)
        rng = np.random.default_rng(6)
        Q = rng.standard_normal((300, 100)) * np.sqrt(cov.diag)[None, :]
        res = moment_diagnostics(data, Q, sigma_d=cov.diag)
        assert 0.0 <= res.rank1_ratio <= 1.0
        assert res.top_eigenvalue > 0

    @pytest.mark.parametrize("d,n", [(500, 100), (100, 30), (50, 20)])
    def test_rank_two_spectrum_matches_dense_estimate(self, d, n):
        cov = make_covariance(d, "harmonic")
        data, _ = sample_dataset(cov, n, TargetSpec(noise_sigma=0.0), d + n)
        Q = sample_features(cov, 400, d + n + 1)
        res = moment_diagnostics(data, Q, sigma_d=cov.diag)
        # the n x n estimate (1/m) sum_q (psi_q 1 + psi)(psi_q 1 + psi)^T, built densely
        psi = np.einsum("ij,ij->i", data.features, data.features) / d - cov.tau
        psi_q = np.einsum("ij,ij->i", Q, Q) / d - cov.tau
        A = psi_q[:, None] + psi[None, :]
        w = np.linalg.eigvalsh(A.T @ A / Q.shape[0])
        assert res.top_eigenvalue == pytest.approx(w[-1], rel=1e-12)
        assert res.rank1_ratio == pytest.approx(abs(w[-2]) / w[-1], rel=1e-12)

    def test_insufficient_queries(self):
        data = Dataset(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError):
            moment_diagnostics(data, np.eye(4)[:3], sigma_d=np.ones(4))


def test_estimate_trace_ratio_recovers_known_covariance():
    d = 60
    cov = make_covariance(d, "harmonic")
    rng = np.random.default_rng(8)
    X = rng.standard_normal((4000, d)) * np.sqrt(cov.diag)[None, :]
    est = estimate_trace_ratio(X)
    assert est == pytest.approx(cov.trace_ratio, rel=0.15)


@pytest.mark.parametrize("n,d", [(30, 80), (200, 40)])
def test_estimate_trace_ratio_equals_n_by_n_form(n, d):
    # tr(S^2) from the d x d covariance equals tr(G^2) of the n x n G = Xc Xc^T/(n-1)
    rng = np.random.default_rng(n + d)
    X = rng.standard_normal((n, d)) * np.linspace(0.5, 2.0, d) + 3.0
    Xc = X - X.mean(axis=0)
    G = Xc @ Xc.T / (n - 1)
    dense = (np.sum(G * G) - np.trace(G) ** 2 / n) / d ** 2
    assert estimate_trace_ratio(X) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("n,d", [(20, 24), (60, 24), (200, 100), (2000, 100), (37, 300)])
def test_estimate_trace_ratio_same_bits_on_either_blas(n, d):
    # the sweep forms the scatter on the cell's BLAS: numpy's by default,
    # scipy's through kernels.scipy_gram; the estimate must not depend on it
    rng = np.random.default_rng(n * d)
    X = rng.standard_normal((n, d)) * np.linspace(0.1, 10.0, d) - 2.0
    assert estimate_trace_ratio(X, kernels.scipy_gram) == estimate_trace_ratio(X)


@pytest.mark.parametrize("call", [
    lambda: linearize_params(KernelSpec.gaussian(), np.nan, 0.1),
    lambda: linearize_params(KernelSpec.polynomial(3), 1.0, np.nan),
    lambda: moment_diagnostics(Dataset(np.ones((4, 3)), np.zeros(4)), np.ones((100, 3)),
                               sigma_d=np.array([1.0, np.nan, 1.0])),
    lambda: linearize_params(KernelSpec.gaussian(), np.inf, 0.1),
    lambda: linearize_params(KernelSpec.polynomial(3), 1.0, np.inf),
], ids=["tau", "trace_ratio", "sigma_d", "tau-inf", "trace_ratio-inf"])
def test_nan_rejected(call):
    with pytest.raises(ValueError, match="must be"):
        call()


@pytest.mark.parametrize("call", [
    lambda: lin_cross_kernel_matrix(LinModel(linearize_params(KernelSpec.gaussian(), 1.0, 0.1)),
                                    Dataset(np.ones((4, 3)), np.zeros(4)), np.ones((5, 2))),
    lambda: moment_diagnostics(Dataset(np.ones((4, 3)), np.zeros(4)), np.ones((100, 2)),
                               sigma_d=np.ones(3)),
], ids=["lin_cross_kernel_matrix", "moment_diagnostics"])
def test_query_width_checked(call):
    with pytest.raises(ValueError, match="queries have width 2, expected 3"):
        call()
